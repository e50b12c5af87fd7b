#include "store/format.h"

#include <charconv>

#include "encoding/doem_text.h"
#include "encoding/encode.h"
#include "oem/history_text.h"
#include "oem/oem_text.h"
#include "store/crc32.h"

namespace doem {
namespace store {

namespace {

void PutU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

uint32_t GetU32(std::string_view bytes, uint64_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 3]))
             << 24;
}

}  // namespace

std::string EncodeStoreHeader() { return std::string(kStoreMagic); }

std::string EncodeFrame(uint8_t type, std::string_view payload) {
  std::string out;
  out.reserve(kRecordHeaderSize + 1 + payload.size());
  uint32_t length = static_cast<uint32_t>(1 + payload.size());
  PutU32(length, &out);
  // CRC covers type byte + payload.
  std::string body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<char>(type));
  body.append(payload);
  PutU32(Crc32(body), &out);
  out.append(body);
  return out;
}

DecodeOutcome DecodeFrameAt(std::string_view bytes, uint64_t offset,
                            uint32_t max_length, DecodedFrame* out,
                            std::string* reason) {
  if (offset > bytes.size()) {
    *reason = "record offset past end of file";
    return DecodeOutcome::kTorn;
  }
  uint64_t remaining = bytes.size() - offset;
  if (remaining < kRecordHeaderSize) {
    *reason = "torn record header (" + std::to_string(remaining) + " of " +
              std::to_string(kRecordHeaderSize) + " bytes)";
    return DecodeOutcome::kTorn;
  }
  uint32_t length = GetU32(bytes, offset);
  uint32_t crc = GetU32(bytes, offset + 4);
  if (length == 0) {
    *reason = "record with zero length";
    return DecodeOutcome::kCorrupt;
  }
  if (length > max_length) {
    *reason = "record length " + std::to_string(length) +
              " exceeds the format bound";
    return DecodeOutcome::kCorrupt;
  }
  if (remaining - kRecordHeaderSize < length) {
    *reason = "torn record body (" +
              std::to_string(remaining - kRecordHeaderSize) + " of " +
              std::to_string(length) + " bytes)";
    return DecodeOutcome::kTorn;
  }
  std::string_view body = bytes.substr(offset + kRecordHeaderSize, length);
  uint32_t actual = Crc32(body);
  if (actual != crc) {
    *reason = "checksum mismatch (stored " + std::to_string(crc) +
              ", computed " + std::to_string(actual) + ")";
    return DecodeOutcome::kCorrupt;
  }
  out->type = static_cast<uint8_t>(body[0]);
  out->payload = body.substr(1);
  out->end = offset + kRecordHeaderSize + length;
  return DecodeOutcome::kOk;
}

std::string EncodeRecord(RecordType type, std::string_view payload) {
  return EncodeFrame(static_cast<uint8_t>(type), payload);
}

DecodeOutcome DecodeRecordAt(std::string_view bytes, uint64_t offset,
                             DecodedRecord* out, std::string* reason) {
  DecodedFrame frame;
  DecodeOutcome outcome =
      DecodeFrameAt(bytes, offset, kMaxRecordLength, &frame, reason);
  if (outcome != DecodeOutcome::kOk) return outcome;
  if (frame.type != static_cast<uint8_t>(RecordType::kCheckpoint) &&
      frame.type != static_cast<uint8_t>(RecordType::kDelta)) {
    *reason = "unknown record type " + std::to_string(frame.type);
    return DecodeOutcome::kCorrupt;
  }
  out->type = static_cast<RecordType>(frame.type);
  out->payload = frame.payload;
  out->end = frame.end;
  return DecodeOutcome::kOk;
}

// ---- Payload codecs --------------------------------------------------------

namespace {

Status CkptErr(const std::string& msg) {
  return Status::ParseError("checkpoint payload: " + msg);
}

}  // namespace

Result<std::string> EncodeCheckpointPayload(
    const DoemDatabase& db, const std::vector<Timestamp>& times) {
  auto enc = EncodeDoem(db);
  if (!enc.ok()) {
    return Status(enc.status().code(),
                  "checkpoint encode: " + enc.status().message());
  }
  std::string out = "times";
  for (const Timestamp& t : times) {
    out.append(" ").append(std::to_string(t.ticks));
  }
  // The allocator position: a two-snapshot rebase drops nodes whose ids
  // stay burned, and recovery must not hand them out again.
  out.append("\nids ").append(std::to_string(db.graph().PeekNextId()));
  out.append("\n---\n");
  out.append(WriteOemText(*enc));
  return out;
}

Result<CheckpointPayload> DecodeCheckpointPayload(std::string_view payload) {
  size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) return CkptErr("missing times line");
  std::string_view times_line = payload.substr(0, nl);
  if (times_line.substr(0, 5) != "times") {
    return CkptErr("first line is not a times line");
  }
  CheckpointPayload out;
  size_t pos = 5;
  while (pos < times_line.size()) {
    while (pos < times_line.size() && times_line[pos] == ' ') ++pos;
    if (pos == times_line.size()) break;
    int64_t ticks = 0;
    auto [ptr, ec] = std::from_chars(times_line.data() + pos,
                                     times_line.data() + times_line.size(),
                                     ticks);
    if (ec != std::errc() || (ptr != times_line.data() + times_line.size() &&
                              *ptr != ' ')) {
      return CkptErr("bad tick value in times line");
    }
    Timestamp t(ticks);
    if (!out.times.empty() && t <= out.times.back()) {
      return CkptErr("times not strictly increasing");
    }
    out.times.push_back(t);
    pos = static_cast<size_t>(ptr - times_line.data());
  }
  std::string_view rest = payload.substr(nl + 1);
  NodeId next_id = 0;  // absent in logs written before the ids line
  if (rest.substr(0, 4) == "ids ") {
    size_t end = rest.find('\n');
    if (end == std::string_view::npos) return CkptErr("unterminated ids line");
    auto [ptr, ec] =
        std::from_chars(rest.data() + 4, rest.data() + end, next_id);
    if (ec != std::errc() || ptr != rest.data() + end) {
      return CkptErr("bad ids line");
    }
    rest = rest.substr(end + 1);
  }
  if (rest.substr(0, 4) != "---\n") return CkptErr("missing --- separator");
  auto db = ParseDoemText(std::string(rest.substr(4)));
  if (!db.ok()) {
    return Status(db.status().code(),
                  "checkpoint database: " + db.status().message());
  }
  out.db = std::move(db).value();
  out.db.ReserveIdsBelow(next_id);
  return out;
}

std::string EncodeDeltaPayload(Timestamp t, const ChangeSet& ops) {
  OemHistory h;
  // Append on an empty history cannot fail.
  (void)h.Append(t, ops);
  return WriteHistoryText(h);
}

Result<DeltaPayload> DecodeDeltaPayload(std::string_view payload) {
  auto h = ParseHistoryText(std::string(payload));
  if (!h.ok()) {
    return Status(h.status().code(),
                  "delta payload: " + h.status().message());
  }
  if (h->size() != 1) {
    return Status::ParseError("delta payload: expected exactly one step, "
                              "got " +
                              std::to_string(h->size()));
  }
  DeltaPayload out;
  out.time = h->steps()[0].time;
  out.ops = h->steps()[0].changes;
  return out;
}

}  // namespace store
}  // namespace doem
