#ifndef DOEM_STORE_FORMAT_H_
#define DOEM_STORE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "doem/doem.h"
#include "oem/history.h"

namespace doem {
namespace store {

/// The store's single-file on-disk format: one 8-byte magic header, then
/// an append-only sequence of length-prefixed, CRC32-checksummed records.
/// Checkpoints live *inline* in the same log as the deltas — the commit
/// point of every record, checkpoint or delta, is the same append+sync,
/// so there is no multi-file "which checkpoint goes with which log
/// suffix" ambiguity for recovery to resolve.
///
///   +--------------------------------------------------------------+
///   | "DOEMSTR1"                                   file header, 8B |
///   +------------+------------+------+-----------------------------+
///   | length u32 | crc32  u32 | type | payload (length - 1 bytes)  |
///   +------------+------------+------+-----------------------------+
///   | length u32 | crc32  u32 | type | payload                     |
///   +------------+------------+------+-----------------------------+
///   | ...                                                          |
///
/// Fixed-width fields are little-endian. `length` covers the type byte
/// plus the payload; `crc32` covers the same bytes, so a flipped bit in
/// either the type or the payload is caught before any byte is
/// interpreted. A record is *committed* iff every one of its bytes is in
/// the file and the checksum verifies — recovery truncates at the first
/// record that fails either test.
///
/// Payloads are the repo's existing text formats (checkpoint: the §5.1
/// DOEM-in-OEM encoding in OEM text; delta: one history-text step), so
/// the store inherits their pinned round-trip guarantees and their
/// hardened parsers — recovery feeds them hostile bytes by design.

inline constexpr std::string_view kStoreMagic = "DOEMSTR1";
inline constexpr size_t kStoreHeaderSize = 8;
/// u32 length + u32 crc.
inline constexpr size_t kRecordHeaderSize = 8;
/// Upper bound on `length`: a hostile length field must not make
/// recovery allocate unbounded memory.
inline constexpr uint32_t kMaxRecordLength = 1u << 30;

enum class RecordType : uint8_t {
  /// Full state: the DOEM database plus the committed-record times that
  /// produced it. Recovery restarts from the latest valid one.
  kCheckpoint = 1,
  /// One committed change set (t, U) — possibly empty (a poll that
  /// observed no change still commits its polling time).
  kDelta = 2,
};

// ---- Frame codec -----------------------------------------------------------
//
// The record shape — u32 length | u32 crc32 | type byte | payload — is
// useful beyond the log file: the QSS server's wire protocol frames its
// messages the same way, so a torn TCP read and a torn file tail are the
// same condition handled by the same code. EncodeFrame/DecodeFrameAt are
// the type-agnostic layer (the caller owns the type-byte namespace);
// EncodeRecord/DecodeRecordAt specialize them to the store's RecordType.

enum class DecodeOutcome {
  kOk,
  /// The bytes end mid-record (torn tail): fewer bytes than the header
  /// or the declared length promises.
  kTorn,
  /// The record is structurally whole but lies: bad checksum, zero or
  /// oversized length, or an unknown type byte.
  kCorrupt,
};

struct DecodedFrame {
  uint8_t type = 0;
  std::string_view payload;
  /// Offset just past this frame; where the next one starts.
  uint64_t end = 0;
};

/// Frames one message (header + type + payload).
std::string EncodeFrame(uint8_t type, std::string_view payload);

/// Decodes the frame starting at `offset`, accepting any type byte.
/// `max_length` bounds the declared length (a hostile peer's length field
/// must not make the receiver buffer unbounded memory); pass
/// kMaxRecordLength for parity with the store. On kTorn/kCorrupt,
/// `*reason` describes the defect; `out` is valid only on kOk. Never
/// reads past `bytes`.
DecodeOutcome DecodeFrameAt(std::string_view bytes, uint64_t offset,
                            uint32_t max_length, DecodedFrame* out,
                            std::string* reason);

// ---- Record framing --------------------------------------------------------

/// The 8-byte file header.
std::string EncodeStoreHeader();

/// Frames one record (header + type + payload) ready to append.
std::string EncodeRecord(RecordType type, std::string_view payload);

struct DecodedRecord {
  RecordType type = RecordType::kDelta;
  std::string_view payload;
  /// Offset just past this record; where the next one starts.
  uint64_t end = 0;
};

/// Decodes the record starting at `offset`. On kTorn/kCorrupt, `*reason`
/// describes the defect; `out` is valid only on kOk. Never reads past
/// `bytes`, never allocates proportional to the hostile length field.
DecodeOutcome DecodeRecordAt(std::string_view bytes, uint64_t offset,
                             DecodedRecord* out, std::string* reason);

// ---- Payload codecs --------------------------------------------------------

/// A decoded checkpoint: the database and the polling/commit times of
/// every record up to it.
struct CheckpointPayload {
  DoemDatabase db;
  std::vector<Timestamp> times;
};

/// Serializes `db` + `times` ("times <raw ticks>..." line, an
/// "ids <next id>" line with the graph's id allocator position, a "---"
/// separator, then the DOEM text encoding). Fails if `db` cannot be
/// encoded (e.g. reserved '&' labels). Decoding also accepts payloads
/// without the ids line.
Result<std::string> EncodeCheckpointPayload(const DoemDatabase& db,
                                            const std::vector<Timestamp>& times);
Result<CheckpointPayload> DecodeCheckpointPayload(std::string_view payload);

/// A decoded delta record.
struct DeltaPayload {
  Timestamp time;
  ChangeSet ops;
};

/// Serializes one (t, U) step in the history text format.
std::string EncodeDeltaPayload(Timestamp t, const ChangeSet& ops);
Result<DeltaPayload> DecodeDeltaPayload(std::string_view payload);

}  // namespace store
}  // namespace doem

#endif  // DOEM_STORE_FORMAT_H_
