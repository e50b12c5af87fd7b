#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "doem/doem.h"
#include "oem/graph_compare.h"
#include "oem/history.h"
#include "oem/history_text.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "store/crc32.h"
#include "store/fault_file.h"
#include "store/file.h"
#include "store/format.h"
#include "store/log.h"
#include "store/recovery.h"
#include "store/store.h"
#include "store/time_travel.h"
#include "testing/generators.h"

namespace doem {
namespace store {
namespace {

using ::doem::testing::DatabaseOptions;
using ::doem::testing::HistoryOptions;
using ::doem::testing::RandomDatabase;
using ::doem::testing::RandomHistory;

// A small deterministic DOEM database with a few committed change sets.
DoemDatabase SampleDb(size_t steps = 4) {
  DatabaseOptions dopts;
  dopts.seed = 7;
  dopts.node_count = 20;
  OemDatabase base = RandomDatabase(dopts);
  HistoryOptions hopts;
  hopts.seed = 8;
  hopts.steps = steps;
  hopts.ops_per_step = 3;
  OemHistory h = RandomHistory(base, hopts);
  auto db = DoemDatabase::Build(std::move(base), h);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// ---- CRC32 -----------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // The standard IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32(std::string(1, '\0')), 0xD202EF8Du);
}

TEST(Crc32Test, ExtendComposes) {
  std::string data = "the quick brown fox";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t a = Crc32Extend(kCrc32Initial, data.substr(0, split));
    EXPECT_EQ(Crc32Extend(a, data.substr(split)), Crc32(data));
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  std::string data = "payload under test";
  uint32_t good = Crc32(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = data;
      bad[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(Crc32(bad), good) << "byte " << i << " bit " << bit;
    }
  }
}

// ---- Record framing --------------------------------------------------------

TEST(FormatTest, RecordRoundTrip) {
  std::string framed = EncodeRecord(RecordType::kDelta, "hello");
  std::string file = EncodeStoreHeader() + framed;
  DecodedRecord rec;
  std::string reason;
  ASSERT_EQ(DecodeRecordAt(file, kStoreHeaderSize, &rec, &reason),
            DecodeOutcome::kOk)
      << reason;
  EXPECT_EQ(rec.type, RecordType::kDelta);
  EXPECT_EQ(rec.payload, "hello");
  EXPECT_EQ(rec.end, file.size());
}

TEST(FormatTest, EveryTruncationIsTorn) {
  std::string framed = EncodeRecord(RecordType::kCheckpoint, "payload bytes");
  for (size_t keep = 0; keep < framed.size(); ++keep) {
    DecodedRecord rec;
    std::string reason;
    EXPECT_EQ(DecodeRecordAt(framed.substr(0, keep), 0, &rec, &reason),
              DecodeOutcome::kTorn)
        << "keep=" << keep;
  }
}

TEST(FormatTest, EveryBitFlipIsCorrupt) {
  std::string framed = EncodeRecord(RecordType::kDelta, "payload bytes");
  for (size_t i = 0; i < framed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = framed;
      bad[i] ^= static_cast<char>(1 << bit);
      DecodedRecord rec;
      std::string reason;
      DecodeOutcome oc = DecodeRecordAt(bad, 0, &rec, &reason);
      // A flip in the length field may also present as a torn record
      // (larger declared length) — never as a valid one.
      EXPECT_NE(oc, DecodeOutcome::kOk) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(FormatTest, HostileLengthFieldsRejectedWithoutAllocation) {
  // length = 0.
  std::string zero(kRecordHeaderSize, '\0');
  DecodedRecord rec;
  std::string reason;
  EXPECT_EQ(DecodeRecordAt(zero, 0, &rec, &reason), DecodeOutcome::kCorrupt);
  // length = 0xFFFFFFFF: must be rejected by the bound check, not by
  // attempting to read 4 GiB.
  std::string huge("\xFF\xFF\xFF\xFF\x00\x00\x00\x00", 8);
  EXPECT_EQ(DecodeRecordAt(huge, 0, &rec, &reason), DecodeOutcome::kCorrupt);
  EXPECT_NE(reason.find("exceeds"), std::string::npos);
}

TEST(FormatTest, UnknownRecordTypeIsCorrupt) {
  std::string framed = EncodeRecord(RecordType::kDelta, "x");
  framed[kRecordHeaderSize] = 99;  // type byte, now checksum-mismatched
  DecodedRecord rec;
  std::string reason;
  EXPECT_EQ(DecodeRecordAt(framed, 0, &rec, &reason), DecodeOutcome::kCorrupt);
}

// ---- Payload codecs --------------------------------------------------------

TEST(FormatTest, CheckpointPayloadRoundTrip) {
  DoemDatabase db = SampleDb();
  std::vector<Timestamp> times = {Timestamp(100), Timestamp(110),
                                  Timestamp(120), Timestamp(130)};
  auto payload = EncodeCheckpointPayload(db, times);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto decoded = DecodeCheckpointPayload(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->db.Equals(db));
  EXPECT_EQ(decoded->times, times);
}

TEST(FormatTest, CheckpointPayloadEmptyTimes) {
  DoemDatabase db = SampleDb(0);
  auto payload = EncodeCheckpointPayload(db, {});
  ASSERT_TRUE(payload.ok());
  auto decoded = DecodeCheckpointPayload(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->times.empty());
  EXPECT_TRUE(decoded->db.Equals(db));
}

TEST(FormatTest, CheckpointPayloadRejectsGarbage) {
  EXPECT_FALSE(DecodeCheckpointPayload("").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("nonsense\n---\n").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("times 1 2\nmissing separator").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("times 2 1\n---\n").ok());
  EXPECT_FALSE(DecodeCheckpointPayload("times x\n---\n").ok());
}

TEST(FormatTest, DeltaPayloadRoundTrip) {
  ChangeSet ops;
  ops.push_back(ChangeOp::CreNode(NodeId{77}, Value::String("v")));
  ops.push_back(ChangeOp::AddArc(NodeId{1}, "label", NodeId{77}));
  std::string payload = EncodeDeltaPayload(Timestamp(42), ops);
  auto decoded = DecodeDeltaPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->time, Timestamp(42));
  EXPECT_EQ(decoded->ops.size(), 2u);
}

TEST(FormatTest, DeltaPayloadEmptyChangeSet) {
  // A poll that saw no change still commits its time.
  std::string payload = EncodeDeltaPayload(Timestamp(9), {});
  auto decoded = DecodeDeltaPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->time, Timestamp(9));
  EXPECT_TRUE(decoded->ops.empty());
}

TEST(FormatTest, DeltaPayloadRejectsGarbage) {
  EXPECT_FALSE(DecodeDeltaPayload("not a history").ok());
  // Two steps in one delta record is malformed.
  OemHistory h;
  ASSERT_TRUE(h.Append(Timestamp(1), {}).ok());
  ASSERT_TRUE(h.Append(Timestamp(2), {}).ok());
  EXPECT_FALSE(DecodeDeltaPayload(WriteHistoryText(h)).ok());
}

// ---- Files -----------------------------------------------------------------

TEST(MemoryFileTest, AppendReadTruncate) {
  MemoryFile f;
  ASSERT_TRUE(f.Append("abc").ok());
  ASSERT_TRUE(f.Append("def").ok());
  ASSERT_TRUE(f.Sync().ok());
  EXPECT_EQ(f.sync_count(), 1u);
  auto all = f.ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, "abcdef");
  ASSERT_TRUE(f.Truncate(4).ok());
  EXPECT_EQ(f.data(), "abcd");
  auto size = f.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u);
}

TEST(PosixFileTest, AppendReadTruncatePersist) {
  std::string path = ::testing::TempDir() + "/doem_posix_file_test.bin";
  std::remove(path.c_str());
  {
    auto f = PosixFile::Open(path);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ASSERT_TRUE((*f)->Append("hello ").ok());
    ASSERT_TRUE((*f)->Append("world").ok());
    ASSERT_TRUE((*f)->Sync().ok());
    ASSERT_TRUE((*f)->Truncate(5).ok());
  }
  {
    auto f = PosixFile::Open(path);
    ASSERT_TRUE(f.ok());
    auto all = (*f)->ReadAll();
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(*all, "hello");
    // Append after reopen lands at the (truncated) end.
    ASSERT_TRUE((*f)->Append("!").ok());
    auto again = (*f)->ReadAll();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, "hello!");
  }
  std::remove(path.c_str());
}

// ---- FaultInjectingFile ----------------------------------------------------

TEST(FaultFileTest, CrashAtOffsetLeavesPrefixAndSticks) {
  MemoryFile inner;
  FaultInjectingFile f(&inner);
  f.CrashAtOffset(5);
  ASSERT_TRUE(f.Append("abc").ok());
  Status s = f.Append("defg");  // would end at 7 > 5: crash
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(f.crashed());
  EXPECT_EQ(inner.data(), "abcde");  // prefix up to the crash offset
  EXPECT_FALSE(f.Append("x").ok());  // sticky
  EXPECT_FALSE(f.Sync().ok());
  EXPECT_EQ(f.injected_faults(), 1u);
}

TEST(FaultFileTest, ShortWriteIsOneShot) {
  MemoryFile inner;
  FaultInjectingFile f(&inner);
  f.ShortWriteNext(2);
  EXPECT_FALSE(f.Append("abcdef").ok());
  EXPECT_EQ(inner.data(), "ab");
  // Next append works again (disk recovered, file is torn).
  ASSERT_TRUE(f.Append("XY").ok());
  EXPECT_EQ(inner.data(), "abXY");
}

TEST(FaultFileTest, FailSyncDropsUnsyncedBytes) {
  MemoryFile inner;
  FaultInjectingFile f(&inner);
  ASSERT_TRUE(f.Append("stable").ok());
  ASSERT_TRUE(f.Sync().ok());
  f.FailSync(1, /*drop_unsynced=*/true);
  ASSERT_TRUE(f.Append("doomed").ok());
  EXPECT_FALSE(f.Sync().ok());
  // The unsynced tail never reached the platter.
  EXPECT_EQ(inner.data(), "stable");
}

TEST(FaultFileTest, FlipBitCorruptsReadPathOnly) {
  MemoryFile inner;
  FaultInjectingFile f(&inner);
  ASSERT_TRUE(f.Append("AAAA").ok());
  f.FlipBit(2, 0);
  auto read = f.ReadAll();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::string("AA") + static_cast<char>('A' ^ 1) + "A");
  EXPECT_EQ(inner.data(), "AAAA");  // the medium itself is untouched
}

// ---- LogWriter / LogReader -------------------------------------------------

TEST(LogTest, WriteThenReadBack) {
  MemoryFile f;
  LogWriter writer(&f, 0, /*sync_each_append=*/true);
  ASSERT_TRUE(writer.WriteHeader().ok());
  ASSERT_TRUE(writer.AppendRecord(RecordType::kCheckpoint, "one").ok());
  ASSERT_TRUE(writer.AppendRecord(RecordType::kDelta, "two").ok());
  EXPECT_EQ(writer.records_written(), 2u);
  EXPECT_EQ(writer.offset(), f.data().size());

  LogReader reader(f.data());
  DecodedRecord rec;
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.type, RecordType::kCheckpoint);
  EXPECT_EQ(rec.payload, "one");
  ASSERT_TRUE(reader.Next(&rec));
  EXPECT_EQ(rec.type, RecordType::kDelta);
  EXPECT_EQ(rec.payload, "two");
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
}

TEST(LogTest, WriterFailureIsSticky) {
  MemoryFile inner;
  FaultInjectingFile f(&inner);
  LogWriter writer(&f, 0, /*sync_each_append=*/true);
  ASSERT_TRUE(writer.WriteHeader().ok());
  f.CrashAtOffset(10);
  EXPECT_FALSE(writer.AppendRecord(RecordType::kDelta, "payload").ok());
  EXPECT_TRUE(writer.broken());
  // Even after the file would accept writes again, the writer refuses:
  // its offset bookkeeping no longer matches the torn file.
  Status s = writer.AppendRecord(RecordType::kDelta, "more");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), writer.broken_status().message());
}

TEST(LogTest, ReaderStopsAtTornTail) {
  MemoryFile f;
  LogWriter writer(&f, 0, true);
  ASSERT_TRUE(writer.WriteHeader().ok());
  ASSERT_TRUE(writer.AppendRecord(RecordType::kDelta, "whole").ok());
  std::string bytes = f.data() + "torn";
  LogReader reader(bytes);
  DecodedRecord rec;
  EXPECT_TRUE(reader.Next(&rec));
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_FALSE(reader.status().ok());
}

// ---- Store facade ----------------------------------------------------------

StoreOptions TestOptions(size_t interval = 64) {
  StoreOptions o;
  o.checkpoint_interval = interval;
  return o;
}

TEST(StoreTest, FreshFileHasNoState) {
  MemoryFile f;
  auto s = Store::Open(&f, TestOptions());
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_FALSE((*s)->has_state());
  // The magic header is written eagerly.
  EXPECT_EQ(f.data(), kStoreMagic);
  // Append before Start is refused.
  DoemDatabase db = SampleDb(0);
  EXPECT_FALSE((*s)->Append(Timestamp(1), {}, db).ok());
}

TEST(StoreTest, StartAppendReopenRecovers) {
  MemoryFile f;
  DatabaseOptions dopts;
  dopts.seed = 3;
  dopts.node_count = 15;
  OemDatabase base = RandomDatabase(dopts);
  HistoryOptions hopts;
  hopts.seed = 4;
  hopts.steps = 6;
  OemHistory h = RandomHistory(base, hopts);

  auto live = DoemDatabase::FromSnapshot(base);
  ASSERT_TRUE(live.ok());
  {
    auto s = Store::Open(&f, TestOptions());
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->Start(*live).ok());
    for (const auto& step : h.steps()) {
      ASSERT_TRUE(live->ApplyChangeSet(step.time, step.changes).ok());
      ASSERT_TRUE((*s)->Append(step.time, step.changes, *live).ok());
    }
  }  // "crash": the Store object dies, the bytes survive.

  auto reopened = Store::Open(&f, TestOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->has_state());
  EXPECT_FALSE((*reopened)->recovery().truncated);
  std::vector<Timestamp> want_times;
  for (const auto& step : h.steps()) want_times.push_back(step.time);
  EXPECT_EQ((*reopened)->recovered_times(), want_times);
  DoemDatabase recovered = (*reopened)->TakeRecoveredDb();
  EXPECT_TRUE(recovered.Equals(*live));
  // And appending after recovery continues the same history.
  ASSERT_TRUE(live->ApplyChangeSet(Timestamp(10000), {}).ok());
  EXPECT_TRUE((*reopened)->Append(Timestamp(10000), {}, *live).ok());
}

TEST(StoreTest, CheckpointIntervalBoundsReplay) {
  MemoryFile f;
  DoemDatabase live = SampleDb(0);
  auto s = Store::Open(&f, TestOptions(/*interval=*/3));
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->Start(live).ok());
  for (int i = 1; i <= 7; ++i) {
    ASSERT_TRUE(live.ApplyChangeSet(Timestamp(1000 + i), {}).ok());
    ASSERT_TRUE((*s)->Append(Timestamp(1000 + i), {}, live).ok());
  }
  // 1 initial checkpoint + 7 deltas + 2 periodic checkpoints (after the
  // 3rd and 6th delta).
  LogReader reader(f.data());
  size_t checkpoints = 0, deltas = 0;
  DecodedRecord rec;
  while (reader.Next(&rec)) {
    (rec.type == RecordType::kCheckpoint ? checkpoints : deltas)++;
  }
  EXPECT_EQ(checkpoints, 3u);
  EXPECT_EQ(deltas, 7u);

  auto reopened = Store::Open(&f, TestOptions(3));
  ASSERT_TRUE(reopened.ok());
  // Recovery replays only the deltas after the last checkpoint.
  EXPECT_EQ((*reopened)->recovery().replayed, 1u);
  EXPECT_EQ((*reopened)->recovered_times().size(), 7u);
  EXPECT_TRUE((*reopened)->TakeRecoveredDb().Equals(live));
}

TEST(StoreTest, AppendRejectsNonMonotonicTime) {
  MemoryFile f;
  DoemDatabase live = SampleDb(0);
  auto s = Store::Open(&f, TestOptions());
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->Start(live).ok());
  ASSERT_TRUE(live.ApplyChangeSet(Timestamp(100), {}).ok());
  ASSERT_TRUE((*s)->Append(Timestamp(100), {}, live).ok());
  EXPECT_FALSE((*s)->Append(Timestamp(100), {}, live).ok());
  EXPECT_FALSE((*s)->Append(Timestamp(99), {}, live).ok());
  // The store is NOT broken by a rejected argument — only by I/O.
  EXPECT_FALSE((*s)->broken());
}

TEST(StoreTest, WriteFailureIsStickyAndReopenRepairs) {
  MemoryFile inner;
  FaultInjectingFile f(&inner);
  DoemDatabase live = SampleDb(0);
  auto s = Store::Open(&f, TestOptions());
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->Start(live).ok());
  uint64_t committed = (*s)->size();

  f.CrashAtOffset(committed + 5);  // tear the next record
  ASSERT_TRUE(live.ApplyChangeSet(Timestamp(50), {}).ok());
  EXPECT_FALSE((*s)->Append(Timestamp(50), {}, live).ok());
  EXPECT_TRUE((*s)->broken());
  ASSERT_TRUE(live.ApplyChangeSet(Timestamp(51), {}).ok());
  EXPECT_FALSE((*s)->Append(Timestamp(51), {}, live).ok());

  // Reopen over the inner file: the torn tail is truncated, the
  // committed prefix survives, appends work again.
  auto reopened = Store::Open(&inner, TestOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->recovery().truncated);
  EXPECT_EQ((*reopened)->size(), committed);
  EXPECT_EQ(inner.data().size(), committed);
  EXPECT_TRUE((*reopened)->has_state());
  EXPECT_TRUE((*reopened)->Append(Timestamp(50), {}, live).ok());
}

#ifndef DOEM_EVENTLOG_DISABLED
// Every write that breaks the store logs one kStoreError event, and a
// truncating Open logs its warning.
TEST(StoreTest, EveryWriteFailureLogsAStoreError) {
  const DoemDatabase live = SampleDb(0);
  const Timestamp t(10);
  struct Case {
    const char* name;
    size_t interval;
    // Fails the write under test by crashing the file `offset` bytes
    // after the committed Start, or during Start itself.
    bool fail_start;
    uint64_t offset;
    std::function<Status(Store*)> write;
  };
  const uint64_t delta = EncodeRecord(RecordType::kDelta,
                                      EncodeDeltaPayload(t, {}))
                             .size();
  const std::vector<Case> cases = {
      {"initial checkpoint", 64, true, 5, nullptr},
      {"delta append failed", 64, false, 5,
       [&](Store* s) { return s->Append(t, {}, live); }},
      {"periodic checkpoint failed", 1, false, delta + 5,
       [&](Store* s) { return s->Append(t, {}, live); }},
      {"checkpoint commit failed", 64, false, 5,
       [&](Store* s) { return s->CommitCheckpoint(t, live); }}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MemoryFile inner;
    FaultInjectingFile f(&inner);
    obs::EventLog events;
    StoreOptions opts = TestOptions(c.interval);
    opts.events = &events;
    opts.name = "group";
    auto s = Store::Open(&f, opts);
    ASSERT_TRUE(s.ok());
    if (c.fail_start) {
      f.CrashAtOffset((*s)->size() + c.offset);
      EXPECT_FALSE((*s)->Start(live).ok());
    } else {
      ASSERT_TRUE((*s)->Start(live).ok());
      f.CrashAtOffset((*s)->size() + c.offset);
      EXPECT_FALSE(c.write(s->get()).ok());
    }
    std::vector<obs::Event> logged = events.Snapshot();
    ASSERT_EQ(logged.size(), 1u);
    EXPECT_EQ(logged[0].type, obs::EventType::kStoreError);
    EXPECT_EQ(logged[0].severity, obs::EventSeverity::kError);
    EXPECT_EQ(logged[0].subject, "group");
    EXPECT_NE(logged[0].detail.find(c.name), std::string::npos)
        << logged[0].detail;

    // Reopening the torn file truncates the tail and warns.
    obs::EventLog reopen_events;
    opts.events = &reopen_events;
    auto reopened = Store::Open(&inner, opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE((*reopened)->recovery().truncated);
    logged = reopen_events.Snapshot();
    ASSERT_EQ(logged.size(), 1u);
    EXPECT_EQ(logged[0].type, obs::EventType::kStoreError);
    EXPECT_EQ(logged[0].severity, obs::EventSeverity::kWarning);
    EXPECT_NE(logged[0].detail.find("discarded torn"), std::string::npos)
        << logged[0].detail;
  }
}
#endif  // DOEM_EVENTLOG_DISABLED

TEST(StoreTest, MetricsAreRecorded) {
  obs::MetricsRegistry metrics;
  StoreOptions opts = TestOptions(2);
  opts.metrics = &metrics;
  MemoryFile f;
  DoemDatabase live = SampleDb(0);
  auto s = Store::Open(&f, opts);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->Start(live).ok());
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(live.ApplyChangeSet(Timestamp(i), {}).ok());
    ASSERT_TRUE((*s)->Append(Timestamp(i), {}, live).ok());
  }
  // 1 initial + 2 periodic checkpoints, 4 deltas.
  EXPECT_EQ(metrics.CounterValue("store.records_written"), 7u);
  EXPECT_EQ(metrics.CounterValue("store.checkpoints_written"), 3u);
  EXPECT_GT(metrics.CounterValue("store.bytes_written"), 0u);
  EXPECT_EQ(metrics.CounterValue("store.fsyncs"), 7u);
  EXPECT_EQ(metrics.CounterValue("store.append_failures"), 0u);
  EXPECT_EQ(metrics.CounterValue("store.recovery_truncations"), 0u);

  // A truncated reopen bumps the recovery counter.
  *f.mutable_data() += "torn tail";
  auto reopened = Store::Open(&f, opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(metrics.CounterValue("store.recovery_truncations"), 1u);
}

TEST(StoreTest, BadMagicRefusesToOpen) {
  MemoryFile f(std::string("NOTMAGIC") + "rest of file");
  auto s = Store::Open(&f, TestOptions());
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kParseError);
  // The file was not modified ("not ours to repair").
  EXPECT_EQ(f.data(), std::string("NOTMAGIC") + "rest of file");
}

// ---- Managers --------------------------------------------------------------

TEST(StoreManagerTest, MemoryManagerSurvivesSimulatedCrash) {
  MemoryStoreManager manager(TestOptions());
  DoemDatabase live = SampleDb(0);
  {
    auto s = manager.OpenStore("group-a");
    ASSERT_TRUE(s.ok());
    ASSERT_TRUE((*s)->Start(live).ok());
    ASSERT_TRUE(live.ApplyChangeSet(Timestamp(5), {}).ok());
    ASSERT_TRUE((*s)->Append(Timestamp(5), {}, live).ok());
  }
  auto s2 = manager.OpenStore("group-a");
  ASSERT_TRUE(s2.ok());
  ASSERT_TRUE((*s2)->has_state());
  EXPECT_TRUE((*s2)->TakeRecoveredDb().Equals(live));
  // Distinct keys are distinct stores.
  auto other = manager.OpenStore("group-b");
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE((*other)->has_state());
}

TEST(StoreManagerTest, DirectoryManagerSanitizesKeysAndPersists) {
  std::string dir = ::testing::TempDir() + "/doem_store_mgr_test";
  DirectoryStoreManager manager(dir, TestOptions());
  // QSS group keys embed '\x1f' and query text; both must map to a
  // portable file name, and distinct keys to distinct files.
  std::string key1 = std::string("select X\x1f") + "2";
  std::string key2 = std::string("select X\x1f") + "3";
  EXPECT_NE(manager.PathFor(key1), manager.PathFor(key2));
  EXPECT_EQ(manager.PathFor(key1).find('\x1f'), std::string::npos);
  EXPECT_EQ(manager.PathFor("a/b"), dir + "/a%2Fb.doemstore");

  DoemDatabase live = SampleDb(2);
  {
    auto s = manager.OpenStore(key1);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ASSERT_TRUE((*s)->Start(live).ok());
  }
  // A brand-new manager instance (fresh process) finds the same file.
  DirectoryStoreManager manager2(dir, TestOptions());
  auto s = manager2.OpenStore(key1);
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE((*s)->has_state());
  EXPECT_TRUE((*s)->TakeRecoveredDb().Equals(live));
  std::remove(manager.PathFor(key1).c_str());
}

// ---- Time travel -----------------------------------------------------------

TEST(TimeTravelTest, AsOfMatchesSnapshotAt) {
  DoemDatabase db = SampleDb(5);
  for (Timestamp t : db.AllTimestamps()) {
    auto past = AsOf(db, t);
    ASSERT_TRUE(past.ok()) << past.status().ToString();
    EXPECT_TRUE(Isomorphic(past->CurrentSnapshot(), db.SnapshotAt(t)));
    // The reconstruction carries no annotations: it is a plain snapshot.
    EXPECT_TRUE(past->AllTimestamps().empty());
  }
}

TEST(TimeTravelTest, BetweenFullRangeIsWholeHistory) {
  DoemDatabase db = SampleDb(5);
  auto whole = Between(db, Timestamp::NegativeInfinity(),
                       Timestamp::PositiveInfinity());
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_TRUE(whole->Equals(db));
}

TEST(TimeTravelTest, BetweenWindowsCarryOnlyWindowAnnotations) {
  DoemDatabase db = SampleDb(6);
  std::vector<Timestamp> times = db.AllTimestamps();
  ASSERT_GE(times.size(), 3u);
  Timestamp t1 = times[1];
  Timestamp t2 = times[times.size() - 2];
  auto window = Between(db, t1, t2);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  // Every annotation in the window database falls in (t1, t2].
  for (Timestamp t : window->AllTimestamps()) {
    EXPECT_LT(t1, t);
    EXPECT_LE(t, t2);
  }
  // Its final state is the t2 snapshot, its base the t1 snapshot.
  EXPECT_TRUE(Isomorphic(window->CurrentSnapshot(), db.SnapshotAt(t2)));
  EXPECT_TRUE(Isomorphic(window->OriginalSnapshot(), db.SnapshotAt(t1)));
}

TEST(TimeTravelTest, BetweenMatchesTheFilteredWholeHistory) {
  DoemDatabase db = SampleDb(6);
  OemHistory whole = db.ExtractHistory();
  std::vector<Timestamp> times = db.AllTimestamps();
  ASSERT_GE(times.size(), 2u);
  ASSERT_LT(times[0].ticks + 1, times[1].ticks);
  std::vector<Timestamp> points = {Timestamp::NegativeInfinity()};
  points.insert(points.end(), times.begin(), times.end());
  points.push_back(Timestamp(times[0].ticks + 1));  // between two stamps
  points.push_back(Timestamp::PositiveInfinity());
  for (Timestamp t1 : points) {
    for (Timestamp t2 : points) {
      if (t2 < t1) continue;
      OemHistory window;
      for (const HistoryStep& step : whole.steps()) {
        if (t1 < step.time && step.time <= t2) {
          ASSERT_TRUE(window.Append(step.time, step.changes).ok());
        }
      }
      auto expected = DoemDatabase::Build(db.SnapshotAt(t1), window);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      auto got = Between(db, t1, t2);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->ToString(), expected->ToString())
          << "(" << t1.ToString() << ", " << t2.ToString() << "]";
    }
  }
}

TEST(TimeTravelTest, BetweenRejectsInvertedInterval) {
  DoemDatabase db = SampleDb(2);
  EXPECT_FALSE(Between(db, Timestamp(10), Timestamp(5)).ok());
}

}  // namespace
}  // namespace store
}  // namespace doem
