#include "store/store.h"

#include <sys/stat.h>

#include <utility>

#include "obs/clock.h"

namespace doem {
namespace store {

Store::Store(File* file, std::unique_ptr<File> owned,
             RecoveryResult recovered, const StoreOptions& options)
    : owned_file_(std::move(owned)),
      file_(file),
      options_(options),
      recovered_(std::move(recovered)),
      writer_(file, recovered_.valid_size, options.sync_each_append),
      times_(recovered_.times),
      started_(recovered_.has_state) {
  if (obs::MetricsRegistry* m = options_.metrics) {
    records_written_ = m->GetCounter(
        "store.records_written", "Log records appended (deltas + checkpoints)");
    checkpoints_written_ = m->GetCounter("store.checkpoints_written",
                                         "Checkpoint records appended");
    bytes_written_ =
        m->GetCounter("store.bytes_written", "Framed record bytes appended");
    fsyncs_ = m->GetCounter("store.fsyncs", "Successful sync operations");
    append_failures_ = m->GetCounter(
        "store.append_failures", "Commits refused or failed (store broken)");
    // Bumped from Open (before construction); registered here too so the
    // metric is visible in Describe()/exports from the first open, not
    // only after a truncating recovery.
    m->GetCounter("store.recovery_truncations",
                  "Opens that discarded a torn/corrupt tail");
    append_ns_ = m->GetHistogram("store.append_ns", obs::LatencyBucketsNs(),
                                 "Latency of one committed append");
    checkpoint_ns_ =
        m->GetHistogram("store.checkpoint_ns", obs::LatencyBucketsNs(),
                        "Latency of one checkpoint record write");
  }
}

Result<std::unique_ptr<Store>> Store::Open(File* file,
                                           const StoreOptions& options) {
  if (file == nullptr) {
    return Status::InvalidArgument("Store::Open: null file");
  }
  if (options.checkpoint_interval == 0) {
    return Status::InvalidArgument(
        "Store::Open: checkpoint_interval must be >= 1");
  }
  auto bytes = file->ReadAll();
  if (!bytes.ok()) return bytes.status();
  auto recovered = RecoverStoreBytes(*bytes);
  if (!recovered.ok()) return recovered.status();

  if (recovered->truncated) {
    if (options.metrics != nullptr) {
      options.metrics
          ->GetCounter("store.recovery_truncations",
                       "Opens that discarded a torn/corrupt tail")
          ->Increment();
    }
    DOEM_LOG_EVENT(options.events, obs::EventType::kStoreError,
                   obs::EventSeverity::kWarning,
                   recovered->times.empty() ? Timestamp{}
                                            : recovered->times.back(),
                   options.name,
                   "recovery discarded torn/corrupt tail after byte " +
                       std::to_string(recovered->valid_size));
  }

  // Repair: physically drop the torn/corrupt tail so appends resume on a
  // record boundary.
  if (recovered->valid_size < bytes->size()) {
    DOEM_RETURN_IF_ERROR(file->Truncate(recovered->valid_size));
    DOEM_RETURN_IF_ERROR(file->Sync());
  }

  std::unique_ptr<Store> store(
      new Store(file, nullptr, std::move(*recovered), options));
  if (store->writer_.offset() == 0) {
    // Brand-new (or fully torn) file: (re)write the magic header now so
    // the file identifies itself even before the first checkpoint.
    DOEM_RETURN_IF_ERROR(store->writer_.WriteHeader());
  }
  return store;
}

Result<std::unique_ptr<Store>> Store::Open(std::unique_ptr<File> file,
                                           const StoreOptions& options) {
  auto store = Open(file.get(), options);
  if (store.ok()) (*store)->owned_file_ = std::move(file);
  return store;
}

Status Store::AppendCheckpoint(const DoemDatabase& current) {
  int64_t start_ns = obs::NowNs();
  auto payload = EncodeCheckpointPayload(current, times_);
  if (!payload.ok()) return payload.status();
  uint64_t before = writer_.offset();
  DOEM_RETURN_IF_ERROR(writer_.AppendRecord(RecordType::kCheckpoint, *payload));
  deltas_since_checkpoint_ = 0;
  if (records_written_) records_written_->Increment();
  if (checkpoints_written_) checkpoints_written_->Increment();
  if (bytes_written_) bytes_written_->Increment(writer_.offset() - before);
  if (fsyncs_ && options_.sync_each_append) fsyncs_->Increment();
  if (checkpoint_ns_) checkpoint_ns_->Observe(obs::ElapsedNs(start_ns));
  return Status::OK();
}

Status Store::Start(const DoemDatabase& db, std::vector<Timestamp> times) {
  if (started_) {
    return Status::InvalidArgument(
        "Store::Start: store already has state (recovered or started)");
  }
  if (broken()) {
    if (append_failures_) append_failures_->Increment();
    return broken_status();
  }
  times_ = std::move(times);
  Status s = AppendCheckpoint(db);
  if (!s.ok()) {
    if (append_failures_) append_failures_->Increment();
    DOEM_LOG_EVENT(options_.events, obs::EventType::kStoreError,
                   obs::EventSeverity::kError, Timestamp{}, options_.name,
                   "initial checkpoint: " + s.ToString());
    return s;
  }
  started_ = true;
  return Status::OK();
}

Status Store::Append(Timestamp t, const ChangeSet& ops,
                     const DoemDatabase& current) {
  if (!started_) {
    return Status::InvalidArgument(
        "Store::Append: store has no state; call Start() first");
  }
  if (broken()) {
    if (append_failures_) append_failures_->Increment();
    return broken_status();
  }
  if (!times_.empty() && t <= times_.back()) {
    if (append_failures_) append_failures_->Increment();
    return Status::InvalidArgument(
        "Store::Append: time " + t.ToString() +
        " not after last committed time " + times_.back().ToString());
  }
  int64_t start_ns = obs::NowNs();
  uint64_t before = writer_.offset();
  Status s = writer_.AppendRecord(RecordType::kDelta, EncodeDeltaPayload(t, ops));
  if (!s.ok()) {
    if (append_failures_) append_failures_->Increment();
    DOEM_LOG_EVENT(options_.events, obs::EventType::kStoreError,
                   obs::EventSeverity::kError, t, options_.name,
                   "delta append failed (store now broken): " + s.ToString());
    return s;
  }
  times_.push_back(t);
  ++deltas_since_checkpoint_;
  if (records_written_) records_written_->Increment();
  if (bytes_written_) bytes_written_->Increment(writer_.offset() - before);
  if (fsyncs_ && options_.sync_each_append) fsyncs_->Increment();
  if (append_ns_) append_ns_->Observe(obs::ElapsedNs(start_ns));

  if (deltas_since_checkpoint_ >= options_.checkpoint_interval) {
    Status ckpt = AppendCheckpoint(current);
    if (!ckpt.ok()) {
      // The delta itself committed; only the redundant checkpoint
      // failed. The store is now broken (sticky), but this commit
      // stands — report it as such.
      if (append_failures_) append_failures_->Increment();
      DOEM_LOG_EVENT(options_.events, obs::EventType::kStoreError,
                     obs::EventSeverity::kError, t, options_.name,
                     "periodic checkpoint failed (store now broken; the "
                     "delta stands): " +
                         ckpt.ToString());
      return ckpt;
    }
  }
  return Status::OK();
}

Status Store::CommitCheckpoint(Timestamp t, const DoemDatabase& current) {
  if (!started_) {
    return Status::InvalidArgument(
        "Store::CommitCheckpoint: store has no state; call Start() first");
  }
  if (broken()) {
    if (append_failures_) append_failures_->Increment();
    return broken_status();
  }
  if (!times_.empty() && t <= times_.back()) {
    if (append_failures_) append_failures_->Increment();
    return Status::InvalidArgument(
        "Store::CommitCheckpoint: time " + t.ToString() +
        " not after last committed time " + times_.back().ToString());
  }
  times_.push_back(t);
  deltas_since_checkpoint_ = 0;
  Status s = AppendCheckpoint(current);
  if (!s.ok()) {
    if (append_failures_) append_failures_->Increment();
    DOEM_LOG_EVENT(options_.events, obs::EventType::kStoreError,
                   obs::EventSeverity::kError, t, options_.name,
                   "checkpoint commit failed (store now broken): " +
                       s.ToString());
  }
  return s;
}

Status Store::Sync() {
  Status s = writer_.Sync();
  if (s.ok() && fsyncs_) fsyncs_->Increment();
  return s;
}

// ---- Managers --------------------------------------------------------------

Result<std::unique_ptr<Store>> MemoryStoreManager::OpenStore(
    const std::string& key) {
  StoreOptions opts = options_;
  opts.name = key;
  return Store::Open(file(key), opts);
}

MemoryFile* MemoryStoreManager::file(const std::string& key) {
  auto it = files_.find(key);
  if (it == files_.end()) {
    it = files_.emplace(key, std::make_unique<MemoryFile>()).first;
  }
  return it->second.get();
}

namespace {

bool IsPortableKeyChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

}  // namespace

std::string DirectoryStoreManager::PathFor(const std::string& key) const {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string name;
  name.reserve(key.size());
  for (char c : key) {
    if (IsPortableKeyChar(c)) {
      name.push_back(c);
    } else {
      unsigned char b = static_cast<unsigned char>(c);
      name.push_back('%');
      name.push_back(kHex[b >> 4]);
      name.push_back(kHex[b & 0xF]);
    }
  }
  if (name.empty()) name = "%";
  return directory_ + "/" + name + ".doemstore";
}

Result<std::unique_ptr<Store>> DirectoryStoreManager::OpenStore(
    const std::string& key) {
  // Best-effort create, parents included ("a/b/c" needs "a" and "a/b");
  // Open reports a usable error if it still fails.
  for (size_t slash = directory_.find('/', 1); slash != std::string::npos;
       slash = directory_.find('/', slash + 1)) {
    ::mkdir(directory_.substr(0, slash).c_str(), 0755);
  }
  ::mkdir(directory_.c_str(), 0755);
  auto file = PosixFile::Open(PathFor(key));
  if (!file.ok()) return file.status();
  StoreOptions opts = options_;
  opts.name = key;
  return Store::Open(std::unique_ptr<File>(std::move(*file)), opts);
}

}  // namespace store
}  // namespace doem
