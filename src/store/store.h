#ifndef DOEM_STORE_STORE_H_
#define DOEM_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "doem/doem.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "store/file.h"
#include "store/log.h"
#include "store/recovery.h"

namespace doem {
namespace store {

struct StoreOptions {
  /// Write a fresh checkpoint record after this many delta records since
  /// the last checkpoint. Bounds cold-recovery replay work; 1 means
  /// every commit is a full checkpoint.
  size_t checkpoint_interval = 64;
  /// fsync after every record (per-commit durability). Turning this off
  /// batches durability at explicit Sync() points; a crash may then lose
  /// records past the last sync, but recovery still yields a committed
  /// prefix.
  bool sync_each_append = true;
  /// Optional: store.* counters and latency histograms land here.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional: recovery truncations and append failures land here as
  /// typed kStoreError events (src/obs/log.h), with `name` as subject.
  obs::EventLog* events = nullptr;
  /// Diagnostic identity of this store (the store managers stamp the
  /// store key); only used as the subject of event-log entries.
  std::string name;
};

/// A durable DOEM history: one append-only file of checkpoint + delta
/// records (format.h). Open() recovers the committed prefix and repairs
/// the file (truncating any torn/corrupt tail) so appends can resume;
/// Append() commits one (t, U) change set per call.
///
/// Failure model: any append/sync failure marks the store *broken* —
/// every later Append returns the original error, because the file tail
/// is undefined after a torn write. The in-memory database the caller
/// maintains is unaffected; callers choose availability over durability
/// (QSS keeps polling and surfaces the error) or stop. Reopening the
/// file (a new Open) re-recovers and repairs.
class Store {
 public:
  /// Opens a store over `file` (not owned; must outlive the Store).
  /// Recovers the committed prefix, physically truncates the torn tail
  /// if any, and writes the magic header if the file is empty.
  static Result<std::unique_ptr<Store>> Open(File* file,
                                             const StoreOptions& options);
  /// As above, taking ownership of the file.
  static Result<std::unique_ptr<Store>> Open(std::unique_ptr<File> file,
                                             const StoreOptions& options);

  /// True when recovery found committed state: recovered_db() /
  /// recovered_times() return it and Append may be called directly.
  /// False for a brand-new (or fully torn) file: call Start() first.
  bool has_state() const { return recovered_.has_state; }

  /// How recovery went (truncation flags, record counts, valid size).
  const RecoveryResult& recovery() const { return recovered_; }

  /// The recovered state. Valid only when has_state(); the database is
  /// *moved out* (it can be large) — callable once.
  DoemDatabase TakeRecoveredDb() { return std::move(recovered_.db); }
  const std::vector<Timestamp>& recovered_times() const {
    return recovered_.times;
  }

  /// Initializes an empty store with a base state: writes the initial
  /// checkpoint of `db` (+ `times`, for histories that already have
  /// committed steps). Requires !has_state().
  Status Start(const DoemDatabase& db, std::vector<Timestamp> times = {});

  /// Commits one change set: appends a delta record for (t, ops), then —
  /// every checkpoint_interval deltas — a checkpoint of `current`, which
  /// must be the database *after* applying (t, ops). `t` must exceed
  /// every committed time.
  Status Append(Timestamp t, const ChangeSet& ops,
                const DoemDatabase& current);

  /// Commits one time whose new state is *not* expressible as a delta on
  /// the previous record — e.g. the QSS two-snapshot step
  /// (DoemDatabase::RebaseAndApply), which drops the previous step's
  /// history each poll. Appends `t` to the committed times and writes a
  /// checkpoint of `current` (the state after the commit at `t`).
  Status CommitCheckpoint(Timestamp t, const DoemDatabase& current);

  /// Durability point when options.sync_each_append is false.
  Status Sync();

  /// Sticky failure state (see class comment).
  bool broken() const { return writer_.broken(); }
  const Status& broken_status() const { return writer_.broken_status(); }

  /// Commit times of every record written or recovered, in order.
  const std::vector<Timestamp>& times() const { return times_; }
  /// Current file length in committed bytes.
  uint64_t size() const { return writer_.offset(); }

 private:
  Store(File* file, std::unique_ptr<File> owned, RecoveryResult recovered,
        const StoreOptions& options);

  Status AppendCheckpoint(const DoemDatabase& current);

  std::unique_ptr<File> owned_file_;
  File* file_;
  StoreOptions options_;
  RecoveryResult recovered_;
  LogWriter writer_;
  /// All committed times (recovered + appended); mirrors what the next
  /// checkpoint must carry.
  std::vector<Timestamp> times_;
  /// Deltas since the last checkpoint record.
  size_t deltas_since_checkpoint_ = 0;
  bool started_ = false;

  // store.* instruments (null when options.metrics is null).
  obs::Counter* records_written_ = nullptr;
  obs::Counter* checkpoints_written_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* fsyncs_ = nullptr;
  obs::Counter* append_failures_ = nullptr;
  obs::Histogram* append_ns_ = nullptr;
  obs::Histogram* checkpoint_ns_ = nullptr;
};

/// Opens the durable medium behind named stores. QSS asks its manager
/// for one store per poll group; the manager owns the medium (bytes or
/// files), each Open returns a *fresh* Store re-recovered from it — so a
/// "crashed" process is simulated by dropping the Store and opening
/// another over the same manager.
class StoreManager {
 public:
  virtual ~StoreManager() = default;

  /// Opens (creating if new) the store for `key`. Each call re-runs
  /// recovery over the current medium contents.
  virtual Result<std::unique_ptr<Store>> OpenStore(const std::string& key) = 0;
};

/// Keeps each store's bytes in an in-process map: the "disk" that
/// survives simulated crashes in tests. `file(key)` exposes the backing
/// MemoryFile for corruption/inspection.
class MemoryStoreManager : public StoreManager {
 public:
  explicit MemoryStoreManager(StoreOptions options = {})
      : options_(options) {}

  Result<std::unique_ptr<Store>> OpenStore(const std::string& key) override;

  /// The backing file for `key` (created on first use). Owned by the
  /// manager; tests may corrupt its bytes between OpenStore calls.
  MemoryFile* file(const std::string& key);

  StoreOptions* mutable_options() { return &options_; }

 private:
  StoreOptions options_;
  std::map<std::string, std::unique_ptr<MemoryFile>> files_;
};

/// One file per key under a directory: "<dir>/<sanitized key>.doemstore".
/// Key bytes outside [A-Za-z0-9._-] are %XX-escaped so distinct keys
/// (e.g. QSS group keys embedding '\x1f') map to distinct, portable
/// file names.
class DirectoryStoreManager : public StoreManager {
 public:
  DirectoryStoreManager(std::string directory, StoreOptions options = {})
      : directory_(std::move(directory)), options_(options) {}

  Result<std::unique_ptr<Store>> OpenStore(const std::string& key) override;

  /// The file path a key maps to (for tests and tooling).
  std::string PathFor(const std::string& key) const;

 private:
  std::string directory_;
  StoreOptions options_;
};

}  // namespace store
}  // namespace doem

#endif  // DOEM_STORE_STORE_H_
