// Measurement helpers shared by the QSS benchmark's workloads: sample
// sets, the traced run's per-layer ledger, the decorators that time calls
// into each layer from outside the library, and the machine stamp.
#ifndef QSSBENCH_BENCH_H_
#define QSSBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qss/executor.h"
#include "qss/poll_group.h"
#include "qss/source.h"
#include "store/file.h"
#include "store/store.h"

namespace doem {
namespace qssbench {

using obs::NowNs;

inline double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Measured values of one quantity. Percentiles are nearest-rank.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// The p-th percentile, 0 < p <= 100; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  /// How many samples rank above the p-th percentile.
  size_t Beyond(double p) const;

 private:
  std::vector<double> values_;
};

/// Order-sensitive FNV-1a over one subscriber's notification stream. A
/// wire client's decoded stream and an in-process subscriber's stream on
/// the same filter must hash the same.
struct StreamDigest {
  uint64_t hash = 1469598103934665603ull;
  uint64_t count = 0;

  void Add(int64_t poll_ticks, uint64_t poll_index, std::string_view rows);
  bool operator==(const StreamDigest&) const = default;
};

/// Span names that other spans nest under.
inline const std::string kNoSpan;
inline const std::string kTickSpan = "tick";
inline const std::string kWaveSpan = "qss.wave_prepare";
inline const std::string kPrepareSpan = "qss.prepare";
inline const std::string kDiffSpan = "qss.diff";
inline const std::string kCommitSpan = "qss.commit";
inline const std::string kFanoutSpan = "qss.fanout";

/// The traced run's record of every call the benchmark timed. Spans go to
/// an in-memory obs::TraceRecorder, written as Chrome trace JSON at exit;
/// per-call durations, self times and counts stay here for the layer
/// table. Callable from executor threads.
class Ledger {
 public:
  struct Totals {
    uint64_t calls = 0;
    double total_us = 0;
    /// Duration minus the same-thread spans recorded with this span as
    /// their parent.
    double self_us = 0;
  };

  /// Records `layer` over [start_ns, end_ns) as a child of `parent`
  /// (kNoSpan for none). Children are recorded before their parent.
  /// `emit` false keeps a high-volume span out of the Chrome trace.
  void Span(const std::string& layer, const std::string& parent,
            int64_t start_ns, int64_t end_ns,
            std::optional<Timestamp> sim = std::nullopt, bool emit = true);
  /// A per-call value that is not a duration.
  void Sample(const std::string& name, double value);
  /// Adds to a running total.
  void Count(const std::string& name, double by);

  Samples SamplesOf(const std::string& name) const;
  double CountOf(const std::string& name) const;
  std::map<std::string, Totals> AllTotals() const;

  std::string ChromeTrace() const { return recorder_.ExportChromeTrace(); }
  uint64_t dropped() const { return recorder_.dropped(); }

  bool OnMainThread() const { return std::this_thread::get_id() == main_; }

  /// What the current tick has attributed so far. Polling thread only.
  struct TickCursor {
    /// Set by a fetch made on the polling thread: a single-group wave
    /// prepares inline, so its OEMdiff runs on the polling thread too.
    bool inline_prepare = false;
    /// The tick's PollReport::diff_ns and apply_ns, and the stores'
    /// commit time, as of the previous group's fan-out.
    int64_t diff_ns = 0;
    int64_t apply_ns = 0;
    int64_t store_ns = 0;
  };

  /// Starts a tick on the polling thread: forgets child time left over
  /// from outside ticks and resets the cursor. `store_ns` is the stores'
  /// commit time so far (BenchStoreManager::CommitNs).
  void BeginTick(int64_t store_ns);

  TickCursor cursor;

 private:
  obs::TraceRecorder recorder_{1 << 17};
  const std::thread::id main_ = std::this_thread::get_id();
  mutable std::mutex mu_;
  std::map<std::string, Samples> samples_;
  std::map<std::string, double> counts_;
  std::map<std::string, Totals> totals_;
  /// Child time recorded so far under each (thread, parent) still open.
  std::map<std::pair<std::thread::id, std::string>, int64_t> child_ns_;
};

/// The span a call made on this thread now nests under: kTickSpan on the
/// polling thread during a tick, kPrepareSpan inside an executor task,
/// kFanoutSpan during a fan-out, kNoSpan otherwise.
const std::string& CurrentParent();

/// Sets CurrentParent() for its lifetime. `parent` must outlive it.
class ParentScope {
 public:
  explicit ParentScope(const std::string& parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  const std::string* saved_;
};

/// The fetch layer: times InformationSource::PollForGroup.
class TimingSource : public qss::InformationSource {
 public:
  TimingSource(qss::InformationSource* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  Result<OemDatabase> Poll(const std::string& query, Timestamp now) override {
    return inner_->Poll(query, now);
  }
  Result<OemDatabase> PollForGroup(const std::string& group_key,
                                   const std::string& query,
                                   Timestamp now) override;
  bool PreservesIds() const override { return inner_->PreservesIds(); }
  int64_t LastPollDurationTicks() const override {
    return inner_->LastPollDurationTicks();
  }

 private:
  qss::InformationSource* inner_;
  Ledger* ledger_;
};

/// The prepare stage of a many-group wave: times each executor task, and
/// its wait from the start of the wave. (A single-group wave runs inline
/// and never reaches the executor.)
class TimingExecutor : public qss::Executor {
 public:
  TimingExecutor(qss::Executor* inner, Ledger* ledger)
      : inner_(inner), ledger_(ledger) {}

  void ParallelFor(size_t n, const std::function<void(size_t)>& task) override;
  int concurrency() const override { return inner_->concurrency(); }

 private:
  qss::Executor* inner_;
  Ledger* ledger_;
};

class BenchStoreManager;

/// Commit and fan-out, installed with PollGroupManager::set_fanout in
/// front of the registry. A group's commit span is the time the library
/// measured for it: its DOEM apply with the cache patch
/// (PollReport::apply_ns) plus its store appends and checkpoints. A group
/// prepared inline also gets its OEMdiff span (PollReport::diff_ns). The
/// fan-out span is the call itself.
class TimingFanout : public qss::GroupFanout {
 public:
  /// `stores` is null when the groups have no store.
  TimingFanout(qss::GroupFanout* inner, Ledger* ledger,
               const BenchStoreManager* stores)
      : inner_(inner), ledger_(ledger), stores_(stores) {}

  void FanOut(qss::PollGroup* group, Timestamp t,
              qss::PollReport* report) override;

 private:
  qss::GroupFanout* inner_;
  Ledger* ledger_;
  const BenchStoreManager* stores_;
};

/// The store's medium: an in-memory file that counts appended bytes,
/// checkpoint bytes and syncs. In a traced run (non-null ledger) it times
/// each append made inside a tick and keeps the last delta record.
class CountingFile : public store::File {
 public:
  explicit CountingFile(Ledger* ledger) : ledger_(ledger) {}

  Status Append(std::string_view data) override;
  Status Sync() override;
  Result<std::string> ReadAll() const override { return inner_.ReadAll(); }
  Result<uint64_t> Size() const override { return inner_.Size(); }
  Status Truncate(uint64_t size) override { return inner_.Truncate(size); }

  const std::string& data() const { return inner_.data(); }
  uint64_t bytes() const { return bytes_; }
  uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }
  uint64_t syncs() const { return syncs_; }
  /// The framed delta record appended last (traced runs only).
  const std::string& last_delta() const { return last_delta_; }

 private:
  Ledger* ledger_;
  store::MemoryFile inner_;
  uint64_t bytes_ = 0;
  uint64_t checkpoint_bytes_ = 0;
  uint64_t syncs_ = 0;
  std::string last_delta_;
};

/// Gives each poll group a CountingFile-backed store at the default
/// StoreOptions: a checkpoint every 64 deltas, a sync on every append.
/// In a traced run the stores also time their commits.
class BenchStoreManager : public store::StoreManager {
 public:
  explicit BenchStoreManager(Ledger* ledger);

  Result<std::unique_ptr<store::Store>> OpenStore(
      const std::string& key) override;
  /// The file behind `key`; null if no store was opened for it.
  const CountingFile* file(const std::string& key) const;
  /// Nanoseconds the stores have spent in committed delta appends and
  /// checkpoints, record encoding included; 0 in an untraced run.
  int64_t CommitNs() const;

 private:
  Ledger* ledger_;
  std::map<std::string, std::unique_ptr<CountingFile>> files_;
  obs::MetricsRegistry metrics_;
  const obs::Histogram* append_ns_ = nullptr;
  const obs::Histogram* checkpoint_ns_ = nullptr;
};

/// Where a result was measured.
struct Machine {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
};
Machine ThisMachine();

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// CPU time this process has used so far, all threads, in nanoseconds.
/// Unlike the wall clock it leaves out the time a virtual CPU waits,
/// descheduled, for its host (steal time), which on a shared host can
/// stretch a wall-clock interval well beyond the work it holds.
int64_t ProcessCpuNs();

/// Runs a fixed single-threaded piece of work shaped like the stack's own —
/// a labelled graph of a few megabytes built from short strings, walked
/// with a hash map, copied, and indexed in an ordered map — that no change
/// to the library touches, and returns its CPU time in microseconds. On a
/// shared host the CPU runs faster or slower for seconds to minutes at a
/// time (clock speed, neighbours on the same core and cache), and CPU time
/// stretches with it; the same work, taken next to the operations,
/// measures by how much.
double ReferenceUs();

/// The reference work's CPU time, us, on the 4-vCPU Xeon host the
/// benchmark was calibrated on, in its faster phases. Set-up times are
/// scaled to a host on which the reference work takes this long.
constexpr double kNominalReferenceUs = 7000;

/// Operation costs relative to the reference work: each operation's CPU
/// time divided by the median of the kLocalReferences ReferenceUs() runs
/// taken nearest it in the same epoch, so that a slower host phase
/// stretches both sides of the ratio. The host's speed changes within
/// seconds, so an epoch-wide median would leave a run's tail percentiles
/// depending on how often the speed changed during it.
class RelativeCost {
 public:
  static constexpr size_t kLocalReferences = 5;

  /// Runs the reference work once and keeps its time for this epoch.
  void Reference() { reference_us_.push_back(ReferenceUs()); }
  void AddOp(double cpu_us) { ops_.push_back({cpu_us, reference_us_.size()}); }
  /// Keeps the epoch's set-up CPU time, s; it is scaled by the epoch's
  /// first references.
  void AddSetup(double cpu_s) { setup_cpu_s_ = cpu_s; }
  /// Divides the epoch's operations and set-up by their local reference
  /// times and starts a new epoch.
  void EndEpoch();
  const Samples& relative() const { return relative_; }
  /// Each epoch's set-up CPU time, s, scaled by kNominalReferenceUs over
  /// its local reference time.
  const Samples& setup_s() const { return setup_s_; }
  /// Median reference time of every epoch so far, us.
  const Samples& reference_us() const { return epoch_reference_us_; }

 private:
  struct Op {
    double cpu_us;
    /// Reference runs taken before this operation in its epoch.
    size_t references_before;
  };
  /// Median of the kLocalReferences runs nearest a point that follows
  /// `references_before` runs: about half before it and half after, the
  /// window shifted inward at the epoch's ends.
  double LocalReference(size_t references_before) const;

  std::vector<double> reference_us_;
  std::vector<Op> ops_;
  double setup_cpu_s_ = 0;
  Samples relative_;
  Samples setup_s_;
  Samples epoch_reference_us_;
};

/// Worker threads for the parallel prepare stage: min(nproc, 4) - 1, at
/// least 1 (the calling thread helps, so that makes min(nproc, 4) lanes).
int PoolThreads();

/// One run's outcome: every metric by name, and the operation tallies
/// behind error_ratio.
struct Report {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The first few failures, for the printed report.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  void Fail(std::string what);
  /// Sets `name` to the p-th percentile of `samples` when at least ten
  /// samples rank beyond it.
  void SetPercentile(const std::string& name, const Samples& samples,
                     double p, const std::string& unit);
  /// Sets `name` to the median of the ledger's `layer` samples times
  /// `scale`, when there are any.
  void SetMedian(const std::string& name, const Ledger& ledger,
                 const std::string& layer, const std::string& unit,
                 double scale = 1);
  /// Sets `name` to num / den when den > 0.
  void SetRatio(const std::string& name, double num, double den,
                const std::string& unit);
};

/// Runs `epoch`, which returns the operations it measured, until
/// `seconds` of wall time have passed and at least `min_ops` operations
/// were measured: at least once, never starting an epoch after a hard cap
/// that keeps the run well inside its time limit, and stopping early if an
/// epoch measured nothing.
void RunEpochs(double seconds, size_t min_ops,
               const std::function<size_t()>& epoch);

}  // namespace qssbench
}  // namespace doem

#endif  // QSSBENCH_BENCH_H_
