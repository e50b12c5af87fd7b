#include "bench.h"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <unordered_map>

#include "store/format.h"

namespace doem {
namespace qssbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

size_t Samples::Beyond(double p) const {
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * values_.size()));
  return values_.size() - std::min(rank, values_.size());
}

void StreamDigest::Add(int64_t poll_ticks, uint64_t poll_index,
                       std::string_view rows) {
  auto mix = [this](const void* data, size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ull;
    }
  };
  uint64_t size = rows.size();
  mix(&poll_ticks, sizeof poll_ticks);
  mix(&poll_index, sizeof poll_index);
  mix(&size, sizeof size);
  mix(rows.data(), rows.size());
  ++count;
}

void Ledger::Span(const std::string& layer, const std::string& parent,
                  int64_t start_ns, int64_t end_ns,
                  std::optional<Timestamp> sim, bool emit) {
  const int64_t duration = end_ns - start_ns;
  const std::thread::id self = std::this_thread::get_id();
  {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t children = 0;
    auto it = child_ns_.find({self, layer});
    if (it != child_ns_.end()) {
      children = it->second;
      child_ns_.erase(it);
    }
    if (!parent.empty()) child_ns_[{self, parent}] += duration;
    Totals& totals = totals_[layer];
    ++totals.calls;
    totals.total_us += Us(duration);
    totals.self_us += Us(duration - children);
    samples_[layer].Add(Us(duration));
  }
  if (emit) {
    obs::TraceEvent event;
    event.name = layer;
    event.category = "qssbench";
    event.start_ns = start_ns;
    event.duration_ns = duration;
    event.sim = sim;
    recorder_.Record(std::move(event));
  }
}

void Ledger::Sample(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].Add(value);
}

void Ledger::Count(const std::string& name, double by) {
  std::lock_guard<std::mutex> lock(mu_);
  counts_[name] += by;
}

Samples Ledger::SamplesOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = samples_.find(name);
  return it == samples_.end() ? Samples() : it->second;
}

double Ledger::CountOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

std::map<std::string, Ledger::Totals> Ledger::AllTotals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

void Ledger::BeginTick(int64_t store_ns) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    child_ns_.clear();
  }
  cursor = TickCursor{};
  cursor.store_ns = store_ns;
}

namespace {
thread_local const std::string* current_parent = &kNoSpan;
}  // namespace

const std::string& CurrentParent() { return *current_parent; }

ParentScope::ParentScope(const std::string& parent) : saved_(current_parent) {
  current_parent = &parent;
}

ParentScope::~ParentScope() { current_parent = saved_; }

Result<OemDatabase> TimingSource::PollForGroup(const std::string& group_key,
                                               const std::string& query,
                                               Timestamp now) {
  const std::string& parent = CurrentParent();
  if (parent != kTickSpan && parent != kPrepareSpan) {
    return inner_->PollForGroup(group_key, query, now);  // set-up, untimed
  }
  const int64_t start = NowNs();
  auto polled = inner_->PollForGroup(group_key, query, now);
  const int64_t end = NowNs();
  ledger_->Span("qss.fetch", parent, start, end, now);
  if (parent == kTickSpan) ledger_->cursor.inline_prepare = true;
  return polled;
}

void TimingExecutor::ParallelFor(size_t n,
                                 const std::function<void(size_t)>& task) {
  if (CurrentParent() != kTickSpan) {
    inner_->ParallelFor(n, task);  // set-up, untimed
    return;
  }
  const int64_t wave_start = NowNs();
  inner_->ParallelFor(n, [&](size_t i) {
    const int64_t start = NowNs();
    {
      ParentScope scope(kPrepareSpan);
      task(i);
    }
    const int64_t end = NowNs();
    ledger_->Sample("qss.prepare_wait", Us(start - wave_start));
    // The calling thread helps drain the wave; its tasks nest under the
    // wave span, the pool threads' tasks stand alone.
    ledger_->Span(kPrepareSpan, ledger_->OnMainThread() ? kWaveSpan : kNoSpan,
                  start, end);
  });
  ledger_->Span(kWaveSpan, kTickSpan, wave_start, NowNs());
}

void TimingFanout::FanOut(qss::PollGroup* group, Timestamp t,
                          qss::PollReport* report) {
  if (CurrentParent() != kTickSpan) {
    inner_->FanOut(group, t, report);  // set-up, untimed
    return;
  }
  const int64_t start = NowNs();
  // The report and the stores accumulate over the tick: what they gained
  // since the previous group's fan-out is this group's. These spans are
  // placed by their measured durations, back to back before the fan-out;
  // tick time outside every span is left unattributed.
  Ledger::TickCursor& cursor = ledger_->cursor;
  const int64_t store_ns = stores_ != nullptr ? stores_->CommitNs() : 0;
  const int64_t commit_ns =
      (report->apply_ns - cursor.apply_ns) + (store_ns - cursor.store_ns);
  if (cursor.inline_prepare) {
    const int64_t diff_end = start - commit_ns;
    ledger_->Span(kDiffSpan, kTickSpan,
                  diff_end - (report->diff_ns - cursor.diff_ns), diff_end, t);
    cursor.inline_prepare = false;
  }
  cursor.diff_ns = report->diff_ns;
  cursor.apply_ns = report->apply_ns;
  cursor.store_ns = store_ns;
  ledger_->Span(kCommitSpan, kTickSpan, start - commit_ns, start, t);
  {
    ParentScope scope(kFanoutSpan);
    inner_->FanOut(group, t, report);
  }
  ledger_->Span(kFanoutSpan, kTickSpan, start, NowNs(), t);
}

Status CountingFile::Append(std::string_view data) {
  const int64_t start = ledger_ != nullptr ? NowNs() : 0;
  Status appended = inner_.Append(data);
  // Appends inside a tick come from the group's commit.
  if (ledger_ != nullptr && CurrentParent() == kTickSpan) {
    ledger_->Span("store.append", kCommitSpan, start, NowNs());
  }
  bytes_ += data.size();
  // A record is | length u32 | crc32 u32 | type u8 | payload |; the only
  // other append is the 8-byte file header.
  if (data.size() > store::kRecordHeaderSize) {
    auto type = static_cast<store::RecordType>(
        static_cast<uint8_t>(data[store::kRecordHeaderSize]));
    if (type == store::RecordType::kCheckpoint) {
      checkpoint_bytes_ += data.size();
    } else if (ledger_ != nullptr) {
      last_delta_.assign(data);
    }
  }
  return appended;
}

Status CountingFile::Sync() {
  ++syncs_;
  return inner_.Sync();
}

BenchStoreManager::BenchStoreManager(Ledger* ledger) : ledger_(ledger) {
  if (ledger_ != nullptr) {
    // The stores observe into these when they open on this registry.
    append_ns_ =
        metrics_.GetHistogram("store.append_ns", obs::LatencyBucketsNs());
    checkpoint_ns_ =
        metrics_.GetHistogram("store.checkpoint_ns", obs::LatencyBucketsNs());
  }
}

Result<std::unique_ptr<store::Store>> BenchStoreManager::OpenStore(
    const std::string& key) {
  std::unique_ptr<CountingFile>& file = files_[key];
  if (file == nullptr) file = std::make_unique<CountingFile>(ledger_);
  store::StoreOptions options;
  options.name = key;
  if (ledger_ != nullptr) options.metrics = &metrics_;
  return store::Store::Open(file.get(), options);
}

const CountingFile* BenchStoreManager::file(const std::string& key) const {
  auto it = files_.find(key);
  return it == files_.end() ? nullptr : it->second.get();
}

int64_t BenchStoreManager::CommitNs() const {
  int64_t ns = 0;
  if (append_ns_ != nullptr) ns += append_ns_->sum();
  if (checkpoint_ns_ != nullptr) ns += checkpoint_ns_->sum();
  return ns;
}

Machine ThisMachine() {
  Machine machine;
  cpu_set_t set;
  CPU_ZERO(&set);
  machine.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                      ? static_cast<unsigned>(CPU_COUNT(&set))
                      : std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    size_t colon = line.find(':');
    if (colon != std::string::npos) {
      machine.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
    }
    break;
  }
  if (machine.cpu_model.empty()) machine.cpu_model = "unknown";
  machine.build_type = QSSBENCH_BUILD_TYPE;
  return machine;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int64_t ProcessCpuNs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double ReferenceUs() {
  static volatile uint64_t sink = 0;
  struct timespec ts;
  auto thread_cpu_ns = [&ts] {
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
  };
  const int64_t start = thread_cpu_ns();
  uint64_t x = 88172645463325252ull;  // xorshift64, the same every call
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // A labelled graph of a few megabytes: build it, walk it breadth-first,
  // copy it, and index the reachable nodes by label.
  struct Node {
    std::string label;
    std::vector<uint32_t> out;
  };
  constexpr uint32_t kNodes = 12000;
  static const char* const kLabels[] = {"restaurant", "name",   "price",
                                        "address",    "parking", "street",
                                        "city",       "zip"};
  std::vector<Node> nodes(kNodes);
  for (uint32_t i = 0; i < kNodes; ++i) {
    nodes[i].label = std::string(kLabels[next() % 8]) + "#" +
                     std::to_string(i);
    for (int e = 0; e < 3; ++e) {
      nodes[i].out.push_back(static_cast<uint32_t>(next() % kNodes));
    }
  }
  std::unordered_map<uint32_t, uint32_t> depth{{0, 0}};
  std::vector<uint32_t> frontier{0};
  for (size_t f = 0; f < frontier.size(); ++f) {
    const uint32_t next_depth = depth[frontier[f]] + 1;
    for (uint32_t child : nodes[frontier[f]].out) {
      if (depth.emplace(child, next_depth).second) frontier.push_back(child);
    }
  }
  const std::vector<Node> copy = nodes;
  std::map<std::string, uint32_t> by_label;
  for (uint32_t id : frontier) by_label.emplace(copy[id].label, id);
  uint64_t acc = depth.size();
  for (const auto& [label, id] : by_label) acc += id ^ label.size();
  sink = sink + acc;
  return Us(thread_cpu_ns() - start);
}

double RelativeCost::LocalReference(size_t references_before) const {
  const size_t n = reference_us_.size();
  const size_t k = std::min(kLocalReferences, n);
  const size_t first =
      std::min(references_before - std::min(references_before, k / 2), n - k);
  std::vector<double> near(reference_us_.begin() + first,
                           reference_us_.begin() + first + k);
  std::sort(near.begin(), near.end());
  return k % 2 == 1 ? near[k / 2] : (near[k / 2 - 1] + near[k / 2]) / 2;
}

void RelativeCost::EndEpoch() {
  if (!reference_us_.empty() && !ops_.empty()) {
    Samples epoch;
    for (double r : reference_us_) epoch.Add(r);
    epoch_reference_us_.Add(epoch.Median());
    for (const Op& op : ops_) {
      relative_.Add(op.cpu_us / LocalReference(op.references_before));
    }
    if (setup_cpu_s_ > 0) {
      setup_s_.Add(setup_cpu_s_ * kNominalReferenceUs / LocalReference(0));
    }
  }
  reference_us_.clear();
  ops_.clear();
  setup_cpu_s_ = 0;
}

int PoolThreads() {
  int lanes = std::min<int>(static_cast<int>(ThisMachine().nproc), 4);
  return std::max(1, lanes - 1);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

const Report::Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Fail(std::string what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(what));
}

void Report::SetPercentile(const std::string& name, const Samples& samples,
                           double p, const std::string& unit) {
  if (samples.Beyond(p) >= 10) Set(name, samples.Percentile(p), unit);
}

void Report::SetMedian(const std::string& name, const Ledger& ledger,
                       const std::string& layer, const std::string& unit,
                       double scale) {
  Samples samples = ledger.SamplesOf(layer);
  if (samples.size() > 0) Set(name, samples.Median() * scale, unit);
}

void Report::SetRatio(const std::string& name, double num, double den,
                      const std::string& unit) {
  if (den > 0) Set(name, num / den, unit);
}

void RunEpochs(double seconds, size_t min_ops,
               const std::function<size_t()>& epoch) {
  // Well inside the 180 s a run may take, whatever `seconds` asks for.
  constexpr double kCapSeconds = 120;
  const int64_t start = NowNs();
  size_t ops = 0;
  while (true) {
    size_t measured = epoch();
    ops += measured;
    double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (measured == 0 || elapsed >= kCapSeconds) return;
    if (elapsed >= seconds && ops >= min_ops) return;
  }
}

}  // namespace qssbench
}  // namespace doem
