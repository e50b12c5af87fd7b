#ifndef DOEM_OBS_METRICS_H_
#define DOEM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace doem {
namespace obs {

/// A monotonically increasing event count. Updates are lock-free and
/// safe from any thread (including QSS executor threads).
class Counter {
 public:
  void Increment(uint64_t by = 1) {
    value_.fetch_add(by, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (circuit states, cache sizes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram: `bounds` are ascending inclusive upper
/// bounds; one implicit overflow bucket (+Inf) follows. Observations are
/// lock-free; the snapshot accessors read relaxed-atomic counters, so a
/// snapshot taken while writers run is per-cell consistent (sum/count
/// may momentarily disagree by in-flight observations — the exporters
/// are meant for quiescent or monitoring reads, not invariants).
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  void Observe(int64_t v);

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1.
  std::vector<uint64_t> bucket_counts() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<int64_t> bounds_;
  std::vector<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Null-tolerant updates for instrument pointers, which are null when no
/// MetricsRegistry is configured.
inline void Count(Counter* c, uint64_t by = 1) {
  if (c != nullptr && by > 0) c->Increment(by);
}

inline void SetGauge(Gauge* g, int64_t v) {
  if (g != nullptr) g->Set(v);
}

inline void AddGauge(Gauge* g, int64_t delta) {
  if (g != nullptr) g->Add(delta);
}

inline void Observe(Histogram* h, int64_t v) {
  if (h != nullptr) h->Observe(v);
}

/// Default bucket bounds for nanosecond latency histograms: powers of
/// four from 1us to ~4.3s.
const std::vector<int64_t>& LatencyBucketsNs();

/// A named registry of counters, gauges, and histograms (DESIGN.md §6d).
///
/// Get* registers on first use and returns the existing instrument on
/// subsequent calls; returned pointers are stable for the registry's
/// lifetime, so hot paths resolve each name once and update through the
/// cached pointer. Registration takes a lock; updates do not. Asking for
/// a name that exists with a different kind (or a histogram with
/// different bounds) returns null — the caller's metric is silently
/// disabled rather than corrupting someone else's.
///
/// Metric names use dotted lowercase ("qss.polls_ok"); the Prometheus
/// exporter maps them to the exposition charset ("qss_polls_ok").
/// Registration validates the name against that charset — a lowercase
/// letter first, then [a-z0-9_.] with no empty dotted segment — and
/// aborts on violation: a misspelled registration is a programming
/// error, and failing at first use beats a silently unexportable metric.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<int64_t>& bounds,
                          const std::string& help = "");

  /// True iff `name` passes registration validation (see class comment).
  static bool ValidName(const std::string& name);

  /// Prometheus text exposition format (one # HELP / # TYPE block per
  /// metric, histograms with cumulative le-buckets), names sorted.
  std::string ExportPrometheus() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms":
  /// {...}}, names sorted — the form scripts/bench.sh and the dashboard
  /// example consume.
  std::string ExportJson() const;

  /// Point-in-time value lookups for tests and examples; 0 / empty when
  /// the name is unknown or of another kind.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;
  uint64_t HistogramCount(const std::string& name) const;

  /// What is registered, without values — name order. Feeds the
  /// generated METRICS.md reference (tests/metrics_doc_test.cc).
  struct MetricInfo {
    std::string name;
    /// "counter" | "gauge" | "histogram".
    std::string kind;
    std::string help;
  };
  std::vector<MetricInfo> Describe() const;

  /// Scalar values of every counter and gauge at one instant — the raw
  /// material MetricsSnapshotter diffs into interval rates. Histograms
  /// are represented by their total observation count (rates of events,
  /// not of latency).
  struct Values {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    /// name -> count() per histogram.
    std::map<std::string, uint64_t> histogram_counts;
  };
  Values CurrentValues() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;
  // Ordered so the exporters are deterministic without re-sorting.
  std::map<std::string, Entry> entries_;
};

}  // namespace obs
}  // namespace doem

#endif  // DOEM_OBS_METRICS_H_
