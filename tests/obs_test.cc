// Observability layer tests (DESIGN.md §6d): metric instruments and the
// registry (including concurrent updates under the thread-pool executor
// — run in the TSan lane), the clock shim, RAII trace spans and the
// Chrome trace-event export's golden structure, evaluator EvalStats, and
// the end-to-end guarantee that attaching metrics/tracing to QSS
// perturbs nothing: histories, rows, and notifications are
// byte-identical with obs on vs. off (an oracle instance).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chorel/chorel.h"
#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle.h"
#include "qss/executor.h"
#include "testing/generators.h"

namespace doem {
namespace {

// ------------------------------------------------- mini JSON parser
//
// Just enough JSON to validate the exporters' output: objects, arrays,
// strings (with \uXXXX left undecoded), numbers, booleans, null. Parse
// errors surface as ok=false, not crashes.

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool Has(const std::string& key) const { return object.contains(key); }
  const Json& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(Json* out) {
    bool ok = Value(out);
    SkipWs();
    return ok && pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Value(Json* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->string);
    }
    if (Literal("true")) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = Json::Kind::kBool;
      return true;
    }
    if (Literal("null")) return true;
    return Number(out);
  }
  bool String(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        out->push_back(text_[pos_ + 1]);
        pos_ += 2;
      } else {
        out->push_back(text_[pos_]);
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number(Json* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = Json::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }
  bool Array(Json* out) {
    out->kind = Json::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json element;
      if (!Value(&element)) return false;
      out->array.push_back(std::move(element));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Object(Json* out) {
    out->kind = Json::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || !String(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      Json value;
      if (!Value(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ------------------------------------------------------- instruments

TEST(MetricsTest, CounterGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);

  obs::Gauge g;
  g.Set(7);
  g.Add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(MetricsTest, HistogramBucketsObservations) {
  obs::Histogram h({10, 100, 1000});
  h.Observe(5);     // <= 10
  h.Observe(10);    // inclusive upper bound
  h.Observe(11);    // <= 100
  h.Observe(1000);  // <= 1000
  h.Observe(5000);  // overflow
  EXPECT_EQ(h.bucket_counts(), (std::vector<uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 5 + 10 + 11 + 1000 + 5000);
}

TEST(MetricsTest, HistogramSortsAndDedupesBounds) {
  obs::Histogram h({100, 10, 100, 1});
  EXPECT_EQ(h.bounds(), (std::vector<int64_t>{1, 10, 100}));
  EXPECT_EQ(h.bucket_counts().size(), 4u);
}

TEST(MetricsTest, RegistryReturnsStableInstruments) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("x.count", "help");
  obs::Counter* b = registry.GetCounter("x.count");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(registry.CounterValue("x.count"), 3u);
  EXPECT_EQ(registry.CounterValue("unknown"), 0u);

  obs::Gauge* g = registry.GetGauge("x.gauge");
  ASSERT_NE(g, nullptr);
  g->Set(-5);
  EXPECT_EQ(registry.GaugeValue("x.gauge"), -5);
}

TEST(MetricsTest, RegistryKindMismatchReturnsNull) {
  obs::MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("name"), nullptr);
  EXPECT_EQ(registry.GetGauge("name"), nullptr);
  EXPECT_EQ(registry.GetHistogram("name", {1, 2}), nullptr);
  // Histogram bounds must also match exactly.
  ASSERT_NE(registry.GetHistogram("h", {1, 2}), nullptr);
  EXPECT_NE(registry.GetHistogram("h", {1, 2}), nullptr);
  EXPECT_EQ(registry.GetHistogram("h", {1, 3}), nullptr);
  // Mismatches disabled the caller but left the originals untouched.
  EXPECT_EQ(registry.CounterValue("name"), 0u);
}

TEST(MetricsTest, PrometheusExposition) {
  obs::MetricsRegistry registry;
  registry.GetCounter("qss.polls_ok", "polls that committed")->Increment(7);
  registry.GetGauge("qss.groups")->Set(3);
  obs::Histogram* h = registry.GetHistogram("lat.ns", {10, 100}, "latency");
  h->Observe(5);
  h->Observe(50);
  h->Observe(500);
  std::string text = registry.ExportPrometheus();
  EXPECT_TRUE(Contains(text, "# HELP qss_polls_ok polls that committed"));
  EXPECT_TRUE(Contains(text, "# TYPE qss_polls_ok counter"));
  EXPECT_TRUE(Contains(text, "qss_polls_ok 7"));
  EXPECT_TRUE(Contains(text, "# TYPE qss_groups gauge"));
  EXPECT_TRUE(Contains(text, "qss_groups 3"));
  // Cumulative le-buckets, closing with +Inf, sum, and count.
  EXPECT_TRUE(Contains(text, "lat_ns_bucket{le=\"10\"} 1"));
  EXPECT_TRUE(Contains(text, "lat_ns_bucket{le=\"100\"} 2"));
  EXPECT_TRUE(Contains(text, "lat_ns_bucket{le=\"+Inf\"} 3"));
  EXPECT_TRUE(Contains(text, "lat_ns_sum 555"));
  EXPECT_TRUE(Contains(text, "lat_ns_count 3"));
}

TEST(MetricsTest, JsonExportParsesAndCarriesValues) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(11);
  registry.GetGauge("b.gauge")->Set(-2);
  obs::Histogram* h = registry.GetHistogram("c.hist", {10, 100});
  h->Observe(7);
  h->Observe(70);
  std::string text = registry.ExportJson();
  Json root;
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  ASSERT_EQ(root.kind, Json::Kind::kObject);
  ASSERT_TRUE(root.Has("counters"));
  ASSERT_TRUE(root.Has("gauges"));
  ASSERT_TRUE(root.Has("histograms"));
  EXPECT_EQ(root.At("counters").At("a.count").number, 11);
  EXPECT_EQ(root.At("gauges").At("b.gauge").number, -2);
  const Json& hist = root.At("histograms").At("c.hist");
  ASSERT_EQ(hist.At("bounds").array.size(), 2u);
  ASSERT_EQ(hist.At("counts").array.size(), 3u);
  EXPECT_EQ(hist.At("counts").array[0].number, 1);
  EXPECT_EQ(hist.At("counts").array[1].number, 1);
  EXPECT_EQ(hist.At("counts").array[2].number, 0);
  EXPECT_EQ(hist.At("sum").number, 77);
  EXPECT_EQ(hist.At("count").number, 2);
}

// Concurrent updates from the thread-pool executor: totals must be
// exact, and the suite runs under TSan in scripts/check.sh.
TEST(MetricsTest, ConcurrentUpdatesAreLossless) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("conc.count");
  obs::Gauge* gauge = registry.GetGauge("conc.gauge");
  obs::Histogram* hist =
      registry.GetHistogram("conc.hist", obs::LatencyBucketsNs());
  qss::ThreadPoolExecutor pool(8);
  constexpr size_t kTasks = 4000;
  pool.ParallelFor(kTasks, [&](size_t i) {
    counter->Increment();
    gauge->Add(1);
    hist->Observe(static_cast<int64_t>(i));
    // Concurrent registration of the same instruments must be safe too.
    registry.GetCounter("conc.count")->Increment();
    registry.GetCounter("conc.late")->Increment();
  });
  EXPECT_EQ(counter->value(), 2 * kTasks);
  EXPECT_EQ(registry.CounterValue("conc.late"), kTasks);
  EXPECT_EQ(registry.GaugeValue("conc.gauge"),
            static_cast<int64_t>(kTasks));
  EXPECT_EQ(hist->count(), kTasks);
}

// ------------------------------------------------------------- clock

TEST(ClockTest, ManualClockOverridesAndRestores) {
  int64_t real_before = obs::NowNs();
  {
    obs::ManualClock clock(1000);
    obs::ScopedClockOverride override_clock(&clock);
    EXPECT_EQ(obs::NowNs(), 1000);
    clock.Advance(250);
    EXPECT_EQ(obs::NowNs(), 1250);
    EXPECT_EQ(obs::ElapsedNs(1000), 250);
    clock.Set(5000);
    EXPECT_EQ(obs::NowNs(), 5000);
  }
  // Back on the real (monotonic) clock.
  EXPECT_GE(obs::NowNs(), real_before);
}

TEST(ClockTest, OverridesNest) {
  obs::ManualClock outer(10);
  obs::ManualClock inner(20);
  obs::ScopedClockOverride o1(&outer);
  {
    obs::ScopedClockOverride o2(&inner);
    EXPECT_EQ(obs::NowNs(), 20);
  }
  EXPECT_EQ(obs::NowNs(), 10);
}

// ------------------------------------------------------------- spans

#ifndef DOEM_TRACING_DISABLED

TEST(TraceTest, SpanRecordsExactDurationsUnderManualClock) {
  obs::ManualClock clock(100);
  obs::ScopedClockOverride override_clock(&clock);
  obs::TraceRecorder recorder;
  {
    obs::TraceSpan outer(&recorder, "outer", "test", Timestamp(7), "label");
    clock.Advance(10);
    {
      obs::TraceSpan inner(&recorder, "inner", "test");
      clock.Advance(5);
    }
    clock.Advance(10);
  }
  std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  // Merged in start-time order: outer (100) before inner (110).
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].label, "label");
  EXPECT_EQ(events[0].start_ns, 100);
  EXPECT_EQ(events[0].duration_ns, 25);
  ASSERT_TRUE(events[0].sim.has_value());
  EXPECT_EQ(events[0].sim->ticks, 7);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].start_ns, 110);
  EXPECT_EQ(events[1].duration_ns, 5);
  EXPECT_FALSE(events[1].sim.has_value());
  // Same thread -> same tid; nested inside the outer interval.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[1].start_ns, events[0].start_ns);
  EXPECT_LE(events[1].start_ns + events[1].duration_ns,
            events[0].start_ns + events[0].duration_ns);
}

TEST(TraceTest, BoundedBufferCountsDrops) {
  obs::TraceRecorder recorder(/*max_events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceSpan span(&recorder, "s", "test");
  }
  EXPECT_EQ(recorder.Events().size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
}

TEST(TraceTest, ThreadsGetDistinctTidsAndMergeSorted) {
  obs::TraceRecorder recorder;
  qss::ThreadPoolExecutor pool(4);
  pool.ParallelFor(64, [&](size_t i) {
    obs::TraceSpan span(&recorder, "t" + std::to_string(i), "test");
  });
  std::vector<obs::TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 64u);
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
        return a.start_ns < b.start_ns;
      }));
  std::vector<uint32_t> tids;
  for (const obs::TraceEvent& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  // Dense indexes assigned from 0, at most one per pool thread plus the
  // calling thread, which claims indices too (ThreadPoolExecutor).
  EXPECT_GE(tids.front(), 0u);
  EXPECT_LE(tids.size(), 5u);
  EXPECT_EQ(tids.back(), tids.size() - 1);
}

// Golden structure of the Chrome trace-event export: valid JSON, a
// process_name metadata event, "X" events with ts/dur microseconds
// relative to the earliest span, and args carrying sim_ticks and label.
TEST(TraceTest, ChromeTraceExportGoldenStructure) {
  obs::ManualClock clock(1'000'000);
  obs::ScopedClockOverride override_clock(&clock);
  obs::TraceRecorder recorder;
  {
    obs::TraceSpan outer(&recorder, "qss.advance", "qss", Timestamp(42));
    clock.Advance(4000);
    {
      obs::TraceSpan inner(&recorder, "qss.fetch", "qss", Timestamp(42),
                           "Names");
      clock.Advance(1500);
    }
    clock.Advance(500);
  }
  std::string text = recorder.ExportChromeTrace();
  Json root;
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  ASSERT_TRUE(root.Has("traceEvents"));
  const std::vector<Json>& events = root.At("traceEvents").array;
  ASSERT_EQ(events.size(), 3u);  // metadata + 2 spans

  const Json& meta = events[0];
  EXPECT_EQ(meta.At("ph").string, "M");
  EXPECT_EQ(meta.At("name").string, "process_name");

  const Json& advance = events[1];
  EXPECT_EQ(advance.At("ph").string, "X");
  EXPECT_EQ(advance.At("name").string, "qss.advance");
  EXPECT_EQ(advance.At("cat").string, "qss");
  EXPECT_EQ(advance.At("ts").number, 0);      // relative to earliest span
  EXPECT_EQ(advance.At("dur").number, 6);     // 6000 ns = 6 us
  EXPECT_EQ(advance.At("args").At("sim_ticks").number, 42);

  const Json& fetch = events[2];
  EXPECT_EQ(fetch.At("name").string, "qss.fetch");
  EXPECT_EQ(fetch.At("ts").number, 4);        // started 4000 ns in
  EXPECT_EQ(fetch.At("dur").number, 1.5);
  EXPECT_EQ(fetch.At("args").At("label").string, "Names");
  // Nested within the outer event's interval, same tid.
  EXPECT_EQ(fetch.At("tid").number, advance.At("tid").number);
  EXPECT_GE(fetch.At("ts").number, advance.At("ts").number);
  EXPECT_LE(fetch.At("ts").number + fetch.At("dur").number,
            advance.At("ts").number + advance.At("dur").number);
}

#endif  // DOEM_TRACING_DISABLED

TEST(TraceTest, NullRecorderIsFreeAndSafe) {
  obs::TraceSpan a(nullptr, "never", "test");
  obs::TraceSpan b(nullptr, "never", "test", Timestamp(1));
  obs::TraceSpan c(nullptr, "never", "test", Timestamp(1), "label");
}

TEST(TraceTest, EmptyRecorderExportsValidJson) {
  obs::TraceRecorder recorder;
  Json root;
  std::string text = recorder.ExportChromeTrace();
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  ASSERT_TRUE(root.Has("traceEvents"));
}

// --------------------------------------------------------- EvalStats

TEST(EvalStatsTest, CountsWorkWithoutPerturbingRows) {
  OemDatabase guide = testing::SyntheticGuide(10);
  OemHistory history = testing::SyntheticGuideHistory(guide, 8, 4);
  auto d = DoemDatabase::Build(guide, history);
  ASSERT_TRUE(d.ok());
  std::vector<Timestamp> polls;
  for (const HistoryStep& step : history.steps()) polls.push_back(step.time);
  const std::string query =
      "select guide.restaurant<cre at T> where T > t[-1]";

  // Plain engine: the annotation step scans (no index attached).
  chorel::ChorelEngine plain(*d);
  lorel::EvalStats scanned_stats;
  lorel::EvalOptions opts;
  opts.polling_times = &polls;
  opts.stats = &scanned_stats;
  auto scanned = plain.Run(query, chorel::Strategy::kDirect, opts);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  EXPECT_GT(scanned_stats.nodes_visited, 0u);
  EXPECT_GT(scanned_stats.arcs_expanded, 0u);
  EXPECT_EQ(scanned_stats.steps_index_seeded, 0u);
  EXPECT_GT(scanned_stats.steps_scanned, 0u);
  EXPECT_EQ(scanned_stats.postings_scanned, 0u);

  // Seeded engine: the same step is satisfied from index postings.
  chorel::ChorelEngineOptions seeded_opts;
  seeded_opts.seed_from_index = true;
  chorel::ChorelEngine seeded(*d, seeded_opts);
  lorel::EvalStats seeded_stats;
  opts.stats = &seeded_stats;
  auto seeded_result = seeded.Run(query, chorel::Strategy::kDirect, opts);
  ASSERT_TRUE(seeded_result.ok()) << seeded_result.status().ToString();
  EXPECT_GT(seeded_stats.steps_index_seeded, 0u);
  EXPECT_GT(seeded_stats.postings_scanned, 0u);

  // Stats collection is purely observational: identical rows without it.
  opts.stats = nullptr;
  auto bare = plain.Run(query, chorel::Strategy::kDirect, opts);
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->RowsToString(), scanned->RowsToString());
  EXPECT_EQ(seeded_result->RowsToString(), scanned->RowsToString());

  // Stats accumulate across runs (documented: added to, never reset).
  lorel::EvalStats accumulated = scanned_stats;
  opts.stats = &accumulated;
  ASSERT_TRUE(plain.Run(query, chorel::Strategy::kDirect, opts).ok());
  EXPECT_EQ(accumulated.nodes_visited, 2 * scanned_stats.nodes_visited);
}

// ------------------------------------------------ QSS under observation

// A faulty two-group workload: a long outage on the price group gives
// repeated quarantines and many missed polls, and max_missed_log = 2
// exercises the bounded missed-poll log.
oracle::Scenario OutageScenario() {
  oracle::Scenario s;
  s.restaurants = 15;
  s.steps = 20;
  s.ops_per_step = 4;
  s.Sub("Names", "name", 1);
  s.Sub("Prices", "price", 1);
  s.Advance({0});
  s.Advance(std::vector<int64_t>(19, 1));
  s.faults = {{.skip = 2, .count = 12, .error = Status::Unavailable("outage"),
               .query_contains = ".price"}};
  s.tolerance.retry.max_attempts = 2;
  s.tolerance.quarantine_after = 2;
  s.tolerance.quarantine_cooldown_ticks = 3;
  s.tolerance.max_missed_log = 2;
  return s;
}

// Attaching metrics, tracing and the event log perturbs nothing (an
// oracle instance, tests/oracle.h), and the metrics agree with the run.
TEST(QssObsTest, ObservabilityDoesNotPerturbTheRun) {
  const oracle::Scenario s = OutageScenario();
  const oracle::Output observed =
      oracle::ExpectSame(s, {}, oracle::Execute(s, {}), {.obs = true});
  const obs::MetricsRegistry& metrics = *observed.metrics;
  const qss::PollHealth& prices =
      observed.groups.at(observed.group_of.at("Prices")).health;
  EXPECT_EQ(metrics.CounterValue("qss.polls_ok"), observed.report.polls_ok);
  EXPECT_EQ(metrics.CounterValue("qss.polls_missed"),
            observed.report.polls_missed);
  EXPECT_EQ(metrics.CounterValue("qss.missed_log_dropped"),
            prices.missed_dropped);
  EXPECT_EQ(metrics.CounterValue("qss.notifications"),
            observed.notifications.size());
  EXPECT_GT(metrics.CounterValue("qss.quarantine_trips"), 0u);
  EXPECT_EQ(metrics.GaugeValue("qss.group.count"), 2);
#ifndef DOEM_TRACING_DISABLED
  EXPECT_GT(observed.trace->Events().size(), 0u);
#endif
#ifndef DOEM_EVENTLOG_DISABLED
  // The outage journaled: failures, quarantine transitions, churn.
  EXPECT_GT(observed.events->recorded(), 0u);
  std::string log = observed.events->ExportJsonLines();
  EXPECT_NE(log.find("\"quarantine-opened\""), std::string::npos);
  EXPECT_NE(log.find("\"poll-failed\""), std::string::npos);
  EXPECT_NE(log.find("\"group-created\""), std::string::npos);
#endif
}

TEST(QssObsTest, MissedLogIsBoundedAndElapsedMeasured) {
  const oracle::Output r = oracle::Execute(OutageScenario(), {});
  const qss::PollHealth& prices = r.groups.at(r.group_of.at("Prices")).health;
  // The outage produces more skips than the bound keeps.
  EXPECT_LE(prices.missed.size(), 2u);
  EXPECT_GT(prices.missed_dropped, 0u);
  EXPECT_GT(r.report.polls_missed, prices.missed.size());
  EXPECT_EQ(r.report.polls_missed,
            prices.missed.size() + prices.missed_dropped);
  // Whole-call wall time was measured (real clock: strictly positive).
  EXPECT_GT(r.report.elapsed_ns, 0);
}

}  // namespace
}  // namespace doem
