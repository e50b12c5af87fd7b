// The live introspection plane (DESIGN.md §6h): the structured event
// log (bounded ring, concurrent writers, JSON-lines export), the
// MetricsSnapshotter's interval deltas, metric-name validation and
// Prometheus exposition hygiene, TraceRecorder drop accounting under
// concurrent writers, the admin wire frames (stats/health/trace-dump
// codecs), and the end-to-end path: a QssClient over a LoopbackPipe
// fetching stats, per-group health, and a trace dump from a live
// QssServer — with the qss.notify.* e2e attribution histograms
// populated by the run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "oracle.h"
#include "qss/fault.h"
#include "qss/qss.h"
#include "qss/server/protocol.h"
#include "qss/server/server.h"
#include "qss/server/transport.h"
#include "testing/generators.h"

namespace doem {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ------------------------------------------------------- EventLog

TEST(EventLogTest, RecordsInOrderWithSeqAndSeverity) {
  obs::EventLog log(16);
  log.Record(obs::EventType::kPollFailed, obs::EventSeverity::kError,
             Timestamp(5), "group-a", "boom");
  log.Record(obs::EventType::kSubscribed, obs::EventSeverity::kInfo,
             Timestamp(6), "NewPlaces");
  log.Record(obs::EventType::kQuarantineOpened, obs::EventSeverity::kWarning,
             Timestamp(7), "group-a", "2 consecutive failures");

  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_EQ(events[0].type, obs::EventType::kPollFailed);
  EXPECT_EQ(events[0].severity, obs::EventSeverity::kError);
  EXPECT_EQ(events[0].sim, Timestamp(5));
  EXPECT_EQ(events[0].subject, "group-a");
  EXPECT_EQ(events[0].detail, "boom");
  EXPECT_EQ(events[1].detail, "");
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.overwritten(), 0u);
  EXPECT_EQ(log.capacity(), 16u);
}

TEST(EventLogTest, RingOverwritesOldestAndCountsThem) {
  obs::EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.Record(obs::EventType::kPollFailed, obs::EventSeverity::kError,
               Timestamp(i), "s" + std::to_string(i));
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.overwritten(), 6u);
  std::vector<obs::Event> events = log.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The last four, oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);
    EXPECT_EQ(events[i].subject, "s" + std::to_string(6 + i));
  }
}

TEST(EventLogTest, JsonLinesExportFiltersBySeverityAndEscapes) {
  obs::EventLog log(8);
  log.Record(obs::EventType::kStoreError, obs::EventSeverity::kError,
             Timestamp(1), "path\\with\"quotes", "line1\nline2");
  log.Record(obs::EventType::kGroupCreated, obs::EventSeverity::kInfo,
             Timestamp(2), "key\x1fwith-unit-sep");
  log.Record(obs::EventType::kQuarantineOpened, obs::EventSeverity::kWarning,
             Timestamp(3), "g");

  std::string all = log.ExportJsonLines();
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'), 3);
  EXPECT_TRUE(Contains(all, "\"type\":\"store-error\""));
  EXPECT_TRUE(Contains(all, "\"severity\":\"error\""));
  EXPECT_TRUE(Contains(all, "path\\\\with\\\"quotes"));
  EXPECT_TRUE(Contains(all, "line1\\nline2"));
  EXPECT_TRUE(Contains(all, "\\u001f"));
  EXPECT_TRUE(Contains(all, "\"sim_ticks\":2"));

  // Floor kWarning drops the info event only.
  std::string warnings = log.ExportJsonLines(obs::EventSeverity::kWarning);
  EXPECT_EQ(std::count(warnings.begin(), warnings.end(), '\n'), 2);
  EXPECT_FALSE(Contains(warnings, "group-created"));
  EXPECT_TRUE(Contains(warnings, "store-error"));
  EXPECT_TRUE(Contains(warnings, "quarantine-opened"));
}

TEST(EventLogTest, EveryTypeHasAStableName) {
  std::set<std::string> names;
  for (obs::EventType t : {
           obs::EventType::kPollFailed, obs::EventType::kPollMissed,
           obs::EventType::kQuarantineOpened, obs::EventType::kQuarantineProbe,
           obs::EventType::kQuarantineClosed, obs::EventType::kStoreError,
           obs::EventType::kFilterError, obs::EventType::kFramePoisoned,
           obs::EventType::kConnectionOpened,
           obs::EventType::kConnectionClosed, obs::EventType::kSubscribed,
           obs::EventType::kSubscribeRejected, obs::EventType::kUnsubscribed,
           obs::EventType::kGroupCreated, obs::EventType::kGroupRetired}) {
    std::string name = obs::EventTypeToString(t);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    // Distinct values, distinct strings.
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

// Run in the TSan lane: concurrent writers never contend on a shared
// lock, yet the total order (seq) is consistent and nothing is lost
// short of the ring bound.
TEST(EventLogTest, ConcurrentWritersKeepTotalOrder) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  obs::EventLog log(256);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(obs::EventType::kPollFailed, obs::EventSeverity::kInfo,
                   Timestamp(i), "t" + std::to_string(t),
                   std::to_string(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(log.recorded(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(log.overwritten(),
            static_cast<uint64_t>(kThreads * kPerThread - 256));
  std::vector<obs::Event> events = log.Snapshot();
  EXPECT_EQ(events.size(), 256u);
  // Strictly increasing seq, all from the final window of the total
  // order (a lapped slot keeps the younger event).
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  for (const obs::Event& e : events) {
    EXPECT_GE(e.seq, log.overwritten());
  }
}

TEST(EventLogTest, SnapshotWhileWritersRunIsSafe) {
  obs::EventLog log(64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      log.Record(obs::EventType::kPollMissed, obs::EventSeverity::kWarning,
                 Timestamp(i++), "w");
    }
  });
  for (int i = 0; i < 50; ++i) {
    std::vector<obs::Event> events = log.Snapshot();
    EXPECT_LE(events.size(), 64u);
    for (size_t j = 1; j < events.size(); ++j) {
      EXPECT_LT(events[j - 1].seq, events[j].seq);
    }
  }
  stop.store(true);
  writer.join();
}

// ------------------------------------------------ MetricsSnapshotter

TEST(SnapshotterTest, CapturesIntervalDeltasAndGaugeLevels) {
  obs::ManualClock clock(100);
  obs::ScopedClockOverride install(&clock);
  obs::MetricsRegistry registry;
  obs::Counter* polls = registry.GetCounter("qss.polls_ok", "ok polls");
  obs::Gauge* groups = registry.GetGauge("qss.groups", "live groups");
  obs::Histogram* lat =
      registry.GetHistogram("qss.fetch_ns", obs::LatencyBucketsNs(), "fetch");

  polls->Increment(3);
  groups->Set(2);
  lat->Observe(1000);

  obs::MetricsSnapshotter snap(&registry);  // baseline includes the 3/2/1
  clock.Advance(50);
  polls->Increment(4);
  groups->Set(7);
  lat->Observe(2000);
  lat->Observe(3000);

  obs::MetricsSnapshotter::Interval interval = snap.Capture();
  EXPECT_EQ(interval.interval_ns, 50);
  EXPECT_EQ(interval.counter_deltas.at("qss.polls_ok"), 4u);
  EXPECT_EQ(interval.histogram_count_deltas.at("qss.fetch_ns"), 2u);
  EXPECT_EQ(interval.gauges.at("qss.groups"), 7);

  // The capture reset the baseline: a quiet second interval is all
  // zeros, and gauges stay levels.
  clock.Advance(25);
  obs::MetricsSnapshotter::Interval second = snap.Capture();
  EXPECT_EQ(second.interval_ns, 25);
  EXPECT_EQ(second.counter_deltas.at("qss.polls_ok"), 0u);
  EXPECT_EQ(second.histogram_count_deltas.at("qss.fetch_ns"), 0u);
  EXPECT_EQ(second.gauges.at("qss.groups"), 7);

  std::string json = interval.ToJson();
  EXPECT_TRUE(Contains(json, "\"interval_ns\":50"));
  EXPECT_TRUE(Contains(json, "\"counter_deltas\":{"));
  EXPECT_TRUE(Contains(json, "\"qss.polls_ok\":4"));
  EXPECT_TRUE(Contains(json, "\"histogram_count_deltas\":{"));
  EXPECT_TRUE(Contains(json, "\"gauges\":{\"qss.groups\":7}"));
}

TEST(SnapshotterTest, MetricsRegisteredMidIntervalDeltaFromZero) {
  obs::MetricsRegistry registry;
  obs::MetricsSnapshotter snap(&registry);
  registry.GetCounter("late.arrival", "registered after the baseline")
      ->Increment(5);
  obs::MetricsSnapshotter::Interval interval = snap.Capture();
  EXPECT_EQ(interval.counter_deltas.at("late.arrival"), 5u);
}

// ------------------------------------- name validation + exposition

TEST(MetricNameTest, ValidNameCharset) {
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("qss.polls_ok"));
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("a"));
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("store.recovery_truncations"));
  EXPECT_TRUE(obs::MetricsRegistry::ValidName("x9.y_z"));

  EXPECT_FALSE(obs::MetricsRegistry::ValidName(""));
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("Qss.polls"));   // upper
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("9lives"));      // digit first
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("_x"));          // _ first
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("qss pols"));    // space
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("qss-polls"));   // dash
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("qss..polls"));  // empty seg
  EXPECT_FALSE(obs::MetricsRegistry::ValidName("qss.polls."));  // trailing .
  EXPECT_FALSE(obs::MetricsRegistry::ValidName(".qss"));        // leading .
}

TEST(MetricNameDeathTest, BadRegistrationAbortsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  obs::MetricsRegistry registry;
  EXPECT_DEATH(registry.GetCounter("Bad Name"), "invalid metric name");
  EXPECT_DEATH(registry.GetGauge("qss..groups"), "invalid metric name");
  EXPECT_DEATH(registry.GetHistogram("-x", obs::LatencyBucketsNs()),
               "invalid metric name");
}

TEST(PrometheusHygieneTest, EveryMetricGetsHelpAndTypeLines) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo.count", "counted things")->Increment(2);
  registry.GetGauge("demo.level", "current level")->Set(-3);
  registry
      .GetHistogram("demo.lat_ns", obs::LatencyBucketsNs(), "latency of demo")
      ->Observe(1);

  std::string prom = registry.ExportPrometheus();
  EXPECT_TRUE(Contains(prom, "# HELP demo_count counted things\n"));
  EXPECT_TRUE(Contains(prom, "# TYPE demo_count counter\n"));
  EXPECT_TRUE(Contains(prom, "# HELP demo_level current level\n"));
  EXPECT_TRUE(Contains(prom, "# TYPE demo_level gauge\n"));
  EXPECT_TRUE(Contains(prom, "# TYPE demo_lat_ns histogram\n"));
  EXPECT_TRUE(Contains(prom, "demo_count 2\n"));
  EXPECT_TRUE(Contains(prom, "demo_level -3\n"));

  // Metrics registered without help still get the # TYPE line.
  registry.GetCounter("demo.bare");
  prom = registry.ExportPrometheus();
  EXPECT_TRUE(Contains(prom, "# TYPE demo_bare counter\n"));
}

TEST(PrometheusHygieneTest, HelpTextEscapesBackslashAndNewline) {
  obs::MetricsRegistry registry;
  registry.GetCounter("demo.esc", "path\\to\nsomewhere");
  std::string prom = registry.ExportPrometheus();
  EXPECT_TRUE(Contains(prom, "# HELP demo_esc path\\\\to\\nsomewhere\n"));
}

TEST(MetricsDescribeTest, ListsKindAndHelpInNameOrder) {
  obs::MetricsRegistry registry;
  registry.GetGauge("b.gauge", "a level");
  registry.GetCounter("a.count", "a count");
  registry.GetHistogram("c.hist", obs::LatencyBucketsNs(), "a histogram");

  std::vector<obs::MetricsRegistry::MetricInfo> info = registry.Describe();
  ASSERT_EQ(info.size(), 3u);
  EXPECT_EQ(info[0].name, "a.count");
  EXPECT_EQ(info[0].kind, "counter");
  EXPECT_EQ(info[0].help, "a count");
  EXPECT_EQ(info[1].name, "b.gauge");
  EXPECT_EQ(info[1].kind, "gauge");
  EXPECT_EQ(info[2].name, "c.hist");
  EXPECT_EQ(info[2].kind, "histogram");
}

// -------------------------------------------- TraceRecorder bounds

#ifndef DOEM_TRACING_DISABLED

// Run in the TSan lane: drop accounting is exact under concurrent
// writers — per-thread buffers mean each thread drops its own overflow.
TEST(TraceDropTest, ConcurrentWritersDropExactOverflow) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 300;
  constexpr size_t kCap = 100;
  obs::TraceRecorder recorder(kCap);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::TraceEvent e;
        e.name = "span";
        e.category = "test";
        e.start_ns = t * kPerThread + i;
        recorder.Record(std::move(e));
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(recorder.Events().size(), kThreads * kCap);
  EXPECT_EQ(recorder.dropped(),
            static_cast<uint64_t>(kThreads * (kPerThread - kCap)));
}

TEST(TraceDropTest, ClearDrainsEventsAndResetsDropCounter) {
  obs::TraceRecorder recorder(2);
  for (int i = 0; i < 5; ++i) {
    obs::TraceEvent e;
    e.name = "s" + std::to_string(i);
    e.category = "test";
    e.start_ns = i;
    recorder.Record(std::move(e));
  }
  EXPECT_EQ(recorder.Events().size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);

  recorder.Clear();
  EXPECT_EQ(recorder.Events().size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(Contains(recorder.ExportChromeTrace(), "\"traceEvents\""));

  // The thread's buffer stayed registered; recording resumes.
  obs::TraceEvent e;
  e.name = "after-clear";
  e.category = "test";
  e.start_ns = 99;
  recorder.Record(std::move(e));
  ASSERT_EQ(recorder.Events().size(), 1u);
  EXPECT_EQ(recorder.Events()[0].name, "after-clear");
}

#endif  // DOEM_TRACING_DISABLED

// ------------------------------------------------ admin wire frames

namespace qs = qss::server;

TEST(AdminFrameTest, StatsMessagesRoundTrip) {
  qs::StatsRequestMsg req;
  req.format = qs::StatsFormat::kJson;
  qs::FrameBuffer buf;
  ASSERT_TRUE(buf.Feed(qs::EncodeStatsRequest(req)).ok());
  qs::WireFrame frame;
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, qs::MsgType::kStatsRequest);
  auto req2 = qs::DecodeStatsRequest(frame.payload);
  ASSERT_TRUE(req2.ok());
  EXPECT_EQ(req2->format, qs::StatsFormat::kJson);

  qs::StatsReplyMsg reply;
  reply.format = qs::StatsFormat::kPrometheus;
  reply.body = "# HELP x y\nx 1\n";
  reply.interval_ns = 123456789;
  reply.rates_json = "{\"interval_ns\":123456789}";
  ASSERT_TRUE(buf.Feed(qs::EncodeStatsReply(reply)).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, qs::MsgType::kStatsReply);
  auto reply2 = qs::DecodeStatsReply(frame.payload);
  ASSERT_TRUE(reply2.ok()) << reply2.status().ToString();
  EXPECT_EQ(reply2->format, qs::StatsFormat::kPrometheus);
  EXPECT_EQ(reply2->body, reply.body);
  EXPECT_EQ(reply2->interval_ns, reply.interval_ns);
  EXPECT_EQ(reply2->rates_json, reply.rates_json);

  // A bogus format byte is a parse error, not an enum out of range.
  EXPECT_FALSE(qs::DecodeStatsRequest(std::string(1, '\x07')).ok());
}

TEST(AdminFrameTest, HealthReplyRoundTripsEveryField) {
  qs::HealthReplyMsg reply;
  reply.now = Timestamp(9999);
  qs::GroupHealthMsg g;
  g.key = "select guide.restaurant\x1f" "1";
  g.entries = "NewPlaces,PriceMoves";
  g.subscribers = 2;
  g.polls_committed = 11;
  g.next_poll = Timestamp(10000);
  g.circuit = qss::CircuitState::kHalfOpen;
  g.consecutive_failures = 3;
  g.last_error = "Unavailable: outage";
  g.polls_attempted = 13;
  g.polls_succeeded = 11;
  g.polls_failed = 2;
  g.retries = 4;
  g.backoff_ticks = 6;
  g.quarantined_until = Timestamp(10002);
  g.missed.push_back({Timestamp(9990), "quarantined"});
  g.missed.push_back({Timestamp(9991), "still quarantined"});
  g.missed_dropped = 7;
  g.last_poll.fetch_ns = 1;
  g.last_poll.diff_ns = 2;
  g.last_poll.apply_ns = 3;
  g.last_poll.filter_ns = 4;
  g.last_poll.fanout_ns = 5;
  g.last_poll.wire_ns = 6;
  g.last_poll.e2e_ns = 21;
  reply.groups.push_back(g);

  qs::FrameBuffer buf;
  ASSERT_TRUE(buf.Feed(qs::EncodeHealthRequest(qs::HealthRequestMsg{})).ok());
  qs::WireFrame frame;
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, qs::MsgType::kHealthRequest);
  EXPECT_TRUE(qs::DecodeHealthRequest(frame.payload).ok());

  ASSERT_TRUE(buf.Feed(qs::EncodeHealthReply(reply)).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, qs::MsgType::kHealthReply);
  auto reply2 = qs::DecodeHealthReply(frame.payload);
  ASSERT_TRUE(reply2.ok()) << reply2.status().ToString();
  EXPECT_EQ(reply2->now, reply.now);
  ASSERT_EQ(reply2->groups.size(), 1u);
  const qs::GroupHealthMsg& h = reply2->groups[0];
  EXPECT_EQ(h.key, g.key);
  EXPECT_EQ(h.entries, g.entries);
  EXPECT_EQ(h.subscribers, g.subscribers);
  EXPECT_EQ(h.polls_committed, g.polls_committed);
  EXPECT_EQ(h.next_poll, g.next_poll);
  EXPECT_EQ(h.circuit, g.circuit);
  EXPECT_EQ(h.consecutive_failures, g.consecutive_failures);
  EXPECT_EQ(h.last_error, g.last_error);
  EXPECT_EQ(h.polls_attempted, g.polls_attempted);
  EXPECT_EQ(h.polls_succeeded, g.polls_succeeded);
  EXPECT_EQ(h.polls_failed, g.polls_failed);
  EXPECT_EQ(h.retries, g.retries);
  EXPECT_EQ(h.backoff_ticks, g.backoff_ticks);
  EXPECT_EQ(h.quarantined_until, g.quarantined_until);
  ASSERT_EQ(h.missed.size(), 2u);
  EXPECT_EQ(h.missed[0].time, Timestamp(9990));
  EXPECT_EQ(h.missed[0].reason, "quarantined");
  EXPECT_EQ(h.missed[1].reason, "still quarantined");
  EXPECT_EQ(h.missed_dropped, g.missed_dropped);
  EXPECT_EQ(h.last_poll.fetch_ns, 1);
  EXPECT_EQ(h.last_poll.diff_ns, 2);
  EXPECT_EQ(h.last_poll.apply_ns, 3);
  EXPECT_EQ(h.last_poll.filter_ns, 4);
  EXPECT_EQ(h.last_poll.fanout_ns, 5);
  EXPECT_EQ(h.last_poll.wire_ns, 6);
  EXPECT_EQ(h.last_poll.e2e_ns, 21);

  // Truncated payload and trailing bytes both fail cleanly.
  std::string payload = frame.payload;
  EXPECT_FALSE(
      qs::DecodeHealthReply(std::string_view(payload).substr(0, 20)).ok());
  EXPECT_FALSE(qs::DecodeHealthReply(payload + "x").ok());
}

TEST(AdminFrameTest, TraceDumpMessagesRoundTrip) {
  qs::FrameBuffer buf;
  ASSERT_TRUE(
      buf.Feed(qs::EncodeTraceDumpRequest(qs::TraceDumpRequestMsg{})).ok());
  qs::WireFrame frame;
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, qs::MsgType::kTraceDumpRequest);
  EXPECT_TRUE(qs::DecodeTraceDumpRequest(frame.payload).ok());
  // Requests carry no payload at all.
  EXPECT_TRUE(frame.payload.empty());

  qs::TraceDumpReplyMsg reply;
  reply.events = 42;
  reply.dropped = 7;
  reply.chrome_json = "{\"traceEvents\":[]}";
  ASSERT_TRUE(buf.Feed(qs::EncodeTraceDumpReply(reply)).ok());
  ASSERT_TRUE(buf.Next(&frame));
  EXPECT_EQ(frame.type, qs::MsgType::kTraceDumpReply);
  auto reply2 = qs::DecodeTraceDumpReply(frame.payload);
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2->events, 42u);
  EXPECT_EQ(reply2->dropped, 7u);
  EXPECT_EQ(reply2->chrome_json, reply.chrome_json);
}

// ------------------------------------------- end-to-end over a pipe

// One live service + server + piped client: the workload runs, then the
// client pulls stats, health, and a trace dump over the wire.
struct IntrospectionHarness : oracle::LiveServer {
  explicit IntrospectionHarness(Sinks sinks = Sinks::kAll)
      : LiveServer(sinks) {}
  oracle::WiredClient wire{&server};
  qs::LoopbackPipe& pipe = wire.pipe;
  qs::QssClient& client = wire.client;

  // Sends one request, pumps, and returns the single reply event.
  qs::QssClient::Event RoundTrip() {
    pipe.PumpAll();
    std::vector<qs::QssClient::Event> got = client.TakeEvents();
    EXPECT_EQ(got.size(), 1u);
    return got.empty() ? qs::QssClient::Event{} : std::move(got.back());
  }
};

TEST(IntrospectionE2eTest, StatsHealthAndTraceOverTheWire) {
  IntrospectionHarness h;

  h.client.Subscribe({"Names", "", 1, "select guide.restaurant.name",
                      "select Names.name<cre at T> where T > t[-1]"});
  qs::QssClient::Event ok = h.RoundTrip();
  ASSERT_EQ(ok.type, qs::MsgType::kSubscribed);

  Timestamp start = Timestamp::FromDate(1997, 1, 1);
  size_t notifications = 0;
  bool last_day_notified = false;
  for (int day = 0; day < 8; ++day) {
    ASSERT_TRUE(h.qss.AdvanceTo(Timestamp(start.ticks + day)).ok());
    h.pipe.PumpAll();
    last_day_notified = false;
    for (const auto& e : h.client.TakeEvents()) {
      if (e.type == qs::MsgType::kNotification) {
        ++notifications;
        last_day_notified = true;
      }
    }
  }
  ASSERT_GT(notifications, 0u);
  uint64_t polls = h.metrics.CounterValue("qss.polls_ok");
  ASSERT_GT(polls, 0u);

  // The e2e attribution histograms populated: one observation per
  // delivered notification, segments included.
  EXPECT_EQ(h.metrics.HistogramCount("qss.notify.e2e_ns"), notifications);
  EXPECT_EQ(h.metrics.HistogramCount("qss.notify.fetch_ns"), notifications);
  EXPECT_EQ(h.metrics.HistogramCount("qss.notify.diff_ns"), notifications);
  EXPECT_EQ(h.metrics.HistogramCount("qss.notify.apply_ns"), notifications);
  EXPECT_EQ(h.metrics.HistogramCount("qss.notify.filter_ns"), notifications);
  EXPECT_EQ(h.metrics.HistogramCount("qss.notify.fanout_ns"), notifications);
  EXPECT_EQ(h.metrics.HistogramCount("qss.server.wire_ns"), notifications);

  // Stats over the wire, both formats.
  h.client.RequestStats(qs::StatsFormat::kPrometheus);
  qs::QssClient::Event stats = h.RoundTrip();
  ASSERT_EQ(stats.type, qs::MsgType::kStatsReply);
  EXPECT_EQ(stats.stats.format, qs::StatsFormat::kPrometheus);
  EXPECT_TRUE(Contains(stats.stats.body, "# HELP qss_polls_ok"));
  EXPECT_TRUE(Contains(stats.stats.body, "# TYPE qss_notify_e2e_ns histogram"));
  EXPECT_TRUE(Contains(stats.stats.body, "qss_server_notifications"));
  EXPECT_GT(stats.stats.interval_ns, 0);
  EXPECT_TRUE(Contains(stats.stats.rates_json, "\"counter_deltas\""));
  // The first interval spans the whole workload: every committed poll.
  EXPECT_TRUE(Contains(stats.stats.rates_json,
                       "\"qss.polls_ok\":" + std::to_string(polls)));

  h.client.RequestStats(qs::StatsFormat::kJson);
  qs::QssClient::Event stats_json = h.RoundTrip();
  ASSERT_EQ(stats_json.type, qs::MsgType::kStatsReply);
  EXPECT_EQ(stats_json.stats.format, qs::StatsFormat::kJson);
  EXPECT_TRUE(Contains(stats_json.stats.body, "\"counters\""));
  // The second interval saw no polls.
  EXPECT_TRUE(
      Contains(stats_json.stats.rates_json, "\"qss.polls_ok\":0"));

  // Health over the wire.
  h.client.RequestHealth();
  qs::QssClient::Event health = h.RoundTrip();
  ASSERT_EQ(health.type, qs::MsgType::kHealthReply);
  EXPECT_EQ(health.health.now, Timestamp(start.ticks + 7));
  ASSERT_EQ(health.health.groups.size(), 1u);
  const qs::GroupHealthMsg& g = health.health.groups[0];
  EXPECT_EQ(g.subscribers, 1u);
  EXPECT_EQ(g.circuit, qss::CircuitState::kClosed);
  EXPECT_EQ(g.polls_attempted, polls);
  EXPECT_EQ(g.polls_succeeded, polls);
  EXPECT_TRUE(Contains(g.entries, "Names"));
  // Phase attribution of the most recent poll: e2e and wire are only
  // stamped when that poll actually delivered a notification.
  if (last_day_notified) {
    EXPECT_GT(g.last_poll.e2e_ns, 0);
    EXPECT_GT(g.last_poll.wire_ns, 0);
    EXPECT_GE(g.last_poll.e2e_ns, g.last_poll.fetch_ns +
                                      g.last_poll.diff_ns +
                                      g.last_poll.apply_ns);
  }

#ifndef DOEM_TRACING_DISABLED
  // The trace dump drains the recorder.
  h.client.RequestTraceDump();
  qs::QssClient::Event dump = h.RoundTrip();
  ASSERT_EQ(dump.type, qs::MsgType::kTraceDumpReply);
  EXPECT_GT(dump.trace_dump.events, 0u);
  EXPECT_TRUE(Contains(dump.trace_dump.chrome_json, "\"qss.advance\""));
  h.client.RequestTraceDump();
  qs::QssClient::Event empty = h.RoundTrip();
  ASSERT_EQ(empty.type, qs::MsgType::kTraceDumpReply);
  EXPECT_EQ(empty.trace_dump.events, 0u);
#endif

#ifndef DOEM_EVENTLOG_DISABLED
  // The event log journaled the wire session itself.
  std::string log = h.events.ExportJsonLines();
  EXPECT_TRUE(Contains(log, "\"connection-opened\""));
  EXPECT_TRUE(Contains(log, "\"subscribed\""));
  EXPECT_TRUE(Contains(log, "\"group-created\""));
#endif
}

TEST(IntrospectionE2eTest, AdminRequestsWithoutSinksAreUnavailable) {
  IntrospectionHarness h(oracle::LiveServer::Sinks::kNone);
  h.client.RequestStats();
  h.client.RequestTraceDump();
  h.pipe.PumpAll();
  std::vector<qs::QssClient::Event> got = h.client.TakeEvents();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, qs::MsgType::kError);
  EXPECT_EQ(got[0].error.kind, "unavailable");
  EXPECT_TRUE(Contains(got[0].error.message, "metrics"));
  EXPECT_EQ(got[1].type, qs::MsgType::kError);
  EXPECT_EQ(got[1].error.kind, "unavailable");
  EXPECT_TRUE(Contains(got[1].error.message, "trace"));
  // The connection survived both refusals; health works without sinks.
  EXPECT_TRUE(h.server.Connected(h.wire.id));
  h.client.RequestHealth();
  h.pipe.PumpAll();
  got = h.client.TakeEvents();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, qs::MsgType::kHealthReply);
  EXPECT_TRUE(got[0].health.groups.empty());
}

}  // namespace
}  // namespace doem
