// The poll-group / subscriber-registry split (DESIGN.md §6g): the
// layered API (PollGroupManager + SubscriberRegistry) and the name-keyed
// QuerySubscriptionService facade must be byte-identical in everything
// observable — histories, polling times, notification bytes and order —
// under any executor; subscriber cohorts sharing a filter entry share
// one compiled filter and one evaluation per poll; registration errors
// carry typed PollError kinds; and Unsubscribe is safe both re-entrantly
// from a notification callback and from another thread mid-tick.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "oracle.h"
#include "qss/executor.h"
#include "qss/qss.h"
#include "testing/generators.h"

namespace doem {
namespace qss {
namespace {

std::string NotificationText(const Notification& n) {
  return n.subscription + "@" + std::to_string(n.poll_time.ticks) + "#" +
         std::to_string(n.poll_index) + ":" + n.result.RowsToString();
}

Subscription GuideSub(const std::string& name, const std::string& entry,
                      int64_t interval, const std::string& leaf = "name") {
  return oracle::ToSubscription({name, entry, leaf, interval});
}

// ------------------------------------------------- Layered vs. facade

using Exec = oracle::Config::Executor;
using Front = oracle::Config::FrontEnd;

// One scenario, two drivers: the facade, and the layers it is made of.
// Everything observable must match byte for byte.
TEST(QssFanoutTest, LayeredApiMatchesFacadeByteForByte) {
  oracle::Scenario s;
  s.restaurants = 16;
  s.steps = 10;
  for (int i = 0; i < 3; ++i) s.Sub("Sub" + std::to_string(i), "name", 2);
  s.Advance({9});
  const oracle::Output ref = oracle::Execute(s, {});
  const oracle::Output layered =
      oracle::ExpectSame(s, {}, ref, {.front_end = Front::kLayered});
  EXPECT_FALSE(ref.notifications.empty());
  EXPECT_EQ(layered.group_of.size(), 3u);
}

// The facade's Handle() bridges a name into the layered API; the
// registry resolves it to the same subscription and group the facade
// uses.
TEST(QssFanoutTest, FacadeHandleBridgesToRegistry) {
  OemDatabase base = testing::SyntheticGuide(8);
  ScriptedSource source(base, {});
  QuerySubscriptionService qss(&source, Timestamp(0));
  ASSERT_TRUE(qss.Subscribe(GuideSub("Bridge", "", 1), nullptr).ok());
  SubscriptionHandle handle = qss.Handle("Bridge");
  ASSERT_TRUE(static_cast<bool>(handle));
  const Subscription* sub = qss.registry().Find(handle);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(sub->name, "Bridge");
  PollGroup* group = qss.registry().GroupOf(handle);
  ASSERT_NE(group, nullptr);
  ASSERT_TRUE(qss.AdvanceTo(Timestamp(2)).ok());
  EXPECT_EQ(qss.History("Bridge"), &group->doem);
  EXPECT_FALSE(static_cast<bool>(qss.Handle("Nobody")));
  ASSERT_TRUE(qss.Unsubscribe("Bridge").ok());
  EXPECT_EQ(qss.registry().Find(handle), nullptr);
}

// ------------------------------------------- Shared-entry cohorts

// A cohort registering the same entry + filter text on one group shares
// a single compiled filter and a single evaluation per poll: the
// canonical history carries ONE root arc (not one per subscriber), the
// pool interns one entry, and qss.group.filter_evals counts one
// evaluation per poll while every member still gets its own
// notification.
TEST(QssFanoutTest, SharedEntryCohortSharesCompiledFilterAndEvaluations) {
  constexpr int kCohort = 100;
  OemDatabase base = testing::SyntheticGuide(12);
  OemHistory script = testing::SyntheticGuideHistory(base, 6, 3);
  ScriptedSource source(base, script);
  obs::MetricsRegistry metrics;
  QssOptions opts;
  opts.observability.metrics = &metrics;
  Timestamp start = Timestamp::FromDate(1997, 1, 1);
  PollGroupManager manager(&source, start, opts);
  SubscriberRegistry registry(&manager);

  std::map<std::string, int> notified;
  Subscription proto = GuideSub("ignored", "Cohort", 1);
  for (int i = 0; i < kCohort; ++i) {
    Subscription sub = proto;
    sub.name = "Member" + std::to_string(i);
    auto h = registry.Subscribe(sub, [&notified, sub](const Notification& n) {
      EXPECT_EQ(n.subscription, sub.name);
      ++notified[sub.name];
    });
    ASSERT_TRUE(h.ok()) << h.status().ToString();
  }
  EXPECT_EQ(manager.GroupCount(), 1u);
  EXPECT_EQ(metrics.GaugeValue("qss.group.count"), 1);
  EXPECT_EQ(metrics.GaugeValue("qss.group.entries"), 1);
  EXPECT_EQ(metrics.GaugeValue("qss.group.subscribers"), kCohort);

  constexpr int kTicks = 4;
  ASSERT_TRUE(manager.AdvanceTo(Timestamp(start.ticks + kTicks - 1)).ok());

  SubscriptionHandle first{1};
  PollGroup* group = registry.GroupOf(first);
  ASSERT_NE(group, nullptr);
  // One compiled filter for the whole cohort...
  EXPECT_EQ(group->filters.size(), 1u);
  EXPECT_EQ(group->entries.size(), 1u);
  EXPECT_EQ(group->subscriber_count, static_cast<size_t>(kCohort));
  // ...one evaluation per poll, the rest served from the shared result.
  EXPECT_EQ(metrics.CounterValue("qss.group.filter_evals"),
            static_cast<uint64_t>(kTicks));
  EXPECT_EQ(metrics.CounterValue("qss.group.filter_shared"),
            static_cast<uint64_t>(kTicks * (kCohort - 1)));
  // The history's root has exactly one arc — the cohort's shared entry.
  OemDatabase snapshot = group->doem.CurrentSnapshot();
  EXPECT_EQ(snapshot.OutArcs(snapshot.root()).size(), 1u);
  // Every member still hears about every firing poll.
  ASSERT_EQ(notified.size(), static_cast<size_t>(kCohort));
  int first_count = notified.begin()->second;
  EXPECT_GT(first_count, 0);
  for (const auto& [name, count] : notified) {
    EXPECT_EQ(count, first_count) << name;
  }
  EXPECT_EQ(metrics.CounterValue("qss.notifications"),
            static_cast<uint64_t>(first_count * kCohort));
}

// ------------------------------------- 1k subscribers × 4 groups

// 1000 subscribers over 4 poll groups (distinct polling-query leaves ×
// co-prime frequencies), each group a cohort sharing one entry, driven
// through the facade or the layered API, serial or pooled.
TEST(QssFanoutTest, ThousandSubscribersFourGroupsTwinRuns) {
  const struct {
    const char* leaf;
    int64_t interval;
  } kGroups[] = {{"name", 1}, {"price", 2}, {"address", 3}, {"rating", 5}};
  oracle::Scenario s;
  s.restaurants = 20;
  s.steps = 12;
  s.ops_per_step = 4;
  for (int i = 0; i < 1000; ++i) {
    const auto& g = kGroups[i % 4];
    s.Sub("S" + std::to_string(i), g.leaf, g.interval, oracle::Filter::kCre,
          std::string("G") + g.leaf);
  }
  s.Advance({11});
  const oracle::Config serial{.executor = Exec::kSerial};
  const oracle::Output ref = oracle::Execute(s, serial);
  EXPECT_EQ(ref.group_count, 4u);
  EXPECT_FALSE(ref.notifications.empty());
  for (const oracle::Config& c :
       {oracle::Config{.executor = Exec::kSerial, .front_end = Front::kLayered},
        oracle::Config{.executor = Exec::kPool, .front_end = Front::kLayered},
        oracle::Config{.executor = Exec::kPool}}) {
    oracle::ExpectSame(s, serial, ref, c);
  }
}

// ------------------------------------------------ Typed error kinds

TEST(QssFanoutTest, SubscribeErrorsCarryTypedKinds) {
  OemDatabase base = testing::SyntheticGuide(8);
  ScriptedSource source(base, {});
  std::vector<PollError> errors;
  QssOptions opts;
  opts.fault_tolerance.on_error = [&](const PollError& e) {
    errors.push_back(e);
  };
  QuerySubscriptionService qss(&source, Timestamp(0), opts);

  ASSERT_TRUE(qss.Subscribe(GuideSub("Taken", "", 1), nullptr).ok());
  EXPECT_TRUE(errors.empty());

  // Duplicate name: AlreadyExists + kDuplicateSubscription.
  Status dup = qss.Subscribe(GuideSub("Taken", "", 1), nullptr);
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].kind, PollError::Kind::kDuplicateSubscription);
  EXPECT_EQ(errors[0].subject, "Taken");
  EXPECT_STREQ(PollErrorKindToString(errors[0].kind),
               "duplicate-subscription");

  // Annotated polling query: kBadPollingQuery.
  Subscription bad_poll = GuideSub("BadPoll", "", 1);
  bad_poll.polling_query = "select guide.restaurant<cre at T>";
  Status poll_status = qss.Subscribe(bad_poll, nullptr);
  EXPECT_FALSE(poll_status.ok());
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[1].kind, PollError::Kind::kBadPollingQuery);
  EXPECT_STREQ(PollErrorKindToString(errors[1].kind), "bad-polling-query");

  // Unparseable filter query: kBadFilterQuery, and no group was created
  // for it.
  Subscription bad_filter = GuideSub("BadFilter", "", 7);
  bad_filter.filter_query = "select ((";
  Status filter_status = qss.Subscribe(bad_filter, nullptr);
  EXPECT_FALSE(filter_status.ok());
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[2].kind, PollError::Kind::kBadFilterQuery);
  EXPECT_STREQ(PollErrorKindToString(errors[2].kind), "bad-filter-query");
  EXPECT_EQ(qss.GroupCount(), 1u);

  // The registry accepts duplicate names by design — only the facade's
  // namespace rejects them.
  auto h1 = qss.registry().Subscribe(GuideSub("Twin", "", 1), nullptr);
  auto h2 = qss.registry().Subscribe(GuideSub("Twin", "", 1), nullptr);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_NE(h1->id, h2->id);
}

// ----------------------------------- Unsubscribe-during-poll safety

// A callback that unsubscribes its own subscription (and a peer's) while
// the poll that triggered it is still being fanned out: the snapshot
// iteration must skip the peer, retirement must be deferred past the
// tick, and the next tick must poll only the survivors.
TEST(QssFanoutTest, UnsubscribeFromCallbackDuringFanOutIsSafe) {
  OemDatabase base = testing::SyntheticGuide(12);
  OemHistory script = testing::SyntheticGuideHistory(base, 8, 3);
  ScriptedSource source(base, script);
  Timestamp start = Timestamp::FromDate(1997, 1, 1);
  QuerySubscriptionService qss(&source, start);

  std::vector<std::string> notes;
  int a_fired = 0;
  ASSERT_TRUE(qss.Subscribe(GuideSub("A", "", 1),
                            [&](const Notification& n) {
                              ++a_fired;
                              notes.push_back(NotificationText(n));
                              // First firing tears down both A and C
                              // mid-fan-out.
                              if (a_fired == 1) {
                                EXPECT_TRUE(qss.Unsubscribe("A").ok());
                                EXPECT_TRUE(qss.Unsubscribe("C").ok());
                              }
                            })
                  .ok());
  ASSERT_TRUE(qss.Subscribe(GuideSub("B", "", 1), [&](const Notification& n) {
                 notes.push_back(NotificationText(n));
               }).ok());
  ASSERT_TRUE(qss.Subscribe(GuideSub("C", "", 1), [&](const Notification& n) {
                 notes.push_back(NotificationText(n));
               }).ok());
  EXPECT_EQ(qss.GroupCount(), 1u);

  ASSERT_TRUE(qss.AdvanceTo(Timestamp(start.ticks + 3)).ok());
  EXPECT_EQ(a_fired, 1);
  // C was unsubscribed while the first poll's fan-out was in flight: it
  // must not have been notified at that poll or any later one; B sees
  // every poll.
  int b_notes = 0;
  int c_notes = 0;
  for (const std::string& n : notes) {
    if (n.rfind("B@", 0) == 0) ++b_notes;
    if (n.rfind("C@", 0) == 0) ++c_notes;
  }
  EXPECT_EQ(c_notes, 0);
  EXPECT_GT(b_notes, 1);
  EXPECT_EQ(qss.GroupCount(), 1u);
  EXPECT_EQ(qss.registry().SubscriberCount(), 1u);
}

// The last subscriber leaving from inside its own callback retires the
// group mid-tick; the deferred erase must keep the in-flight poll's
// group alive until the tick unwinds.
TEST(QssFanoutTest, LastUnsubscribeFromCallbackRetiresGroupAfterTick) {
  OemDatabase base = testing::SyntheticGuide(12);
  OemHistory script = testing::SyntheticGuideHistory(base, 8, 3);
  ScriptedSource source(base, script);
  Timestamp start = Timestamp::FromDate(1997, 1, 1);
  QuerySubscriptionService qss(&source, start);

  int fired = 0;
  ASSERT_TRUE(qss.Subscribe(GuideSub("Solo", "", 1),
                            [&](const Notification&) {
                              ++fired;
                              EXPECT_TRUE(qss.Unsubscribe("Solo").ok());
                            })
                  .ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp(start.ticks + 5)).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(qss.GroupCount(), 0u);
  EXPECT_EQ(qss.registry().SubscriberCount(), 0u);
}

// A callback that retires its group and then subscribes the same polling
// query and interval again, in the same tick, gets the retired group back:
// the wave still holds it, so it is revived in place, not replaced, and
// keeps its history. The same calls made after the tick start over.
TEST(QssFanoutTest, ResubscribeInsideRetiringTickKeepsTheGroup) {
  OemDatabase base = testing::SyntheticGuide(12);
  OemHistory script = testing::SyntheticGuideHistory(base, 8, 3);
  ScriptedSource source(base, script);
  Timestamp start = Timestamp::FromDate(1997, 1, 1);
  QssOptions opts;
  opts.notify_empty = true;
  QuerySubscriptionService qss(&source, start, opts);

  int fired = 0;
  std::vector<int64_t> again;
  ASSERT_TRUE(
      qss.Subscribe(GuideSub("Solo", "", 1), [&](const Notification&) {
           ++fired;
           EXPECT_TRUE(qss.Unsubscribe("Solo").ok());
           EXPECT_TRUE(qss.Subscribe(GuideSub("Again", "", 1),
                                     [&](const Notification& n) {
                                       again.push_back(n.poll_time.ticks);
                                     })
                           .ok());
         }).ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp(start.ticks + 5)).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(qss.GroupCount(), 1u);
  EXPECT_EQ(qss.registry().SubscriberCount(), 1u);
  const size_t after_first = again.size();
  EXPECT_GT(after_first, 0u);
  ASSERT_TRUE(qss.AdvanceTo(Timestamp(start.ticks + 8)).ok());
  EXPECT_EQ(qss.GroupCount(), 1u);
  EXPECT_EQ(again.size(), after_first + 3);
  // The revived group kept its history: its polling times still start
  // with the poll whose callback retired it.
  std::vector<Timestamp> polls = qss.PollingTimes("Again");
  ASSERT_EQ(polls.size(), 9u);
  EXPECT_EQ(polls.front().ticks, start.ticks);
  EXPECT_EQ(polls.back().ticks, start.ticks + 8);
  // Outside a tick the last unsubscribe erases the group at once, so the
  // same pair of calls starts a fresh group from R_0.
  ASSERT_TRUE(qss.Unsubscribe("Again").ok());
  ASSERT_TRUE(qss.Subscribe(GuideSub("Fresh", "", 1), nullptr).ok());
  ASSERT_TRUE(qss.AdvanceTo(Timestamp(start.ticks + 10)).ok());
  polls = qss.PollingTimes("Fresh");
  ASSERT_EQ(polls.size(), 3u);
  EXPECT_EQ(polls.front().ticks, start.ticks + 8);
}

// Cross-thread registration churn against a polling thread: the service
// mutex serializes Subscribe/Unsubscribe against in-flight ticks, so
// this is exactly the interleaving TSan must find clean (the qss test
// label runs under the TSan lane; see scripts/check.sh).
TEST(QssFanoutTest, CrossThreadUnsubscribeDuringPollsIsSerialized) {
  OemDatabase base = testing::SyntheticGuide(16);
  OemHistory script = testing::SyntheticGuideHistory(base, 40, 3);
  ScriptedSource source(base, script);
  Timestamp start = Timestamp::FromDate(1997, 1, 1);
  ThreadPoolExecutor pool(4);
  QssOptions opts;
  opts.executor = &pool;
  QuerySubscriptionService qss(&source, start, opts);

  std::atomic<int> notified{0};
  for (int g = 0; g < 4; ++g) {
    ASSERT_TRUE(qss.Subscribe(GuideSub("Keep" + std::to_string(g), "",
                                       1 + g,
                                       g % 2 ? "name" : "price"),
                              [&](const Notification&) { ++notified; })
                    .ok());
  }

  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int round = 0; !done.load(std::memory_order_relaxed); ++round) {
      std::string name = "Churn" + std::to_string(round % 8);
      Subscription sub =
          GuideSub(name, "", 1 + round % 3, round % 2 ? "address" : "rating");
      if (qss.Subscribe(sub, [&](const Notification&) { ++notified; }).ok()) {
        std::this_thread::yield();
        (void)qss.Unsubscribe(name);
      }
    }
  });
  for (int tick = 1; tick <= 30; ++tick) {
    ASSERT_TRUE(qss.AdvanceTo(Timestamp(start.ticks + tick)).ok());
  }
  done.store(true);
  churn.join();

  // The four stable subscriptions survived the churn; every Keep group
  // polled every one of its scheduled ticks.
  EXPECT_EQ(qss.registry().SubscriberCount(), 4u);
  for (int g = 0; g < 4; ++g) {
    std::string name = "Keep" + std::to_string(g);
    EXPECT_EQ(qss.PollingTimes(name).size(),
              static_cast<size_t>(30 / (1 + g) + 1))
        << name;
  }
  EXPECT_GT(notified.load(), 0);
}

// ------------------------------------ Per-group fresh-id isolation

// Two poll groups sharing one polling-query TEXT (different frequencies)
// over a non-id-preserving source: each group's fresh-id sequence is
// keyed by group, so each history is byte-identical to a solo run of
// that group alone. (Keying by query text — the old behavior — would let
// the groups perturb each other's id sequences.)
TEST(QssFanoutTest, ScriptedSourceFreshIdsArePerPollGroup) {
  auto run = [](std::vector<int64_t> intervals) {
    oracle::Scenario s;
    s.steps = 8;
    s.restaurants = 10;
    s.preserve_ids = false;
    for (int64_t i : intervals) s.Sub("I" + std::to_string(i), "name", i);
    s.Advance({6});
    return oracle::Execute(s, {});
  };
  auto history = [](const oracle::Output& run, const std::string& name) {
    return run.groups.at(run.group_of.at(name)).history;
  };
  const oracle::Output joint = run({1, 2});
  EXPECT_EQ(history(joint, "I1"), history(run({1}), "I1"));
  EXPECT_EQ(history(joint, "I2"), history(run({2}), "I2"));
}

}  // namespace
}  // namespace qss
}  // namespace doem
