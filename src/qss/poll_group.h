#ifndef DOEM_QSS_POLL_GROUP_H_
#define DOEM_QSS_POLL_GROUP_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chorel/chorel.h"
#include "common/result.h"
#include "diff/diff.h"
#include "doem/doem.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qss/executor.h"
#include "qss/frequency.h"
#include "qss/health.h"
#include "qss/options.h"
#include "qss/source.h"
#include "store/store.h"

namespace doem {
namespace qss {

/// One poll group (Section 6.1, proposal (1)): every subscriber whose
/// polling query and frequency agree shares one DOEM history, one
/// incremental Chorel engine, one optional durable store, and one
/// fetch→diff→apply pipeline. Groups are owned by the PollGroupManager;
/// pointers stay valid from Acquire until the tick after the last
/// subscriber released them (retirement is deferred past any in-flight
/// wave).
struct PollGroup {
  std::string key;
  std::string polling_query;
  FrequencySpec frequency;
  DoemDatabase doem;
  std::vector<Timestamp> polls;
  Timestamp next_poll;
  /// Distinct filter entry names in first-subscribe order, refcounted:
  /// the canonical wrapper carries one root arc per entry, NOT one per
  /// subscriber, so a million-subscriber cohort sharing an entry costs
  /// the history a single arc.
  std::vector<std::pair<std::string, size_t>> entries;
  /// Subscribers attached (across all entries).
  size_t subscriber_count = 0;
  /// Set when the last subscriber left while a wave was in flight; the
  /// group is skipped by scheduling and erased at the end of the tick.
  bool retired = false;
  PollHealth health;
  /// Persistent per-group Chorel engine: its cached encoding survives
  /// across polls and are patched with each poll's delta
  /// (QssOptions::Acceleration). References `doem`, whose address is
  /// stable (groups are heap-allocated, and every commit changes `doem`
  /// in place).
  std::unique_ptr<chorel::ChorelEngine> engine;
  /// Per-group compiled-filter pool: subscribers sharing one filter text
  /// against this group's engine share one compiled query (and one
  /// evaluation per poll — see SubscriberRegistry::FanOut).
  chorel::CompiledQueryPool filters;
  /// Durable backing store (null when QssOptions::Durability is unset).
  /// Appended from the serial commit phase only.
  std::unique_ptr<store::Store> store;
  /// obs::NowNs at the PreparePoll entry of the poll currently being
  /// committed — the stamp the end-to-end latency attribution
  /// (qss.notify.e2e_ns) measures from. Set by CommitPoll just before
  /// fan-out; only meaningful during the fan-out of that poll.
  int64_t last_prepare_start_ns = 0;

  /// Comma-joined entry names — the `subject` of group-scoped PollErrors.
  std::string JoinedEntries() const;
};

/// Receives the committed polls: evaluates member filters and delivers
/// notifications. Implemented by SubscriberRegistry; the split keeps the
/// manager ignorant of who is listening (what gets polled vs. who gets
/// notified).
class GroupFanout {
 public:
  virtual ~GroupFanout() = default;

  /// Called from the serial commit phase, once per committed poll of
  /// `group` at `t` (after the DOEM apply and the durable-store commit).
  /// Failures fold into `report` (never null) and the on_error callback;
  /// they must not fail the poll.
  virtual void FanOut(PollGroup* group, Timestamp t, PollReport* report) = 0;
};

/// Owner of the "what gets polled" half of QSS: the poll groups, their
/// schedules, the fetch→diff→apply pipeline (Figure 6 steps 1–4), fault
/// tolerance, and durability. Knows nothing about subscribers beyond the
/// refcounted entry names — notification fan-out is delegated to the
/// GroupFanout (Figure 6 steps 5–6).
///
/// Thread model: one recursive service mutex serializes every public
/// entry point (including the registry's and the facade's, which share
/// it via service_mutex()); the parallelism lives inside a wave, where
/// the executor runs the prepare stage for distinct groups concurrently.
/// Notification callbacks fire on the polling thread with the mutex
/// held, so they may re-enter Subscribe/Unsubscribe; a cross-thread
/// Unsubscribe blocks until the tick completes and never observes a
/// half-polled group.
class PollGroupManager {
 public:
  PollGroupManager(InformationSource* source, Timestamp start,
                   QssOptions options = {});

  /// Wires the fan-out sink (normally the SubscriberRegistry). Polls
  /// committed with no fanout set still advance the histories; nobody is
  /// notified.
  void set_fanout(GroupFanout* fanout) { fanout_ = fanout; }

  /// Finds or creates the group for (polling_query, frequency) — or a
  /// private group when merge_similar_polls is off, keyed by
  /// `subscriber_name` — and attaches one subscriber under `entry_name`.
  /// Opening (and recovering) the durable store happens here, on first
  /// acquisition.
  Result<PollGroup*> Acquire(const std::string& polling_query,
                             const FrequencySpec& frequency,
                             const std::string& entry_name,
                             const std::string& subscriber_name);

  /// The existing (non-retired) group for (polling_query, frequency) —
  /// null when none. Does not attach anything: a peek, so callers can
  /// validate against a group's state (e.g. its compiled-filter pool)
  /// before committing to an Acquire with side effects.
  PollGroup* Find(const std::string& polling_query,
                  const FrequencySpec& frequency,
                  const std::string& subscriber_name);

  /// Detaches one subscriber under `entry_name`. The last release
  /// retires the group (immediately, or at the end of the in-flight
  /// tick).
  void Release(PollGroup* group, const std::string& entry_name);

  /// Advances the simulated clock, executing every poll that falls due,
  /// in time order, fan-out delivered synchronously. Groups due at the
  /// same time form a wave whose fetch→diff stage runs on
  /// QssOptions::executor; results commit in group-key order, so the
  /// outcome is independent of the executor (DESIGN.md §6b).
  Status AdvanceTo(Timestamp t, PollReport* report = nullptr);

  /// Explicit-request mode (Section 6): polls one group now, regardless
  /// of its schedule. A committed poll restarts the cadence: the next
  /// scheduled poll is one interval later.
  Status PollGroupNow(PollGroup* group, PollReport* report = nullptr);

  /// Source-trigger mode (Section 6): every group that has not already
  /// polled at the current tick polls immediately, restarting its
  /// cadence as PollGroupNow does.
  Status NotifySourceChanged(PollReport* report = nullptr);

  Timestamp now() const;
  size_t GroupCount() const;
  /// Copy of the group's health (the group mutates during ticks).
  PollHealth GroupHealth(const PollGroup* group) const;
  std::vector<Timestamp> GroupPollingTimes(const PollGroup* group) const;

  /// A self-contained status copy of one live group — what the server's
  /// HealthReply serializes per group.
  struct GroupStatus {
    std::string key;
    /// Comma-joined entry names (PollGroup::JoinedEntries).
    std::string entries;
    size_t subscribers = 0;
    /// Committed polls in the group's history.
    size_t polls_committed = 0;
    Timestamp next_poll;
    PollHealth health;
  };
  /// Every non-retired group, in group-key order.
  std::vector<GroupStatus> GroupStatuses() const;

  const QssOptions& options() const { return options_; }

  /// The one lock serializing the whole service surface. Recursive so
  /// notification callbacks can re-enter registration calls on the
  /// polling thread. The registry and the facade lock it for their own
  /// maps, which keeps every cross-layer path on a single-lock order.
  std::recursive_mutex& service_mutex() const { return mu_; }

 private:
  /// The parallelizable half of one scheduled poll, plus everything the
  /// serial commit phase needs to finish it. Produced by PreparePoll
  /// (possibly on an executor thread), consumed by CommitPoll on the
  /// calling thread. Only group-local state (the group's PollHealth) is
  /// touched while preparing; shared state (PollReport, fan-out, the
  /// DOEM database visible through accessors) is only touched at commit.
  struct PreparedPoll {
    PollGroup* group = nullptr;
    Timestamp time;
    /// Skipped inside a quarantine window: commit records a MissedPoll.
    bool quarantined = false;
    std::string missed_reason;
    /// Non-OK: fetch (after retries) or diff failed; commit runs the
    /// failure path (health counters, circuit breaker, PollError).
    Status failure;
    /// U_k, valid when !quarantined && failure.ok().
    ChangeSet delta;
    /// Retries consumed, merged into PollReport::retries at commit
    /// (PollHealth::retries is updated in place while preparing).
    size_t retries = 0;
    int64_t fetch_ns = 0;
    int64_t diff_ns = 0;
    /// obs::NowNs at PreparePoll entry — the origin of the end-to-end
    /// notify-latency attribution.
    int64_t start_ns = 0;
  };

  std::string GroupKey(const std::string& polling_query,
                       const FrequencySpec& frequency,
                       const std::string& subscriber_name) const;

  /// Runs one wave — a set of distinct groups all due at time t, in
  /// group-key order — through PreparePoll (on the executor, when one is
  /// configured and the wave has >1 group) and then CommitPoll for every
  /// group, in wave order. Never fails the caller: errors become
  /// PollReport entries / on_error calls.
  void RunWave(const std::vector<PollGroup*>& wave, Timestamp t,
               PollReport* report);

  /// Stage 1–3 of the pipeline for one group: circuit-breaker check,
  /// fetch with retries/backoff/deadline/validation, canonical wrap, and
  /// OEMdiff against the group's current snapshot. Safe to run
  /// concurrently for *distinct* groups: it mutates only the group's own
  /// state and serializes source access on source_mu_.
  PreparedPoll PreparePoll(PollGroup* group, Timestamp t);

  /// Attempts the source poll itself (with retries, deadline, and
  /// snapshot validation) per the retry policy. Each attempt's Poll and
  /// duration read from one critical section on source_mu_.
  Result<OemDatabase> AttemptPoll(PollGroup* group, Timestamp t,
                                  int max_attempts, PreparedPoll* pending);

  /// Stage 4 on the calling thread: apply (t, U_k) to the DOEM database,
  /// commit to the durable store, then hand the poll to the fan-out.
  void CommitPoll(PreparedPoll* pending, PollReport* report);

  /// Maps accumulated failures to the legacy Status surface: OK when the
  /// caller supplied a report or an on_error callback is configured,
  /// otherwise the first new error of this call.
  Status SettleReport(const PollReport& report, size_t first_new_error,
                      bool caller_has_report) const;

  /// Wraps a polled answer database into canonical form, in place: a
  /// fixed root with one arc per distinct entry name to a fixed
  /// container, which takes over the answer root's out-arcs in order;
  /// the answer root is erased. Fixed ids make keyed diffs stable across
  /// polls. O(root fan-out + entries). Internal if the answer holds a
  /// wrapper id; NotFound if the answer root has an in-arc.
  Result<OemDatabase> CanonicalWrap(OemDatabase answer,
                                    const PollGroup& group) const;

  /// After an explicit or trigger-driven wave at now_: the next scheduled
  /// poll of every group that committed is one interval later
  /// (t_{k+1} = t_k + interval, FrequencySpec) — the rule a recovered
  /// group resumes from.
  void Reanchor(const std::vector<PollGroup*>& wave);

  /// Erases groups whose retirement was deferred by an in-flight tick.
  void EraseRetired();
  void EraseGroup(const std::string& key);
  void PublishGroupGauges();

  InformationSource* source_;
  Timestamp now_;
  QssOptions options_;
  DiffMode diff_mode_;
  GroupFanout* fanout_ = nullptr;
  std::map<std::string, std::unique_ptr<PollGroup>> groups_;
  /// Depth of nested polling entry points on the service mutex; group
  /// retirement is deferred while > 0.
  int in_tick_ = 0;
  std::vector<std::string> retired_keys_;

  mutable std::recursive_mutex mu_;

  /// Serializes source access: the InformationSource is shared mutable
  /// state with no thread-safety obligation (see source.h), so each
  /// Poll() plus its LastPollDurationTicks() read is one critical
  /// section. Executor threads contend here only for the fetch itself;
  /// diffing runs outside the lock.
  std::mutex source_mu_;

  /// Instrument handles resolved once at construction (all null without
  /// a registry — every update is guarded). Counters and histograms are
  /// bumped from the serial commit phase; the circuit gauges also from
  /// PreparePoll on executor threads (instrument updates are atomic).
  struct Instruments {
    obs::Counter* polls_attempted = nullptr;
    obs::Counter* polls_ok = nullptr;
    obs::Counter* polls_failed = nullptr;
    obs::Counter* polls_missed = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* quarantine_trips = nullptr;
    obs::Counter* missed_log_dropped = nullptr;
    obs::Gauge* group_count = nullptr;
    obs::Gauge* group_entries = nullptr;
    obs::Gauge* circuits_open = nullptr;
    obs::Gauge* circuits_half_open = nullptr;
    obs::Histogram* fetch_ns = nullptr;
    obs::Histogram* diff_ns = nullptr;
    obs::Histogram* apply_ns = nullptr;
  };
  Instruments ins_;
};

}  // namespace qss
}  // namespace doem

#endif  // DOEM_QSS_POLL_GROUP_H_
