#ifndef DOEM_QSS_OPTIONS_H_
#define DOEM_QSS_OPTIONS_H_

#include <cstdint>

#include "chorel/chorel.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qss/executor.h"
#include "qss/health.h"
#include "store/store.h"

namespace doem {
namespace qss {

/// How much history each poll group's DOEM database retains — the
/// space-saving spectrum of Section 6.1.
enum class HistoryRetention {
  /// The full DOEM history since subscription time.
  kFull,
  /// Only the previous snapshot plus the latest delta, like the paper's
  /// first prototype ("supports only two snapshots ... per subscription").
  /// Filter queries can then only see the most recent changes.
  kTwoSnapshots,
};

/// Configuration shared by the layered QSS API (PollGroupManager +
/// SubscriberRegistry) and the QuerySubscriptionService facade. The
/// fifteen-odd knobs are grouped by concern.
struct QssOptions {
  /// Evaluation strategy for filter queries.
  chorel::Strategy strategy = chorel::Strategy::kDirect;
  HistoryRetention retention = HistoryRetention::kFull;
  /// Merge subscriptions with identical polling query and frequency into
  /// one shared DOEM database (Section 6.1, proposal (1)). When false,
  /// every subscriber gets a private poll group.
  bool merge_similar_polls = true;
  /// Deliver notifications with empty results too (default: only
  /// non-empty, as in Example 6.1 where the unchanged poll at t2
  /// notifies nobody).
  bool notify_empty = false;

  /// Query acceleration (DESIGN.md §6c, §6f).
  struct Acceleration {
    /// Maintain each group's cached Section 5.1 OEM encoding
    /// incrementally with each poll's delta — O(delta) per poll instead of
    /// a from-scratch rebuild over the whole accumulated history. false =
    /// ablation baseline. The annotation index is the DOEM's own and
    /// current either way. Either setting yields byte-identical
    /// histories, rows, and notifications.
    bool incremental_filter = true;
    /// Seed direct-strategy annotation expressions whose time variables
    /// are range-bounded by the where clause (the QSS shape: T > t[-1])
    /// from the DOEM's annotation index, instead of scanning every child
    /// per step. Applies to filters that run on the VM (vm_filter). Rows,
    /// their order and notifications are identical either way.
    bool seed_filter_from_index = true;
    /// Debug cross-check: after every poll, verify the incrementally
    /// maintained encoding and annotation index against from-scratch
    /// rebuilds; divergence surfaces as a filter PollError. Slow — for
    /// tests.
    bool verify_incremental_filter = false;
    /// Run filter queries on the bytecode VM (DESIGN.md §6f) when they
    /// compile, with tree-walker fallback. Byte-identical histories,
    /// rows, and notifications either way.
    bool vm_filter = true;
    /// Debug cross-check: verify every VM filter evaluation against the
    /// tree walker; divergence surfaces as a filter PollError. Slow —
    /// for tests.
    bool verify_vm_filter = false;
  };

  /// Fault tolerance (the source is autonomous and may fail;
  /// DESIGN.md §6a).
  struct FaultTolerance {
    /// Retry/backoff/deadline policy applied to every scheduled poll.
    RetryPolicy retry;
    /// Quarantine a poll group after this many consecutive failed polls
    /// (circuit breaker). 0 disables quarantine: failed polls keep being
    /// attempted on schedule forever.
    int quarantine_after = 3;
    /// How long a quarantined group sits out before a half-open probe,
    /// in clock ticks. Scheduled polls inside the window are recorded as
    /// MissedPoll; the DOEM history is untouched.
    int64_t quarantine_cooldown_ticks = 2;
    /// Invoked synchronously for every poll, filter-query, store, or
    /// Subscribe failure. When set (or when a PollReport is passed), the
    /// polling entry points return OK on poll failures — the tick always
    /// completes and errors flow through these channels instead.
    ErrorCallback on_error;
    /// Bound on PollHealth::missed: only the most recent N quarantine
    /// skips are kept, older entries are evicted (and tallied in
    /// PollHealth::missed_dropped and the qss.missed_log_dropped
    /// counter). 0 keeps the log unbounded.
    size_t max_missed_log = 64;
  };

  /// Durability (DESIGN.md §6e).
  struct Durability {
    /// Optional durable store (not owned; must outlive the service).
    /// When set, each poll group persists its DOEM history to the
    /// manager's store for the group key: the first Subscribe opens (and
    /// recovers) the store, adopting any committed history — the group
    /// resumes polling at the cadence-preserving next tick after the
    /// last committed poll instead of starting over — and every
    /// committed poll appends one durable record before the tick
    /// returns. A store commit failure does not fail the poll
    /// (availability over durability): it surfaces as a
    /// PollError::Kind::kStore and the store stays broken until
    /// reopened. Histories, rows, and notifications are byte-identical
    /// with or without a store, and across a crash + reopen at any byte
    /// offset — with one exception: a group that retires with its last
    /// subscriber keeps its stored history, and a group created again
    /// under the key resumes it, where an in-memory group starts over.
    store::StoreManager* store = nullptr;
  };

  /// Observability (DESIGN.md §6d).
  struct Observability {
    /// Optional metrics sink (not owned; must outlive the service).
    /// Feeds the qss.*, qss.group.*, and qss.server.* families and is
    /// handed to each group's Chorel engine for the
    /// chorel.*/encoding.* families. Purely observational:
    /// histories, rows, and notifications are byte-identical with or
    /// without it.
    obs::MetricsRegistry* metrics = nullptr;
    /// Optional span recorder (not owned; must outlive the service).
    /// Records qss.advance/poll_now/source_changed top-level spans with
    /// nested per-group prepare (fetch, diff) and commit (apply, filter)
    /// spans, exportable as Chrome trace JSON. Same determinism
    /// guarantee as `metrics`.
    obs::TraceRecorder* trace = nullptr;
    /// Optional structured event log (not owned; must outlive the
    /// service). Poll failures, quarantine transitions, store errors,
    /// subscriber churn, and group lifecycle land here as typed events
    /// (src/obs/log.h), exportable as JSON lines and over the wire via
    /// the server's admin frames. Same determinism guarantee as
    /// `metrics`.
    obs::EventLog* events = nullptr;
  };

  Acceleration acceleration;
  FaultTolerance fault_tolerance;
  Durability durability;
  Observability observability;

  // ---- Concurrency (DESIGN.md §6b) ------------------------------------

  /// Runs the parallelizable stage of every wave of due polls: each
  /// group's fetch (serialized on the source mutex), retry/backoff, and
  /// OEMdiff. Null runs the stage inline on the calling thread. The
  /// commit stage — DOEM apply, filter evaluation, notification fan-out,
  /// and report/health merging — always executes on the calling thread
  /// in group-key order, so any executor yields byte-identical
  /// histories, reports, and notification order to a serial run. Not
  /// owned; must outlive the service. Callbacks (notifications,
  /// on_error) keep firing on the thread that called the polling entry
  /// point.
  Executor* executor = nullptr;
};

}  // namespace qss
}  // namespace doem

#endif  // DOEM_QSS_OPTIONS_H_
