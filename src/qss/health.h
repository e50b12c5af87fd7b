#ifndef DOEM_QSS_HEALTH_H_
#define DOEM_QSS_HEALTH_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "oem/timestamp.h"

namespace doem {
namespace qss {

/// How QSS deals with a poll of an autonomous source that fails. The
/// paper's legacy sources (Section 6, Figure 7) are outside our control:
/// a wrapper may time out, return garbage, or be down for days. All
/// delays are expressed in simulated clock ticks, so every schedule is
/// deterministic and testable.
struct RetryPolicy {
  /// Total attempts per scheduled poll (1 = no retry).
  int max_attempts = 1;
  /// Simulated backoff before retry k (k >= 2): base << (k - 2) ticks,
  /// saturated at INT64_MAX; a non-positive base means no backoff.
  /// Backoff is sub-tick bookkeeping — it never moves the service clock
  /// or the poll timestamp, it is accounted in PollHealth::backoff_ticks.
  int64_t backoff_base_ticks = 0;
  /// A successful poll whose source reports a simulated duration above
  /// this is discarded as DeadlineExceeded. 0 disables the deadline.
  int64_t poll_deadline_ticks = 0;
};

/// Circuit-breaker state of one poll group.
enum class CircuitState {
  /// Healthy: polls run on schedule.
  kClosed,
  /// Quarantined: polls are skipped (recorded as MissedPoll) until the
  /// cool-down elapses.
  kOpen,
  /// Cool-down elapsed: the next due poll is a single probe attempt.
  kHalfOpen,
};

inline const char* CircuitStateToString(CircuitState s) {
  switch (s) {
    case CircuitState::kClosed:
      return "Closed";
    case CircuitState::kOpen:
      return "Open";
    case CircuitState::kHalfOpen:
      return "HalfOpen";
  }
  return "Unknown";
}

/// A scheduled poll that was skipped because its group was quarantined.
/// The DOEM history is untouched: the next successful poll diffs against
/// the last good snapshot, so no change is lost — only its detection is
/// delayed to the recovery poll's timestamp.
struct MissedPoll {
  Timestamp time;
  std::string reason;
};

/// Wall-clock phase breakdown of one committed poll, from the
/// PreparePoll stamp to the last notification delivered (DESIGN.md §6h).
/// All fields are measured nanoseconds — like PollReport's *_ns fields
/// they differ run to run and are excluded from determinism comparisons.
struct PollPhaseLatency {
  /// Source fetch including retries and their validation.
  int64_t fetch_ns = 0;
  /// Canonical wrap of R_k plus OEMdiff of R_{k-1} vs R_k.
  int64_t diff_ns = 0;
  /// DOEM apply + incremental cache maintenance + store commit.
  int64_t apply_ns = 0;
  /// Filter evaluations summed across the cohort.
  int64_t filter_ns = 0;
  /// The whole fan-out (filters + notification callbacks).
  int64_t fanout_ns = 0;
  /// Wire framing + transport send, summed across server-delivered
  /// notifications (0 for in-process subscribers).
  int64_t wire_ns = 0;
  /// PreparePoll entry to the return of the last notification callback —
  /// the end-to-end figure qss.notify.e2e_ns aggregates.
  int64_t e2e_ns = 0;
};

/// Health of one poll group, exposed per subscription via
/// QuerySubscriptionService::Health().
struct PollHealth {
  CircuitState state = CircuitState::kClosed;
  /// Consecutive scheduled polls that failed (reset on success).
  int consecutive_failures = 0;
  /// The most recent attempt failure (diagnostic; not cleared on
  /// recovery).
  Status last_error;
  /// When state == kOpen: first tick at which a probe may run.
  Timestamp quarantined_until;
  /// Scheduled polls that ran (successes + failures; not retries, not
  /// quarantine skips).
  size_t polls_attempted = 0;
  size_t polls_succeeded = 0;
  size_t polls_failed = 0;
  /// Extra source attempts beyond the first, across all polls.
  size_t retries = 0;
  /// Total simulated backoff spent (RetryPolicy::backoff_base_ticks),
  /// saturated at INT64_MAX.
  int64_t backoff_ticks = 0;
  /// The most recent quarantine skips, in time order, bounded to
  /// QssOptions::fault_tolerance.max_missed_log entries — older entries
  /// are evicted from the front and counted in missed_dropped.
  std::vector<MissedPoll> missed;
  /// Quarantine skips evicted from `missed` by the bound. Total skips
  /// ever = missed.size() + missed_dropped.
  size_t missed_dropped = 0;
  /// Phase timings of the most recent poll that ran (attempted, not
  /// quarantine-skipped). Measured wall clock — excluded from
  /// determinism comparisons.
  PollPhaseLatency last_poll;
};

/// One failure surfaced during a tick or a registration call: a poll of
/// a group failed (after exhausting retries), one member's filter query
/// failed, the group's durable store could not commit the poll, or a
/// Subscribe was rejected.
struct PollError {
  enum class Kind {
    /// The poll pipeline failed; `subject` is the comma-joined entry
    /// list of the group.
    kPoll,
    /// A filter query failed at poll time (`subject` is the member
    /// subscription), or the group's filter-cache maintenance failed its
    /// patch or verify cross-check (`subject` is the comma-joined entry
    /// list; the poll itself still succeeds — the caches rebuild on the
    /// next filter run).
    kFilter,
    /// The durable store failed to commit a poll's record (`subject` is
    /// the comma-joined entry list). Availability over durability: the
    /// poll itself stands — history, rows, and notifications are
    /// unaffected — but the store is broken until the group's store is
    /// reopened, and a crash now loses polls since the failure.
    kStore,
    /// Subscribe rejected: the subscription name is already registered
    /// (`subject` is the name). Only the name-keyed facade and the
    /// server's per-connection namespace enforce uniqueness; the
    /// handle-keyed registry accepts duplicates by design.
    kDuplicateSubscription,
    /// Subscribe rejected: the Lorel polling query did not validate
    /// (parse error, or annotation expressions outside the filter).
    kBadPollingQuery,
    /// Subscribe rejected: the Chorel filter query did not compile.
    kBadFilterQuery,
  };
  Kind kind = Kind::kPoll;
  std::string subject;
  Timestamp time;
  Status status;
};

inline const char* PollErrorKindToString(PollError::Kind k) {
  switch (k) {
    case PollError::Kind::kPoll:
      return "poll";
    case PollError::Kind::kFilter:
      return "filter";
    case PollError::Kind::kStore:
      return "store";
    case PollError::Kind::kDuplicateSubscription:
      return "duplicate-subscription";
    case PollError::Kind::kBadPollingQuery:
      return "bad-polling-query";
    case PollError::Kind::kBadFilterQuery:
      return "bad-filter-query";
  }
  return "unknown";
}

/// Invoked synchronously for every PollError as it happens.
using ErrorCallback = std::function<void(const PollError&)>;

/// Aggregated outcome of AdvanceTo / PollNow / NotifySourceChanged.
/// Counters accumulate if the same report object is reused across calls.
struct PollReport {
  size_t polls_attempted = 0;
  size_t polls_ok = 0;
  size_t polls_failed = 0;
  /// Scheduled polls skipped because their group was quarantined.
  size_t polls_missed = 0;
  size_t retries = 0;
  size_t notifications = 0;
  /// Wall-clock nanoseconds spent in each pipeline phase, summed across
  /// poll groups: fetch covers source polls including retries and their
  /// validation, diff the canonical wrap of R_k plus the OEMdiff of
  /// R_{k-1} vs R_k, apply the DOEM incorporation plus the
  /// incremental engine-cache maintenance, filter the evaluation of every
  /// member's filter query. With a parallel executor the per-phase sums
  /// can exceed the elapsed time of the call (phases overlap across
  /// groups). Unlike every other field, these are measured, not
  /// simulated: they differ run to run and are excluded from determinism
  /// comparisons.
  int64_t fetch_ns = 0;
  int64_t diff_ns = 0;
  int64_t apply_ns = 0;
  int64_t filter_ns = 0;
  /// Whole-call wall-clock nanoseconds of each AdvanceTo / PollNow /
  /// NotifySourceChanged call, summed if the report is reused. Covers
  /// scheduling overhead the per-phase timers miss. Measured, not
  /// simulated — excluded from determinism comparisons like the per-phase
  /// timers above.
  int64_t elapsed_ns = 0;
  std::vector<PollError> errors;

  bool all_ok() const { return errors.empty(); }
  Status FirstError() const {
    return errors.empty() ? Status::OK() : errors.front().status;
  }
};

}  // namespace qss
}  // namespace doem

#endif  // DOEM_QSS_HEALTH_H_
