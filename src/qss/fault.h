#ifndef DOEM_QSS_FAULT_H_
#define DOEM_QSS_FAULT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "qss/source.h"

namespace doem {
namespace qss {

/// What a scripted fault does to a matching Poll() call.
enum class FaultKind {
  /// Return the spec's error Status instead of polling.
  kError,
  /// Poll normally but report `duration_ticks` as the simulated poll
  /// duration, so a QSS deadline (RetryPolicy::poll_deadline_ticks)
  /// discards the result.
  kSlowPoll,
  /// Return a truncated snapshot (nodes but no root) instead of the real
  /// answer — a wrapper that died mid-transfer.
  kGarbage,
};

/// One entry of a deterministic fault schedule, matched against the
/// sequence of Poll() calls (each retry is its own call). Every spec
/// keeps its own match counter: it lets `skip` matching calls through,
/// then fires on the next `count` of them (0 = forever).
struct FaultSpec {
  FaultKind kind = FaultKind::kError;
  size_t skip = 0;
  size_t count = 1;
  /// For kError; must be non-OK (substituted with Unavailable if OK).
  Status error = Status::Unavailable("injected fault");
  /// For kSlowPoll.
  int64_t duration_ticks = 0;
  /// Only polls whose query contains this substring match (empty = all).
  /// Distinguishes poll groups sharing one source in multi-group tests.
  std::string query_contains;
};

/// Decorator that wraps any InformationSource with a scripted fault
/// schedule plus call-count bookkeeping, for deterministic
/// fault-injection tests and benchmarks. The first spec that fires on a
/// call wins; unmatched calls are forwarded to the inner source.
///
/// Determinism under a parallel executor: QSS serializes Poll() calls,
/// and each poll group's own calls arrive in a fixed order — but calls
/// of *different* groups within one wave interleave in thread-scheduling
/// order. A spec with an empty `query_contains` counts calls across all
/// groups and may therefore fire on a different group from run to run;
/// give every spec a `query_contains` that pins it to one group's
/// polling query when a test asserts serial/parallel equality.
class FaultInjectingSource : public InformationSource {
 public:
  explicit FaultInjectingSource(InformationSource* inner) : inner_(inner) {}

  void AddFault(FaultSpec spec) { faults_.push_back({std::move(spec), 0}); }

  /// Shorthand for the common schedule: `count` error polls after `skip`.
  void FailPolls(size_t skip, size_t count,
                 Status error = Status::Unavailable("injected fault"),
                 std::string query_contains = "");

  Result<OemDatabase> Poll(const std::string& lorel_query,
                           Timestamp now) override;
  /// Fault matching stays on the query text (`query_contains`); the
  /// group key is forwarded to the inner source untouched.
  Result<OemDatabase> PollForGroup(const std::string& group_key,
                                   const std::string& lorel_query,
                                   Timestamp now) override;
  bool PreservesIds() const override { return inner_->PreservesIds(); }
  int64_t LastPollDurationTicks() const override { return last_duration_; }

  // ---- Bookkeeping for assertions -------------------------------------

  /// Total Poll() calls observed (including injected ones).
  size_t calls() const { return calls_; }
  /// Calls that reached the inner source.
  size_t forwarded() const { return forwarded_; }
  size_t injected_errors() const { return injected_errors_; }
  size_t injected_garbage() const { return injected_garbage_; }
  size_t injected_slow() const { return injected_slow_; }

 private:
  struct ActiveSpec {
    FaultSpec spec;
    size_t matched = 0;
  };

  InformationSource* inner_;
  std::vector<ActiveSpec> faults_;
  int64_t last_duration_ = 0;
  size_t calls_ = 0;
  size_t forwarded_ = 0;
  size_t injected_errors_ = 0;
  size_t injected_garbage_ = 0;
  size_t injected_slow_ = 0;
};

}  // namespace qss
}  // namespace doem

#endif  // DOEM_QSS_FAULT_H_
