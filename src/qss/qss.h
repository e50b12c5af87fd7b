#ifndef DOEM_QSS_QSS_H_
#define DOEM_QSS_QSS_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "qss/options.h"
#include "qss/poll_group.h"
#include "qss/registry.h"
#include "qss/subscription.h"

namespace doem {
namespace qss {

/// The QSS server (Figure 7): subscription manager, query manager,
/// OEMdiff, DOEM manager, and Chorel engine, wired over one information
/// source and a simulated clock.
///
/// The polling pipeline per subscription and polling time t_k
/// (Figure 6):
///   1. send Q_l to the source, receive the snapshot R_k;
///   2. take R_{k-1} as the current snapshot of the DOEM database;
///   3. U_k = OEMdiff(R_{k-1}, R_k)  (keyed or structural, by source);
///   4. apply (t_k, U_k) to the DOEM database;
///   5. evaluate Q_c with t[0] = t_k, t[-1] = t_{k-1}, ... ;
///   6. notify the client if the result is non-empty.
///
/// Since the poll-group/subscriber split (DESIGN.md §6g) this class is a
/// thin, name-keyed facade over the two layers that own the pipeline:
///   - PollGroupManager — "what gets polled": poll groups, schedules,
///     fetch→diff→apply, fault tolerance, durability (steps 1–4);
///   - SubscriberRegistry — "who gets notified": handle-keyed
///     registrations, compiled-filter sharing, fan-out (steps 5–6).
/// The facade adds exactly one thing: a unique-name namespace mapped to
/// registry handles (duplicate names fail with
/// PollError::Kind::kDuplicateSubscription). Everything it does is
/// byte-identical — histories, rows, notification bytes and order — to
/// driving the layers directly.
class QuerySubscriptionService {
 public:
  QuerySubscriptionService(InformationSource* source, Timestamp start,
                           QssOptions options = {});

  /// Registers a subscription; its first poll is due at the current
  /// clock. Validates both queries. Fails if the name is taken.
  Status Subscribe(const Subscription& sub, NotificationCallback callback);

  /// Removes a subscription.
  Status Unsubscribe(const std::string& name);

  /// Advances the simulated clock, executing every poll that falls due,
  /// in time order, delivering notifications synchronously. Groups due
  /// at the same time form a wave whose fetch→diff stage runs on
  /// QssOptions::executor; results commit in group-key order, so the
  /// outcome is independent of the executor (DESIGN.md §6b).
  ///
  /// A failing source does not abort the tick: other groups still poll,
  /// other members still get their notifications, and the clock always
  /// reaches `t`. Failures accumulate into `*report` (if non-null) and
  /// fire the on_error callback. When neither channel is provided, the
  /// first failure is returned as the Status — after the whole tick has
  /// run.
  Status AdvanceTo(Timestamp t, PollReport* report = nullptr);

  /// Explicit-request mode (Section 6): polls one subscription now,
  /// regardless of its schedule. A committed poll restarts the cadence:
  /// the next scheduled poll is one interval later.
  Status PollNow(const std::string& name, PollReport* report = nullptr);

  /// Source-trigger mode (Section 6): the source signals that it changed,
  /// e.g. from a database trigger it does support. Every poll group that
  /// has not already polled at the current tick polls immediately, and
  /// restarts its cadence as PollNow does.
  Status NotifySourceChanged(PollReport* report = nullptr);

  Timestamp now() const { return manager_.now(); }

  /// Poll health of the group backing a subscription: circuit state,
  /// consecutive failures, last error, attempted/retried/missed counts.
  /// Default-constructed (healthy, all zero) if the name is unknown.
  PollHealth Health(const std::string& name) const;

  /// The DOEM database backing a subscription (null if unknown).
  const DoemDatabase* History(const std::string& name) const;
  /// The polling times t_1..t_k so far.
  std::vector<Timestamp> PollingTimes(const std::string& name) const;
  /// Number of distinct DOEM databases maintained (see
  /// QssOptions::merge_similar_polls).
  size_t GroupCount() const { return manager_.GroupCount(); }

  /// The registry handle behind a name (zero if unknown) — the bridge
  /// for callers migrating from the name-keyed facade to the layered
  /// API.
  SubscriptionHandle Handle(const std::string& name) const;

  /// The underlying layers, for callers that need the handle-keyed API
  /// (or per-group state) alongside the facade's name namespace.
  PollGroupManager& manager() { return manager_; }
  SubscriberRegistry& registry() { return registry_; }

 private:
  PollGroupManager manager_;
  SubscriberRegistry registry_;
  std::map<std::string, SubscriptionHandle> by_name_;
};

}  // namespace qss
}  // namespace doem

#endif  // DOEM_QSS_QSS_H_
