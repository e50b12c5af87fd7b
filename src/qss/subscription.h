#ifndef DOEM_QSS_SUBSCRIPTION_H_
#define DOEM_QSS_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>
#include <string>

#include "lorel/eval.h"
#include "oem/timestamp.h"
#include "qss/frequency.h"

namespace doem {
namespace qss {

/// A subscription S = <f, Q_l, Q_c> (paper Section 6): a frequency
/// specification, a Lorel polling query, and a Chorel filter query. The
/// name identifies the subscription; the filter query's paths start with
/// the *entry* label — the name of the DOEM database the filter sees
/// (LyttonRestaurants.restaurant<cre at T> ...). When `entry` is empty it
/// defaults to `name`, the paper's one-name-per-subscription shape; a
/// subscriber cohort that shares one filter text sets a common entry so
/// their compiled filters (and per-poll evaluations) are shared.
struct Subscription {
  std::string name;
  /// Filter entry label; empty means `name`.
  std::string entry;
  FrequencySpec frequency;
  std::string polling_query;
  std::string filter_query;

  const std::string& entry_name() const { return entry.empty() ? name : entry; }
};

/// An opaque ticket identifying one registered subscriber. Returned by
/// SubscriberRegistry::Subscribe and accepted everywhere the legacy API
/// took a name string; ids are never reused within one registry.
struct SubscriptionHandle {
  uint64_t id = 0;

  explicit operator bool() const { return id != 0; }
  bool operator==(const SubscriptionHandle&) const = default;
  bool operator<(const SubscriptionHandle& o) const { return id < o.id; }
};

/// What a Query Subscription Client receives when a filter query produces
/// results at a polling time.
struct Notification {
  /// The registration handle of the subscriber notified; every
  /// notification carries one, the facade's included.
  SubscriptionHandle handle;
  std::string subscription;
  Timestamp poll_time;
  size_t poll_index = 0;  // 1-based k of t_k
  lorel::QueryResult result;
};

using NotificationCallback = std::function<void(const Notification&)>;

}  // namespace qss
}  // namespace doem

#endif  // DOEM_QSS_SUBSCRIPTION_H_
