#include "qss/registry.h"

#include <algorithm>
#include <unordered_map>

#include "lorel/lorel.h"
#include "obs/clock.h"
#include "obs/log.h"

namespace doem {
namespace qss {

namespace {

// A polling query must be plain Lorel: it runs against the autonomous
// source, which has no annotations.
Status ValidatePollingQuery(const std::string& text) {
  auto nq = lorel::ParseAndNormalize(text);
  if (!nq.ok()) {
    return Status(nq.status().code(),
                  "polling query: " + nq.status().message());
  }
  for (const lorel::RangeDef& def : nq->defs) {
    if (def.step.arc_annot || def.step.node_annot) {
      return Status::InvalidArgument(
          "polling query must be plain Lorel; annotation expressions "
          "belong in the filter query");
    }
  }
  return Status::OK();
}

}  // namespace

SubscriberRegistry::SubscriberRegistry(PollGroupManager* manager)
    : manager_(manager) {
  manager_->set_fanout(this);
  obs::MetricsRegistry* m = manager_->options().observability.metrics;
  if (m == nullptr) return;
  ins_.notifications =
      m->GetCounter("qss.notifications", "notifications delivered to clients");
  ins_.filter_evals = m->GetCounter(
      "qss.group.filter_evals",
      "distinct compiled-filter evaluations across polls (one per cohort)");
  ins_.filter_shared = m->GetCounter(
      "qss.group.filter_shared",
      "subscriber deliveries served from a cohort-shared filter evaluation");
  ins_.subscribers = m->GetGauge(
      "qss.group.subscribers", "subscribers registered across all poll groups");
  ins_.filter_ns = m->GetHistogram(
      "qss.filter_ns", obs::LatencyBucketsNs(),
      "per-member filter evaluation wall time, ns");
  ins_.fanout_ns = m->GetHistogram(
      "qss.group.fanout_ns", obs::LatencyBucketsNs(),
      "per-poll fan-out wall time: filter evaluations + notifications, ns");
  ins_.notify_e2e_ns = m->GetHistogram(
      "qss.notify.e2e_ns", obs::LatencyBucketsNs(),
      "per-notification end-to-end latency, PreparePoll entry to callback "
      "return (incl. wire framing for server subscribers), ns");
  ins_.notify_fetch_ns = m->GetHistogram(
      "qss.notify.fetch_ns", obs::LatencyBucketsNs(),
      "e2e segment: the notifying poll's source fetch (incl. retries), ns");
  ins_.notify_diff_ns = m->GetHistogram(
      "qss.notify.diff_ns", obs::LatencyBucketsNs(),
      "e2e segment: the notifying poll's wrap + OEMdiff, ns");
  ins_.notify_apply_ns = m->GetHistogram(
      "qss.notify.apply_ns", obs::LatencyBucketsNs(),
      "e2e segment: the notifying poll's DOEM apply + cache maintenance, ns");
  ins_.notify_filter_ns = m->GetHistogram(
      "qss.notify.filter_ns", obs::LatencyBucketsNs(),
      "e2e segment: this member's filter evaluation (near zero when served "
      "from a cohort-shared evaluation), ns");
  ins_.notify_fanout_ns = m->GetHistogram(
      "qss.notify.fanout_ns", obs::LatencyBucketsNs(),
      "e2e segment: fan-out start to this notification's delivery, ns");
}

SubscriberRegistry::~SubscriberRegistry() { manager_->set_fanout(nullptr); }

void SubscriberRegistry::EmitSubscribeError(PollError::Kind kind,
                                            const std::string& subject,
                                            const Status& status) const {
  DOEM_LOG_EVENT(manager_->options().observability.events,
                 obs::EventType::kSubscribeRejected,
                 obs::EventSeverity::kWarning, manager_->now(), subject,
                 std::string(PollErrorKindToString(kind)) + ": " +
                     status.ToString());
  const ErrorCallback& on_error =
      manager_->options().fault_tolerance.on_error;
  if (!on_error) return;
  PollError error;
  error.kind = kind;
  error.subject = subject;
  error.time = manager_->now();
  error.status = status;
  on_error(error);
}

Result<SubscriptionHandle> SubscriberRegistry::Subscribe(
    const Subscription& sub, NotificationCallback callback) {
  std::lock_guard<std::recursive_mutex> lock(manager_->service_mutex());
  Status polling = ValidatePollingQuery(sub.polling_query);
  if (!polling.ok()) {
    EmitSubscribeError(PollError::Kind::kBadPollingQuery, sub.name, polling);
    return polling;
  }
  // Compile (or share) the filter before acquiring the group, so a bad
  // filter never creates a group — or opens a durable store — as a side
  // effect. An existing group answers from its pool (one compile per
  // cohort); only the group-creating subscriber pays a standalone parse.
  std::shared_ptr<chorel::CompiledQuery> filter;
  chorel::CompiledQuery compiled;
  PollGroup* existing =
      manager_->Find(sub.polling_query, sub.frequency, sub.name);
  if (existing != nullptr) {
    auto pooled = existing->filters.Get(sub.filter_query);
    if (!pooled.ok()) {
      Status bad(pooled.status().code(),
                 "filter query: " + pooled.status().message());
      EmitSubscribeError(PollError::Kind::kBadFilterQuery, sub.name, bad);
      return bad;
    }
    filter = std::move(pooled).value();
  } else {
    auto fresh = chorel::CompileChorel(sub.filter_query);
    if (!fresh.ok()) {
      Status bad(fresh.status().code(),
                 "filter query: " + fresh.status().message());
      EmitSubscribeError(PollError::Kind::kBadFilterQuery, sub.name, bad);
      return bad;
    }
    compiled = std::move(fresh).value();
  }
  auto group = manager_->Acquire(sub.polling_query, sub.frequency,
                                 sub.entry_name(), sub.name);
  if (!group.ok()) {
    EmitSubscribeError(PollError::Kind::kStore, sub.name, group.status());
    return group.status();
  }
  if (filter == nullptr) {
    filter = (*group)->filters.Intern(sub.filter_query, std::move(compiled));
  }
  SubscriptionHandle handle{next_id_++};
  SubEntry entry;
  entry.sub = sub;
  entry.callback = std::move(callback);
  entry.group = *group;
  entry.filter = std::move(filter);
  members_[(*group)->key].push_back(handle.id);
  subs_.emplace(handle.id, std::move(entry));
  obs::SetGauge(ins_.subscribers, static_cast<int64_t>(subs_.size()));
  DOEM_LOG_EVENT(manager_->options().observability.events,
                 obs::EventType::kSubscribed, obs::EventSeverity::kInfo,
                 manager_->now(), sub.name, "group=" + (*group)->key);
  return handle;
}

Status SubscriberRegistry::Unsubscribe(SubscriptionHandle handle) {
  std::lock_guard<std::recursive_mutex> lock(manager_->service_mutex());
  auto it = subs_.find(handle.id);
  if (it == subs_.end()) {
    return Status::NotFound("no subscription with handle " +
                            std::to_string(handle.id));
  }
  PollGroup* group = it->second.group;
  auto mit = members_.find(group->key);
  if (mit != members_.end()) {
    auto& ids = mit->second;
    ids.erase(std::find(ids.begin(), ids.end(), handle.id));
    if (ids.empty()) members_.erase(mit);
  }
  std::string entry_name = it->second.sub.entry_name();
  std::string sub_name = it->second.sub.name;
  subs_.erase(it);
  manager_->Release(group, entry_name);
  obs::SetGauge(ins_.subscribers, static_cast<int64_t>(subs_.size()));
  DOEM_LOG_EVENT(manager_->options().observability.events,
                 obs::EventType::kUnsubscribed, obs::EventSeverity::kInfo,
                 manager_->now(), sub_name, "");
  return Status::OK();
}

const Subscription* SubscriberRegistry::Find(SubscriptionHandle handle) const {
  std::lock_guard<std::recursive_mutex> lock(manager_->service_mutex());
  auto it = subs_.find(handle.id);
  return it == subs_.end() ? nullptr : &it->second.sub;
}

PollGroup* SubscriberRegistry::GroupOf(SubscriptionHandle handle) const {
  std::lock_guard<std::recursive_mutex> lock(manager_->service_mutex());
  auto it = subs_.find(handle.id);
  return it == subs_.end() ? nullptr : it->second.group;
}

size_t SubscriberRegistry::SubscriberCount() const {
  std::lock_guard<std::recursive_mutex> lock(manager_->service_mutex());
  return subs_.size();
}

void SubscriberRegistry::FanOut(PollGroup* group, Timestamp t,
                                PollReport* report) {
  const QssOptions& options = manager_->options();
  int64_t fanout_start = obs::NowNs();
  // Snapshot the cohort: callbacks may re-enter Subscribe/Unsubscribe
  // (the service mutex is recursive). Members subscribed during this
  // fan-out first hear about the *next* poll; members unsubscribed
  // mid-flight are skipped by the liveness check below.
  auto mit = members_.find(group->key);
  if (mit == members_.end()) return;
  std::vector<uint64_t> cohort = mit->second;
  // 5. Chorel engine: evaluate each *distinct* compiled filter once per
  // poll on the group's persistent engine; every subscriber sharing it
  // gets a copy of that result. Evaluation is deterministic, so the
  // notifications are byte-identical to evaluating per subscriber. One
  // cohort's failure must not starve the rest: collect the error, keep
  // going.
  std::unordered_map<const chorel::CompiledQuery*,
                     Result<lorel::QueryResult>>
      evaluated;
  for (uint64_t id : cohort) {
    auto it = subs_.find(id);
    if (it == subs_.end()) continue;  // unsubscribed by an earlier callback
    SubEntry& state = it->second;
    const std::string& member = state.sub.name;
    int64_t filter_start = obs::NowNs();
    auto cached = evaluated.find(state.filter.get());
    bool shared = cached != evaluated.end();
    if (!shared) {
      lorel::EvalOptions opts;
      opts.polling_times = &group->polls;
      auto result = [&] {
        obs::TraceSpan filter_span(options.observability.trace, "qss.filter",
                                   "qss", t, member);
        return group->engine->RunCompiled(state.filter.get(),
                                          options.strategy, opts);
      }();
      cached = evaluated.emplace(state.filter.get(), std::move(result)).first;
      obs::Count(ins_.filter_evals);
    } else {
      obs::Count(ins_.filter_shared);
    }
    int64_t filter_ns = obs::ElapsedNs(filter_start);
    report->filter_ns += filter_ns;
    group->health.last_poll.filter_ns += filter_ns;
    obs::Observe(ins_.filter_ns, filter_ns);
    const Result<lorel::QueryResult>& result = cached->second;
    if (!result.ok()) {
      PollError error;
      error.kind = PollError::Kind::kFilter;
      error.subject = member;
      error.time = t;
      error.status = Status(result.status().code(),
                            "filter query of '" + member +
                                "': " + result.status().message());
      report->errors.push_back(error);
      if (options.fault_tolerance.on_error) {
        options.fault_tolerance.on_error(error);
      }
      DOEM_LOG_EVENT(options.observability.events,
                     obs::EventType::kFilterError,
                     obs::EventSeverity::kWarning, t, member,
                     error.status.ToString());
      continue;
    }
    // 6. Notify. Invoke a copy of the callback: the callback may
    // unsubscribe its own subscription, which erases `state` and would
    // otherwise destroy the std::function while it is executing.
    if (!result->rows.empty() || options.notify_empty) {
      if (state.callback) {
        Notification n;
        n.handle = SubscriptionHandle{id};
        n.subscription = member;
        n.poll_time = t;
        n.poll_index = group->polls.size();
        n.result = *result;
        NotificationCallback callback = state.callback;
        callback(n);
        ++report->notifications;
        obs::Count(ins_.notifications);
        // End-to-end attribution: measured *after* the callback returns,
        // so a server callback's wire framing + send is inside the
        // figure. The segments (fetch/diff/apply from the committed
        // poll, this member's filter, fan-out-so-far, and the wire
        // segment the server adds to last_poll) decompose it.
        int64_t delivered_ns = obs::NowNs();
        int64_t e2e_ns = delivered_ns - group->last_prepare_start_ns;
        group->health.last_poll.e2e_ns = e2e_ns;
        obs::Observe(ins_.notify_e2e_ns, e2e_ns);
        obs::Observe(ins_.notify_fetch_ns, group->health.last_poll.fetch_ns);
        obs::Observe(ins_.notify_diff_ns, group->health.last_poll.diff_ns);
        obs::Observe(ins_.notify_apply_ns, group->health.last_poll.apply_ns);
        obs::Observe(ins_.notify_filter_ns, filter_ns);
        obs::Observe(ins_.notify_fanout_ns, delivered_ns - fanout_start);
      }
    }
  }
  int64_t fanout_ns = obs::ElapsedNs(fanout_start);
  group->health.last_poll.fanout_ns = fanout_ns;
  obs::Observe(ins_.fanout_ns, fanout_ns);
}

}  // namespace qss
}  // namespace doem
