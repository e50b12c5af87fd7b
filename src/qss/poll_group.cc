#include "qss/poll_group.h"

#include <algorithm>
#include <limits>

#include "lorel/lorel.h"
#include "obs/clock.h"
#include "obs/log.h"

namespace doem {
namespace qss {

namespace {

// Fixed identifiers for the canonical wrapper nodes, far above any id a
// source will produce. Keeping them stable across polls is what makes
// keyed diffs of successive results well-defined.
constexpr NodeId kQssRoot = NodeId{1} << 62;
constexpr NodeId kQssContainer = kQssRoot + 1;

constexpr int64_t kMaxTicks = std::numeric_limits<int64_t>::max();

// The simulated backoff before retry `attempt` (>= 2): base << (attempt
// - 2) ticks, saturated at INT64_MAX. A non-positive base means none.
int64_t RetryBackoff(int64_t base, int attempt) {
  if (base <= 0) return 0;
  const int shift = attempt - 2;
  if (shift >= 63 || base > (kMaxTicks >> shift)) return kMaxTicks;
  return base << shift;
}

// a + b for non-negative a and b, saturated at INT64_MAX.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  return b > kMaxTicks - a ? kMaxTicks : a + b;
}

}  // namespace

std::string PollGroup::JoinedEntries() const {
  std::string out;
  for (const auto& [name, refs] : entries) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

PollGroupManager::PollGroupManager(InformationSource* source, Timestamp start,
                                   QssOptions options)
    : source_(source),
      now_(start),
      options_(std::move(options)),
      diff_mode_(source->PreservesIds() ? DiffMode::kKeyed
                                        : DiffMode::kStructural) {
  obs::MetricsRegistry* m = options_.observability.metrics;
  if (m == nullptr) return;
  ins_.polls_attempted = m->GetCounter(
      "qss.polls_attempted", "scheduled polls that ran (not quarantine skips)");
  ins_.polls_ok = m->GetCounter("qss.polls_ok", "polls that committed");
  ins_.polls_failed =
      m->GetCounter("qss.polls_failed", "polls that failed after retries");
  ins_.polls_missed = m->GetCounter(
      "qss.polls_missed", "scheduled polls skipped inside quarantine windows");
  ins_.retries = m->GetCounter(
      "qss.retries", "extra source attempts beyond the first, across polls");
  ins_.quarantine_trips = m->GetCounter(
      "qss.quarantine_trips", "circuit-breaker trips into the Open state");
  ins_.missed_log_dropped = m->GetCounter(
      "qss.missed_log_dropped",
      "missed-poll log entries evicted by "
      "QssOptions::fault_tolerance.max_missed_log");
  ins_.group_count = m->GetGauge(
      "qss.group.count",
      "distinct poll groups — one DOEM history and Chorel engine each");
  ins_.group_entries = m->GetGauge(
      "qss.group.entries", "distinct filter entry names across all groups");
  ins_.circuits_open =
      m->GetGauge("qss.circuits_open", "poll groups currently quarantined");
  ins_.circuits_half_open = m->GetGauge(
      "qss.circuits_half_open", "poll groups currently probing (half-open)");
  ins_.fetch_ns = m->GetHistogram(
      "qss.fetch_ns", obs::LatencyBucketsNs(),
      "per-poll source fetch wall time (incl. retries), ns");
  ins_.diff_ns = m->GetHistogram("qss.diff_ns", obs::LatencyBucketsNs(),
                                 "per-poll wrap + OEMdiff wall time, ns");
  ins_.apply_ns = m->GetHistogram(
      "qss.apply_ns", obs::LatencyBucketsNs(),
      "per-poll DOEM apply + cache maintenance wall time, ns");
}

std::string PollGroupManager::GroupKey(
    const std::string& polling_query, const FrequencySpec& frequency,
    const std::string& subscriber_name) const {
  if (!options_.merge_similar_polls) return "sub:" + subscriber_name;
  return polling_query + "\x1f" + std::to_string(frequency.interval_ticks);
}

void PollGroupManager::PublishGroupGauges() {
  obs::SetGauge(ins_.group_count, static_cast<int64_t>(groups_.size()));
  if (ins_.group_entries != nullptr) {
    int64_t entries = 0;
    for (const auto& [key, group] : groups_) {
      entries += static_cast<int64_t>(group->entries.size());
    }
    ins_.group_entries->Set(entries);
  }
}

PollGroup* PollGroupManager::Find(const std::string& polling_query,
                                  const FrequencySpec& frequency,
                                  const std::string& subscriber_name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = groups_.find(GroupKey(polling_query, frequency, subscriber_name));
  if (it == groups_.end() || it->second->retired) return nullptr;
  return it->second.get();
}

Result<PollGroup*> PollGroupManager::Acquire(
    const std::string& polling_query, const FrequencySpec& frequency,
    const std::string& entry_name, const std::string& subscriber_name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string key = GroupKey(polling_query, frequency, subscriber_name);
  auto it = groups_.find(key);
  if (it != groups_.end()) {
    PollGroup* group = it->second.get();
    if (group->retired) {
      // Subscribed again inside the tick that retired it. A wave may still
      // hold the group, so revive it in place rather than replace it: one
      // key never has two groups (or two stores).
      group->retired = false;
      std::erase(retired_keys_, key);
      CircuitState state = group->health.state;
      if (state == CircuitState::kOpen) obs::AddGauge(ins_.circuits_open, 1);
      if (state == CircuitState::kHalfOpen) {
        obs::AddGauge(ins_.circuits_half_open, 1);
      }
    }
    ++group->subscriber_count;
    auto eit = std::find_if(
        group->entries.begin(), group->entries.end(),
        [&](const auto& e) { return e.first == entry_name; });
    if (eit != group->entries.end()) {
      ++eit->second;
    } else {
      group->entries.emplace_back(entry_name, 1);
    }
    PublishGroupGauges();
    return group;
  }
  auto group = std::make_unique<PollGroup>();
  group->key = key;
  group->polling_query = polling_query;
  group->frequency = frequency;
  group->next_poll = frequency.FirstPoll(now_);
  group->entries.emplace_back(entry_name, 1);
  group->subscriber_count = 1;
  if (options_.durability.store != nullptr) {
    auto opened = options_.durability.store->OpenStore(key);
    if (!opened.ok()) {
      return Status(opened.status().code(),
                    "durable store for group '" + key +
                        "': " + opened.status().message());
    }
    group->store = std::move(opened).value();
  }
  if (group->store != nullptr && group->store->has_state()) {
    // Resume from the committed history instead of starting over. The
    // next poll keeps the group's cadence: the tick after the last
    // committed poll, even if that is already in the past (AdvanceTo
    // then runs the catch-up waves at their scheduled times).
    group->polls = group->store->recovered_times();
    group->doem = group->store->TakeRecoveredDb();
    if (!group->polls.empty()) {
      group->next_poll = frequency.NextPoll(group->polls.back());
    }
  } else {
    // R_0: the canonical wrapper with an empty container (the "empty OEM
    // database" of Section 6, anchored so reachability-deletion works).
    OemDatabase base;
    DOEM_RETURN_IF_ERROR(base.CreNode(kQssRoot, Value::Complex()));
    DOEM_RETURN_IF_ERROR(base.CreNode(kQssContainer, Value::Complex()));
    DOEM_RETURN_IF_ERROR(base.SetRoot(kQssRoot));
    DOEM_RETURN_IF_ERROR(base.AddArc(kQssRoot, entry_name, kQssContainer));
    auto doem = DoemDatabase::FromSnapshot(std::move(base));
    if (!doem.ok()) return doem.status();
    group->doem = std::move(doem).value();
    if (group->store != nullptr) {
      DOEM_RETURN_IF_ERROR(group->store->Start(group->doem));
    }
  }
  chorel::ChorelEngineOptions eopts;
  eopts.incremental = options_.acceleration.incremental_filter;
  eopts.seed_from_index = options_.acceleration.seed_filter_from_index;
  eopts.verify_incremental = options_.acceleration.verify_incremental_filter;
  eopts.use_vm = options_.acceleration.vm_filter;
  eopts.verify_vm = options_.acceleration.verify_vm_filter;
  eopts.metrics = options_.observability.metrics;
  group->engine = std::make_unique<chorel::ChorelEngine>(group->doem, eopts);
  PollGroup* out = group.get();
  groups_[key] = std::move(group);
  PublishGroupGauges();
  DOEM_LOG_EVENT(options_.observability.events, obs::EventType::kGroupCreated,
                 obs::EventSeverity::kInfo, now_, out->key,
                 "entries=" + out->JoinedEntries());
  return out;
}

void PollGroupManager::Release(PollGroup* group,
                               const std::string& entry_name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (group == nullptr || group->retired) return;
  auto eit = std::find_if(group->entries.begin(), group->entries.end(),
                          [&](const auto& e) { return e.first == entry_name; });
  if (eit != group->entries.end() && --eit->second == 0) {
    group->entries.erase(eit);
  }
  if (group->subscriber_count > 0) --group->subscriber_count;
  if (group->subscriber_count == 0) {
    // Retire the group's contribution to the circuit gauges with it.
    CircuitState state = group->health.state;
    if (state == CircuitState::kOpen) obs::AddGauge(ins_.circuits_open, -1);
    if (state == CircuitState::kHalfOpen) {
      obs::AddGauge(ins_.circuits_half_open, -1);
    }
    if (in_tick_ > 0) {
      // A wave may still hold a PreparedPoll for this group; keep the
      // object alive and out of scheduling until the tick unwinds.
      group->retired = true;
      retired_keys_.push_back(group->key);
    } else {
      EraseGroup(group->key);
    }
  }
  PublishGroupGauges();
}

void PollGroupManager::EraseGroup(const std::string& key) {
  auto it = groups_.find(key);
  if (it != groups_.end()) {
    // `key` may alias the erased group's own key member (callers pass
    // group->key), so copy it out before the erase destroys the group.
    std::string retired = it->first;
    groups_.erase(it);
    DOEM_LOG_EVENT(options_.observability.events,
                   obs::EventType::kGroupRetired, obs::EventSeverity::kInfo,
                   now_, retired, "");
  }
  PublishGroupGauges();
}

void PollGroupManager::Reanchor(const std::vector<PollGroup*>& wave) {
  for (PollGroup* group : wave) {
    if (!group->polls.empty() && group->polls.back() == now_) {
      group->next_poll = group->frequency.NextPoll(now_);
    }
  }
}

void PollGroupManager::EraseRetired() {
  for (const std::string& key : retired_keys_) {
    EraseGroup(key);
  }
  retired_keys_.clear();
}

Result<OemDatabase> PollGroupManager::CanonicalWrap(
    OemDatabase answer, const PollGroup& group) const {
  if (answer.HasNode(kQssRoot) || answer.HasNode(kQssContainer)) {
    return Status::Internal("source id space collides with QSS wrapper ids");
  }
  // The answer root is replaced, so an arc into it (a self-loop too)
  // would lose its target: NotFound, as for an arc to a missing child.
  const NodeId ans_root = answer.root();
  if (answer.InDegree(ans_root) != 0) {
    return Status::NotFound("addArc: no child node " +
                            std::to_string(ans_root));
  }
  DOEM_RETURN_IF_ERROR(answer.CreNode(kQssRoot, Value::Complex()));
  DOEM_RETURN_IF_ERROR(answer.CreNode(kQssContainer, Value::Complex()));
  DOEM_RETURN_IF_ERROR(answer.MoveOutArcs(ans_root, kQssContainer));
  DOEM_RETURN_IF_ERROR(answer.SetRoot(kQssRoot));
  DOEM_RETURN_IF_ERROR(answer.EraseNodeForce(ans_root));
  for (const auto& [entry, refs] : group.entries) {
    DOEM_RETURN_IF_ERROR(answer.AddArc(kQssRoot, entry, kQssContainer));
  }
  return answer;
}

Result<OemDatabase> PollGroupManager::AttemptPoll(PollGroup* group,
                                                  Timestamp t,
                                                  int max_attempts,
                                                  PreparedPoll* pending) {
  PollHealth& health = group->health;
  const RetryPolicy& retry = options_.fault_tolerance.retry;
  if (max_attempts < 1) max_attempts = 1;
  Status attempt_status;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      // Deterministic exponential backoff, accounted in simulated ticks.
      // It is sub-tick bookkeeping: the poll timestamp stays t, so the
      // history and the schedule are unaffected (see health.h).
      ++health.retries;
      ++pending->retries;
      health.backoff_ticks =
          SaturatingAdd(health.backoff_ticks,
                        RetryBackoff(retry.backoff_base_ticks, attempt));
    }
    int64_t took = 0;
    auto answer = [&] {
      // The source need not be thread-safe (see source.h): the poll and
      // its duration read from one critical section, so concurrent
      // groups cannot interleave inside a call or misattribute the
      // duration of someone else's poll.
      std::lock_guard<std::mutex> lock(source_mu_);
      auto polled = source_->PollForGroup(group->key, group->polling_query, t);
      took = source_->LastPollDurationTicks();
      return polled;
    }();
    attempt_status = answer.ok() ? Status::OK() : answer.status();
    if (attempt_status.ok() && retry.poll_deadline_ticks > 0 &&
        took > retry.poll_deadline_ticks) {
      attempt_status = Status::DeadlineExceeded(
          "poll took " + std::to_string(took) + " ticks, deadline " +
          std::to_string(retry.poll_deadline_ticks));
    }
    if (attempt_status.ok()) {
      // A snapshot from an autonomous wrapper can arrive truncated or
      // malformed; treat it as a failed attempt, not as source data.
      Status valid = answer->Validate();
      if (!valid.ok()) {
        attempt_status = Status::Unavailable(
            "source returned malformed snapshot: " + valid.message());
      }
    }
    if (attempt_status.ok()) return answer;
    health.last_error = attempt_status;
  }
  return attempt_status;
}

PollGroupManager::PreparedPoll PollGroupManager::PreparePoll(PollGroup* group,
                                                             Timestamp t) {
  obs::TraceSpan span(options_.observability.trace, "qss.prepare", "qss", t,
                      group->JoinedEntries());
  PreparedPoll pending;
  pending.group = group;
  pending.time = t;
  pending.start_ns = obs::NowNs();
  PollHealth& health = group->health;

  // Quarantined: sit out the cool-down, then probe (half-open).
  if (health.state == CircuitState::kOpen) {
    if (t < health.quarantined_until) {
      pending.quarantined = true;
      pending.missed_reason = "quarantined until " +
                              health.quarantined_until.ToString() + " after " +
                              health.last_error.ToString();
      return pending;
    }
    health.state = CircuitState::kHalfOpen;
    obs::AddGauge(ins_.circuits_open, -1);
    obs::AddGauge(ins_.circuits_half_open, 1);
    DOEM_LOG_EVENT(options_.observability.events,
                   obs::EventType::kQuarantineProbe,
                   obs::EventSeverity::kInfo, t, group->key,
                   "cool-down elapsed; next poll is a half-open probe");
  }

  ++health.polls_attempted;

  // 1. Query manager: send Q_l to the wrapper, get R_k — retrying per
  // policy, except that a half-open probe gets a single attempt.
  int max_attempts =
      health.state == CircuitState::kHalfOpen
          ? 1
          : std::max(1, options_.fault_tolerance.retry.max_attempts);
  auto answer = [&] {
    obs::TraceSpan fetch_span(options_.observability.trace, "qss.fetch", "qss",
                              t);
    int64_t fetch_start = obs::NowNs();
    auto polled = AttemptPoll(group, t, max_attempts, &pending);
    pending.fetch_ns = obs::ElapsedNs(fetch_start);
    return polled;
  }();
  if (!answer.ok()) {
    pending.failure = answer.status();
    return pending;
  }

  // 2. R_{k-1} is the current snapshot of the DOEM database. Safe off
  // the commit thread: nothing else touches this group during its wave.
  // 3. Wrap R_k in place and OEMdiff it; the diff phase times both. R_k
  // was validated at fetch and R_{k-1} is valid by construction, so the
  // diff validates neither again.
  obs::TraceSpan diff_span(options_.observability.trace, "qss.diff", "qss", t);
  int64_t diff_start = obs::NowNs();
  auto wrapped = CanonicalWrap(std::move(answer).value(), *group);
  Result<ChangeSet> delta =
      wrapped.ok() ? DiffSnapshots(group->doem.CurrentSnapshot(), *wrapped,
                                   diff_mode_)
                   : wrapped.status();
  pending.diff_ns = obs::ElapsedNs(diff_start);
  if (!delta.ok()) {
    pending.failure = delta.status();
    return pending;
  }
  pending.delta = std::move(delta).value();
  return pending;
}

void PollGroupManager::CommitPoll(PreparedPoll* pending, PollReport* report) {
  PollGroup* group = pending->group;
  PollHealth& health = group->health;
  const Timestamp t = pending->time;
  const ErrorCallback& on_error = options_.fault_tolerance.on_error;
  obs::TraceSpan span(options_.observability.trace, "qss.commit", "qss", t,
                      group->JoinedEntries());

  if (pending->quarantined) {
    MissedPoll missed;
    missed.time = t;
    missed.reason = std::move(pending->missed_reason);
    health.missed.push_back(std::move(missed));
    size_t max_missed = options_.fault_tolerance.max_missed_log;
    if (max_missed > 0 && health.missed.size() > max_missed) {
      size_t drop = health.missed.size() - max_missed;
      health.missed.erase(health.missed.begin(), health.missed.begin() + drop);
      health.missed_dropped += drop;
      obs::Count(ins_.missed_log_dropped, drop);
    }
    ++report->polls_missed;
    obs::Count(ins_.polls_missed);
    DOEM_LOG_EVENT(options_.observability.events, obs::EventType::kPollMissed,
                   obs::EventSeverity::kWarning, t, group->key,
                   health.missed.back().reason);
    return;
  }

  ++report->polls_attempted;
  report->retries += pending->retries;
  report->fetch_ns += pending->fetch_ns;
  report->diff_ns += pending->diff_ns;
  obs::Count(ins_.polls_attempted);
  obs::Count(ins_.retries, pending->retries);
  obs::Observe(ins_.fetch_ns, pending->fetch_ns);
  obs::Observe(ins_.diff_ns, pending->diff_ns);
  // Reset the per-poll phase attribution: fetch and diff were measured
  // while preparing; apply lands below and the fan-out half
  // (filter/fanout/wire/e2e) is filled in by SubscriberRegistry::FanOut
  // and the server, measuring from `last_prepare_start_ns`.
  health.last_poll = PollPhaseLatency{};
  health.last_poll.fetch_ns = pending->fetch_ns;
  health.last_poll.diff_ns = pending->diff_ns;
  group->last_prepare_start_ns = pending->start_ns;

  Status failure = pending->failure;
  Status maintain;  // engine-cache maintenance outcome (see below)
  if (failure.ok()) {
    // 4. DOEM manager: incorporate (t, U_k), all or nothing, in place.
    // Under kTwoSnapshots the step first makes R_{k-1} the new original
    // (DoemDatabase::RebaseAndApply). The DOEM keeps its annotation
    // index current itself. On success, bring the group engine's encoding
    // along: patched in O(delta) under kFull, dropped under
    // kTwoSnapshots, whose step also dropped the previous step's
    // annotations, which no patch expresses. A failed apply leaves the
    // history, the index and the encoding untouched and consistent.
    obs::TraceSpan apply_span(options_.observability.trace, "qss.apply", "qss",
                              t);
    int64_t apply_start = obs::NowNs();
    const bool two_snapshots =
        options_.retention == HistoryRetention::kTwoSnapshots;
    failure = two_snapshots ? group->doem.RebaseAndApply(t, pending->delta)
                            : group->doem.ApplyChangeSet(t, pending->delta);
    if (failure.ok() && two_snapshots) {
      group->engine->Invalidate();
    } else if (failure.ok()) {
      maintain = group->engine->ApplyDelta(t, pending->delta);
    }
    int64_t apply_ns = obs::ElapsedNs(apply_start);
    report->apply_ns += apply_ns;
    obs::Observe(ins_.apply_ns, apply_ns);
    health.last_poll.apply_ns = apply_ns;
  }

  if (!failure.ok()) {
    ++health.polls_failed;
    ++health.consecutive_failures;
    health.last_error = failure;
    ++report->polls_failed;
    obs::Count(ins_.polls_failed);
    PollError error;
    error.kind = PollError::Kind::kPoll;
    error.subject = group->JoinedEntries();
    error.time = t;
    error.status = failure;
    report->errors.push_back(error);
    if (on_error) on_error(error);
    DOEM_LOG_EVENT(options_.observability.events, obs::EventType::kPollFailed,
                   obs::EventSeverity::kError, t, group->key,
                   failure.ToString());
    // A failed probe re-opens immediately; otherwise the breaker trips
    // after `quarantine_after` consecutive failed polls.
    int quarantine_after = options_.fault_tolerance.quarantine_after;
    if (health.state == CircuitState::kHalfOpen ||
        (quarantine_after > 0 &&
         health.consecutive_failures >= quarantine_after)) {
      if (health.state == CircuitState::kHalfOpen) {
        obs::AddGauge(ins_.circuits_half_open, -1);
      }
      health.state = CircuitState::kOpen;
      health.quarantined_until = Timestamp(
          t.ticks + options_.fault_tolerance.quarantine_cooldown_ticks);
      obs::AddGauge(ins_.circuits_open, 1);
      obs::Count(ins_.quarantine_trips);
      DOEM_LOG_EVENT(options_.observability.events,
                     obs::EventType::kQuarantineOpened,
                     obs::EventSeverity::kWarning, t, group->key,
                     "quarantined until " +
                         health.quarantined_until.ToString() + " after " +
                         std::to_string(health.consecutive_failures) +
                         " consecutive failures");
    }
    return;
  }
  group->polls.push_back(t);
  ++health.polls_succeeded;
  ++report->polls_ok;
  obs::Count(ins_.polls_ok);
  health.consecutive_failures = 0;
  if (health.state == CircuitState::kHalfOpen) {
    obs::AddGauge(ins_.circuits_half_open, -1);  // probe succeeded: close
    DOEM_LOG_EVENT(options_.observability.events,
                   obs::EventType::kQuarantineClosed,
                   obs::EventSeverity::kInfo, t, group->key,
                   "half-open probe succeeded");
  }
  health.state = CircuitState::kClosed;

  if (group->store != nullptr) {
    // Persist the committed poll. The in-memory commit above stands
    // either way (availability over durability); a failure here means
    // polls from now on are not durable until the store is reopened.
    Status stored =
        options_.retention == HistoryRetention::kTwoSnapshots
            ? group->store->CommitCheckpoint(t, group->doem)
            : group->store->Append(t, pending->delta, group->doem);
    if (!stored.ok()) {
      PollError error;
      error.kind = PollError::Kind::kStore;
      error.subject = group->JoinedEntries();
      error.time = t;
      error.status =
          Status(stored.code(), "durable store commit: " + stored.message());
      report->errors.push_back(error);
      if (on_error) on_error(error);
      DOEM_LOG_EVENT(options_.observability.events,
                     obs::EventType::kStoreError, obs::EventSeverity::kError,
                     t, group->key, error.status.ToString());
    }
  }

  if (!maintain.ok()) {
    // The cache patch (or its verify cross-check) failed. The engine has
    // already dropped the affected caches, so the next filter run
    // rebuilds from the (correct) history — surface the event without
    // failing the poll.
    PollError error;
    error.kind = PollError::Kind::kFilter;
    error.subject = group->JoinedEntries();
    error.time = t;
    error.status = Status(maintain.code(),
                          "filter cache maintenance: " + maintain.message());
    report->errors.push_back(error);
    if (on_error) on_error(error);
    DOEM_LOG_EVENT(options_.observability.events,
                   obs::EventType::kFilterError, obs::EventSeverity::kWarning,
                   t, group->key, error.status.ToString());
  }

  // 5–6. Chorel engine + notifications: the subscriber layer's half of
  // the pipeline.
  if (fanout_ != nullptr) fanout_->FanOut(group, t, report);
}

void PollGroupManager::RunWave(const std::vector<PollGroup*>& wave,
                               Timestamp t, PollReport* report) {
  std::vector<PreparedPoll> prepared(wave.size());
  if (options_.executor != nullptr && wave.size() > 1) {
    options_.executor->ParallelFor(wave.size(), [&](size_t i) {
      prepared[i] = PreparePoll(wave[i], t);
    });
  } else {
    for (size_t i = 0; i < wave.size(); ++i) {
      prepared[i] = PreparePoll(wave[i], t);
    }
  }
  // Deterministic merge: `wave` is in group-key order, so error and
  // notification order, report counters, and the histories are
  // byte-identical to a serial run no matter how the prepare stage was
  // scheduled. The service mutex is already held by the polling entry
  // point; callbacks fire on this thread and may re-enter registration
  // (fan-out iterates a snapshot, retirement is deferred past the tick).
  for (PreparedPoll& pending : prepared) {
    CommitPoll(&pending, report);
  }
}

Status PollGroupManager::SettleReport(const PollReport& report,
                                      size_t first_new_error,
                                      bool caller_has_report) const {
  if (caller_has_report || options_.fault_tolerance.on_error) {
    return Status::OK();
  }
  if (report.errors.size() <= first_new_error) return Status::OK();
  return report.errors[first_new_error].status;
}

Status PollGroupManager::AdvanceTo(Timestamp t, PollReport* report) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (t < now_) {
    return Status::InvalidArgument("clock cannot run backwards");
  }
  obs::TraceSpan span(options_.observability.trace, "qss.advance", "qss", t);
  int64_t call_start = obs::NowNs();
  PollReport local;
  PollReport* r = report != nullptr ? report : &local;
  size_t first_new_error = r->errors.size();
  ++in_tick_;
  // Execute all due polls across groups in time order, wave by wave: a
  // wave is every group due at the earliest outstanding poll time (tie
  // order = group-key order, as before). A failing group no longer
  // aborts the tick: its schedule still advances (the failure is
  // recorded, feeding the circuit breaker), the other groups still
  // poll, and the clock always reaches t.
  while (true) {
    Timestamp wave_time;
    bool any_due = false;
    for (auto& [key, group] : groups_) {
      if (group->retired) continue;
      if (group->next_poll <= t && (!any_due || group->next_poll < wave_time)) {
        wave_time = group->next_poll;
        any_due = true;
      }
    }
    if (!any_due) break;
    std::vector<PollGroup*> wave;
    for (auto& [key, group] : groups_) {
      if (group->retired) continue;
      if (group->next_poll == wave_time) {
        wave.push_back(group.get());
        group->next_poll = group->frequency.NextPoll(wave_time);
      }
    }
    RunWave(wave, wave_time, r);
  }
  now_ = t;
  if (--in_tick_ == 0) EraseRetired();
  r->elapsed_ns += obs::ElapsedNs(call_start);
  return SettleReport(*r, first_new_error, report != nullptr);
}

Status PollGroupManager::PollGroupNow(PollGroup* group, PollReport* report) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (group == nullptr || group->retired) {
    return Status::NotFound("no such poll group");
  }
  if (!group->polls.empty() && group->polls.back() >= now_) {
    return Status::InvalidArgument("already polled at tick " +
                                   now_.ToString() +
                                   "; advance the clock first");
  }
  obs::TraceSpan span(options_.observability.trace, "qss.poll_now", "qss",
                      now_, group->JoinedEntries());
  int64_t call_start = obs::NowNs();
  PollReport local;
  PollReport* r = report != nullptr ? report : &local;
  size_t first_new_error = r->errors.size();
  ++in_tick_;
  RunWave({group}, now_, r);
  Reanchor({group});
  if (--in_tick_ == 0) EraseRetired();
  r->elapsed_ns += obs::ElapsedNs(call_start);
  return SettleReport(*r, first_new_error, report != nullptr);
}

Status PollGroupManager::NotifySourceChanged(PollReport* report) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::TraceSpan span(options_.observability.trace, "qss.source_changed",
                      "qss", now_);
  int64_t call_start = obs::NowNs();
  PollReport local;
  PollReport* r = report != nullptr ? report : &local;
  size_t first_new_error = r->errors.size();
  // Every group not already covered at this tick polls now — one wave.
  std::vector<PollGroup*> wave;
  for (auto& [key, group] : groups_) {
    if (group->retired) continue;
    if (!group->polls.empty() && group->polls.back() >= now_) {
      continue;  // this tick is already covered
    }
    wave.push_back(group.get());
  }
  ++in_tick_;
  RunWave(wave, now_, r);
  Reanchor(wave);
  if (--in_tick_ == 0) EraseRetired();
  r->elapsed_ns += obs::ElapsedNs(call_start);
  return SettleReport(*r, first_new_error, report != nullptr);
}

Timestamp PollGroupManager::now() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return now_;
}

size_t PollGroupManager::GroupCount() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [key, group] : groups_) {
    if (!group->retired) ++n;
  }
  return n;
}

PollHealth PollGroupManager::GroupHealth(const PollGroup* group) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (group == nullptr) return PollHealth{};
  return group->health;
}

std::vector<Timestamp> PollGroupManager::GroupPollingTimes(
    const PollGroup* group) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (group == nullptr) return {};
  return group->polls;
}

std::vector<PollGroupManager::GroupStatus> PollGroupManager::GroupStatuses()
    const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<GroupStatus> out;
  out.reserve(groups_.size());
  for (const auto& [key, group] : groups_) {
    if (group->retired) continue;
    GroupStatus status;
    status.key = key;
    status.entries = group->JoinedEntries();
    status.subscribers = group->subscriber_count;
    status.polls_committed = group->polls.size();
    status.next_poll = group->next_poll;
    status.health = group->health;
    out.push_back(std::move(status));
  }
  return out;
}

}  // namespace qss
}  // namespace doem
