#include "oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <utility>

#include "encoding/doem_text.h"
#include "qss/executor.h"
#include "testing/generators.h"
#include "testing/guide.h"

namespace doem {
namespace oracle {
namespace {

using Kind = Op::Kind;

std::string FilterText(const SubSpec& spec) {
  const std::string entry = spec.entry.empty() ? spec.name : spec.entry;
  const std::string path =
      entry + (spec.leaf.empty() ? ".restaurant" : "." + spec.leaf);
  const std::string since =
      " where T > t[-" + std::to_string(spec.window) + "]";
  switch (spec.filter) {
    case Filter::kCre:
      return "select " + path + "<cre at T>" + since;
    case Filter::kUpd:
      return "select T, OV, NV from " + path +
             (spec.leaf.empty() ? ".price" : "") +
             "<upd at T from OV to NV>" + since;
    case Filter::kAdd:
      return "select R, T from " + entry + ".<add at T>restaurant R" + since;
    case Filter::kRem:
      return "select R, T from " + entry +
             ".restaurant.<rem at T>parking R" + since;
  }
  return "";
}

std::string NoteText(const std::string& name, Timestamp t, size_t index,
                     const std::string& rows) {
  return name + "@" + std::to_string(t.ticks) + "#" + std::to_string(index) +
         "\n" + rows;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// One QSS process: the front end under test over a shared source and,
/// when `disk` is set, a shared durable medium.
class Process {
 public:
  Process(const Scenario& s, const Config& c, qss::InformationSource* source,
          Timestamp start, qss::QssOptions options, store::StoreManager* disk,
          Output* run)
      : s_(s), run_(run) {
    options.durability.store = disk;
    if (c.front_end == Config::FrontEnd::kFacade) {
      facade_ = std::make_unique<qss::QuerySubscriptionService>(source, start,
                                                                options);
      manager_ = &facade_->manager();
      registry_ = &facade_->registry();
    } else {
      own_manager_ =
          std::make_unique<qss::PollGroupManager>(source, start, options);
      own_registry_ =
          std::make_unique<qss::SubscriberRegistry>(own_manager_.get());
      manager_ = own_manager_.get();
      registry_ = own_registry_.get();
    }
    if (c.front_end == Config::FrontEnd::kWire) {
      server_ = std::make_unique<qss::server::QssServer>(registry_);
      wire_ = std::make_unique<WiredClient>(server_.get());
    }
  }

  Status Subscribe(size_t i) {
    const qss::Subscription sub = ToSubscription(s_.subs[i]);
    Status st;
    if (wire_ != nullptr) {
      wire_->client.Subscribe({sub.name, sub.entry,
                               sub.frequency.interval_ticks, sub.polling_query,
                               sub.filter_query});
      st = Pump();
    } else {
      auto notify = [notes = &run_->notifications,
                     name = sub.name](const qss::Notification& n) {
        notes->push_back(
            NoteText(name, n.poll_time, n.poll_index, n.result.RowsToString()));
      };
      if (facade_ != nullptr) {
        st = facade_->Subscribe(sub, notify);
        handles_[sub.name] = facade_->Handle(sub.name);
      } else {
        auto h = registry_->Subscribe(sub, notify);
        st = h.status();
        if (h.ok()) handles_[sub.name] = *h;
      }
    }
    if (st.ok()) live_.push_back(i);
    return st;
  }

  Status Unsubscribe(size_t i) {
    const std::string& name = s_.subs[i].name;
    Status st;
    if (wire_ != nullptr) {
      wire_->client.Unsubscribe(name);
      st = Pump();
    } else if (facade_ != nullptr) {
      st = facade_->Unsubscribe(name);
    } else {
      st = registry_->Unsubscribe(handles_[name]);
    }
    live_.erase(std::find(live_.begin(), live_.end(), i));
    handles_.erase(name);
    return st;
  }

  Status Advance(int64_t ticks, qss::PollReport* r) {
    Timestamp t(now().ticks + ticks);
    return Pumped(facade_ ? facade_->AdvanceTo(t, r)
                          : manager_->AdvanceTo(t, r));
  }

  Status PollNow(size_t i, qss::PollReport* r) {
    return Pumped(facade_ ? facade_->PollNow(s_.subs[i].name, r)
                          : manager_->PollGroupNow(Group(i), r));
  }

  Status SourceChanged(qss::PollReport* r) {
    return Pumped(facade_ ? facade_->NotifySourceChanged(r)
                          : manager_->NotifySourceChanged(r));
  }

  Timestamp now() const { return manager_->now(); }
  const std::vector<size_t>& live() const { return live_; }

  std::map<std::string, qss::PollHealth> HealthByKey() const {
    std::map<std::string, qss::PollHealth> out;
    for (size_t i : live_) out[Group(i)->key] = manager_->GroupHealth(Group(i));
    return out;
  }

  /// Every live group's circuit is closed with no pending failure.
  bool Quiescent() const {
    const auto health = HealthByKey();
    return std::all_of(health.begin(), health.end(), [](const auto& e) {
      return e.second.state == qss::CircuitState::kClosed &&
             e.second.consecutive_failures == 0;
    });
  }

  void Collect(Output* run) const {
    for (size_t i : live_) {
      const qss::PollGroup* group = Group(i);
      run->group_of[s_.subs[i].name] = group->key;
      if (run->groups.contains(group->key)) continue;
      GroupOutcome& g = run->groups[group->key];
      g.history = WriteDoemText(group->doem);
      g.polls = manager_->GroupPollingTimes(group);
      g.health = manager_->GroupHealth(group);
      g.feasible = group->doem.IsFeasible();
      auto times = group->doem.AllTimestamps();
      g.annotation_times.assign(times.begin(), times.end());
    }
    run->group_count = manager_->GroupCount();
    run->end = now();
  }

 private:
  qss::PollGroup* Group(size_t i) const {
    return registry_->GroupOf(handles_.at(s_.subs[i].name));
  }

  Status Pumped(Status st) {
    Status wire = Pump();
    return st.ok() ? wire : st;
  }

  /// Delivers queued frames both ways in 5-byte fragments and consumes
  /// the client's events. Returns the last error frame, if any.
  Status Pump() {
    if (wire_ == nullptr) return Status::OK();
    while (wire_->pipe.PumpToServer(5) > 0 || wire_->pipe.PumpToClient(5) > 0) {
    }
    Status st = wire_->client.error();
    for (const auto& e : wire_->client.TakeEvents()) {
      using qss::server::MsgType;
      if (e.type == MsgType::kNotification) {
        run_->notifications.push_back(
            NoteText(e.notification.name, e.notification.poll_time,
                     e.notification.poll_index, e.notification.rows));
      } else if (e.type == MsgType::kSubscribed) {
        handles_[e.subscribed.name] = {e.subscribed.handle};
      } else if (e.type == MsgType::kError) {
        st = Status::InvalidArgument(e.error.kind + ": " + e.error.message);
      }
    }
    return st;
  }

  const Scenario& s_;
  Output* run_;
  std::unique_ptr<qss::QuerySubscriptionService> facade_;
  std::unique_ptr<qss::PollGroupManager> own_manager_;
  std::unique_ptr<qss::SubscriberRegistry> own_registry_;
  qss::PollGroupManager* manager_ = nullptr;
  qss::SubscriberRegistry* registry_ = nullptr;
  std::unique_ptr<qss::server::QssServer> server_;
  std::unique_ptr<WiredClient> wire_;
  std::map<std::string, qss::SubscriptionHandle> handles_;
  std::vector<size_t> live_;  // registration order
};

/// Adds the crashed process's health counters to the reopened one's, as
/// an uninterrupted process would have counted them.
void Fold(qss::PollHealth* h, const qss::PollHealth& before,
          size_t max_missed) {
  h->polls_attempted += before.polls_attempted;
  h->polls_succeeded += before.polls_succeeded;
  h->polls_failed += before.polls_failed;
  h->retries += before.retries;
  h->backoff_ticks += before.backoff_ticks;
  h->missed.insert(h->missed.begin(), before.missed.begin(),
                   before.missed.end());
  h->missed_dropped += before.missed_dropped;
  while (max_missed > 0 && h->missed.size() > max_missed) {
    h->missed.erase(h->missed.begin());
    ++h->missed_dropped;
  }
  if (h->last_error.ok()) h->last_error = before.last_error;
}

}  // namespace

qss::Subscription ToSubscription(const SubSpec& spec) {
  const std::string leaf = spec.leaf.empty() ? "" : "." + spec.leaf;
  const std::string where = spec.where.empty() ? "" : " where " + spec.where;
  return {spec.name, spec.entry, {spec.interval, ""},
          "select guide.restaurant" + leaf + where, FilterText(spec)};
}

std::vector<std::string> SortedRows(const lorel::QueryResult& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string key;
    for (const lorel::RtVal& v : row) key += v.Key() + "|";
    rows.push_back(std::move(key));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

WiredClient::WiredClient(qss::server::QssServer* server)
    : client([this](std::string_view b) { pipe.ClientSend(b); }) {
  id = server->Attach([this](std::string_view b) { pipe.ServerSend(b); });
  pipe.set_server_sink(
      [this, server](std::string_view b) { server->OnBytes(id, b); });
  pipe.set_client_sink([this](std::string_view b) { client.OnBytes(b); });
}

LiveServer::LiveServer(Sinks sinks, size_t restaurants, size_t steps)
    : base(testing::SyntheticGuide(restaurants)),
      source(base, testing::SyntheticGuideHistory(base, steps, 3)),
      qss(&source, start(), [&] {
        qss::QssOptions o;
        o.observability = {sinks != Sinks::kNone ? &metrics : nullptr,
                           sinks == Sinks::kAll ? &trace : nullptr,
                           sinks == Sinks::kAll ? &events : nullptr};
        return o;
      }()),
      server(&qss.registry()) {}

SubSpec& Scenario::Sub(const std::string& name, const std::string& leaf,
                       int64_t interval, Filter filter,
                       const std::string& entry) {
  subs.push_back({name, entry, leaf, interval, filter});
  return subs.back();
}

void Scenario::Advance(const std::vector<int64_t>& jumps) {
  for (int64_t j : jumps) ops.push_back({Kind::kAdvance, j, 0});
}

bool Scenario::Resurrects() const {
  // Live subscribers per group key (PollGroupManager::GroupKey).
  std::map<std::string, int> live;
  std::set<std::string> retired;
  auto key = [&](size_t i) {
    return merge_similar_polls
               ? ToSubscription(subs[i]).polling_query + "|" +
                     std::to_string(subs[i].interval)
               : subs[i].name;
  };
  for (size_t i = 0; i < subs.size(); ++i) live[key(i)] += subs[i].initially;
  for (const Op& op : ops) {
    if (op.kind == Kind::kSubscribe) {
      if (retired.contains(key(op.sub))) return true;
      ++live[key(op.sub)];
    } else if (op.kind == Kind::kUnsubscribe && --live[key(op.sub)] == 0) {
      retired.insert(key(op.sub));
    }
  }
  return false;
}

Scenario DrawScenario(uint32_t seed) {
  std::mt19937 rng(seed);
  auto one_in = [&](uint32_t n) { return rng() % n == 0; };
  // Filter windows have their own generator, so they leave every other
  // draw, and with it every seed pinned in oracle_test, unchanged.
  std::mt19937 windows(seed ^ 0x5eed5eedu);
  Scenario s;
  s.seed = seed;
  s.source = one_in(3) ? Scenario::Source::kGuideChurn
                       : Scenario::Source::kGuideHistory;
  s.restaurants = 8 + rng() % 8;
  s.steps = 12;
  s.ops_per_step = 2 + rng() % 3;
  s.guide_seed = seed + 1;
  s.history_seed = seed + 2;
  s.preserve_ids = !one_in(3);
  s.strategy = one_in(2) ? chorel::Strategy::kTranslated
                         : chorel::Strategy::kDirect;
  s.retention = one_in(4) ? qss::HistoryRetention::kTwoSnapshots
                          : qss::HistoryRetention::kFull;
  s.merge_similar_polls = !one_in(4);
  s.notify_empty = one_in(4);
  rng();  // a spare draw, which keeps the draws below as pinned

  // Distinct polling queries, so each fault scope pins exactly one group.
  std::vector<std::string> leaves = {"", "name", "price", "address", "parking"};
  std::shuffle(leaves.begin(), leaves.end(), rng);
  const size_t n_groups = 2 + rng() % 3;
  std::vector<std::string> scopes;
  for (size_t g = 0; g < n_groups; ++g) {
    const std::string& leaf = leaves[g];
    const int64_t interval =
        testing::RandomFrequencySpec(&rng, 3).interval_ticks;
    const size_t members = s.merge_similar_polls ? 1 + rng() % 3 : 1;
    const std::string entry = one_in(2) ? "G" + std::to_string(g) : "";
    auto draw_filter = [&] {
      if (leaf.empty()) return static_cast<Filter>(rng() % 4);
      return leaf == "price" && one_in(2) ? Filter::kUpd : Filter::kCre;
    };
    const Filter cohort_filter = draw_filter();
    const int window = 1 + static_cast<int>(windows() % 2);
    for (size_t m = 0; m < members; ++m) {
      SubSpec& sub =
          s.Sub("S" + std::to_string(g) + std::to_string(m), leaf, interval,
                entry.empty() ? draw_filter() : cohort_filter, entry);
      sub.window = window;
      sub.initially = s.subs.size() == 1 || !one_in(4);
    }
    if (!leaf.empty()) scopes.push_back("." + leaf);
  }

  if (one_in(2)) {
    s.faults = testing::RandomFaultSchedule(scopes, &rng);
    s.tolerance.retry.max_attempts = 1 + static_cast<int>(rng() % 3);
    s.tolerance.retry.backoff_base_ticks = 1;
    s.tolerance.retry.poll_deadline_ticks = 4;
    s.tolerance.quarantine_after = 1 + static_cast<int>(rng() % 2);
    s.tolerance.quarantine_cooldown_ticks = 1 + rng() % 3;
    s.tolerance.max_missed_log = one_in(2) ? 2 : 64;
  }

  std::vector<bool> live;
  for (const SubSpec& sub : s.subs) live.push_back(sub.initially);
  for (int k = 0; k < 10; ++k) {
    const uint32_t roll = rng() % 10;
    const size_t i = rng() % s.subs.size();
    const size_t n_live = std::count(live.begin(), live.end(), true);
    if (roll == 6 && live[i]) {
      s.ops.push_back({Kind::kPollNow, 0, i});
    } else if (roll == 7) {
      s.ops.push_back({Kind::kSourceChanged, 0, 0});
    } else if (roll >= 8 && (!live[i] || n_live > 1)) {
      s.ops.push_back({live[i] ? Kind::kUnsubscribe : Kind::kSubscribe, 0, i});
      live[i] = !live[i];
    } else {
      s.ops.push_back({Kind::kAdvance, 1 + static_cast<int64_t>(rng() % 3), 0});
    }
  }
  s.ops.push_back({Kind::kAdvance, 1 + static_cast<int64_t>(rng() % 3), 0});
  return s;
}

Scenario DrawSweepScenario(uint32_t seed) {
  Scenario s = DrawScenario(seed);
  std::mt19937 bounds(seed ^ 0xb0b0b0b0u);
  if (s.retention == qss::HistoryRetention::kTwoSnapshots && bounds() % 2) {
    const std::string where =
        "guide.restaurant.price < " + std::to_string(15 + bounds() % 20);
    for (SubSpec& sub : s.subs) sub.where = where;
  }
  return s;
}

Scenario FilterScenario(size_t restaurants, size_t polls) {
  Scenario s;
  s.restaurants = restaurants;
  s.steps = polls;
  s.ops_per_step = 4;
  s.Sub("Cre", "", 1, Filter::kCre);
  s.Sub("Upd", "", 1, Filter::kUpd);
  s.Sub("Rem", "", 1, Filter::kRem);
  s.Advance(std::vector<int64_t>(polls, 1));
  return s;
}

std::string Config::ToString() const {
  const char* executors[] = {"inline", "serial", "pool(4)"};
  const char* stores[] = {"none", "memory", "crash@"};
  const char* front_ends[] = {"facade", "layered", "wire"};
  return std::string("executor=") + executors[static_cast<int>(executor)] +
         " incremental=" + (incremental ? "on" : "off") +
         " vm=" + (vm ? "on" : "off") +
         " seed=" + (seed_filter_from_index ? "on" : "off") + " store=" +
         stores[static_cast<int>(store)] +
         (store == Store::kCrash ? std::to_string(crash_at) : "") +
         " obs=" + (obs ? "on" : "off") +
         " front_end=" + front_ends[static_cast<int>(front_end)];
}

Config ReferenceFor(const Scenario& s, const Config& c) {
  Config ref;
  if (c.store != Config::Store::kNone && s.Resurrects()) {
    ref.store = Config::Store::kMemory;
  }
  return ref;
}

int Config::NonReference() const {
  return (executor != Executor::kInline) + incremental + vm +
         seed_filter_from_index + (store != Store::kNone) + obs + (front_end != FrontEnd::kFacade);
}

std::string Output::Digest() const {
  auto printable = [](std::string key) {
    std::replace(key.begin(), key.end(), '\x1f', '|');
    return key;
  };
  std::ostringstream out;
  out << "report attempted=" << report.polls_attempted
      << " ok=" << report.polls_ok << " failed=" << report.polls_failed
      << " missed=" << report.polls_missed << " retries=" << report.retries
      << " notifications=" << report.notifications << "\n";
  for (const qss::PollError& e : report.errors) {
    out << "error " << qss::PollErrorKindToString(e.kind) << ":" << e.subject
        << "@" << e.time.ticks << ":" << e.status.ToString() << "\n";
  }
  for (const std::string& e : op_errors) out << "op " << e << "\n";
  for (const auto& [name, key] : group_of) {
    out << "sub " << name << " -> " << printable(key) << "\n";
  }
  for (const auto& [key, g] : groups) {
    out << "group " << printable(key) << "\npolls";
    for (Timestamp t : g.polls) out << " " << t.ticks;
    const qss::PollHealth& h = g.health;
    out << "\nhealth " << qss::CircuitStateToString(h.state)
        << " failures=" << h.consecutive_failures
        << " attempted=" << h.polls_attempted << " ok=" << h.polls_succeeded
        << " failed=" << h.polls_failed << " retries=" << h.retries
        << " backoff=" << h.backoff_ticks << " dropped=" << h.missed_dropped
        << " last_error=" << h.last_error.ToString() << "\n";
    for (const qss::MissedPoll& m : h.missed) {
      out << "missed " << m.time.ticks << " " << m.reason << "\n";
    }
    out << g.history << "\n";
  }
  for (const std::string& n : notifications) out << "note " << n << "\n";
  return out.str();
}

Output Execute(const Scenario& s, const Config& c, const Hooks& hooks) {
  Output run;
  OemDatabase base;
  OemHistory script;
  if (s.source == Scenario::Source::kPaperGuide) {
    base = testing::BuildGuide().db;
    script = s.script ? *s.script : testing::GuideHistory();
  } else {
    base = testing::SyntheticGuide(s.restaurants, s.guide_seed);
    script = s.source == Scenario::Source::kGuideChurn
                 ? testing::SyntheticGuideChurn(base, s.steps, s.ops_per_step,
                                                s.history_seed)
                 : testing::SyntheticGuideHistory(base, s.steps, s.ops_per_step,
                                                  s.history_seed);
  }
  // The source is the outside world: it survives a QSS crash.
  qss::ScriptedSource scripted(base, script, s.preserve_ids);
  qss::FaultInjectingSource source(&scripted);
  for (const qss::FaultSpec& f : s.faults) source.AddFault(f);

  std::unique_ptr<qss::Executor> executor;
  if (c.executor == Config::Executor::kSerial) {
    executor = std::make_unique<qss::SerialExecutor>();
  } else if (c.executor == Config::Executor::kPool) {
    executor = std::make_unique<qss::ThreadPoolExecutor>(4);
  }
  store::MemoryStoreManager own_medium;
  store::StoreManager* medium = hooks.medium ? hooks.medium : &own_medium;

  qss::QssOptions opts;
  opts.strategy = s.strategy;
  opts.retention = s.retention;
  opts.merge_similar_polls = s.merge_similar_polls;
  opts.notify_empty = s.notify_empty;
  opts.acceleration.incremental_filter = c.incremental;
  opts.acceleration.verify_incremental_filter = c.incremental;
  opts.acceleration.seed_filter_from_index = c.seed_filter_from_index;
  opts.acceleration.vm_filter = c.vm;
  opts.acceleration.verify_vm_filter = c.vm;
  opts.fault_tolerance = s.tolerance;
  store::StoreManager* disk =
      c.store != Config::Store::kNone ? medium : nullptr;
  if (c.obs) {
    run.metrics = std::make_unique<obs::MetricsRegistry>();
    run.trace = std::make_unique<obs::TraceRecorder>();
    run.events = std::make_unique<obs::EventLog>();
    opts.observability = {run.metrics.get(), run.trace.get(), run.events.get()};
    own_medium.mutable_options()->metrics = run.metrics.get();
    own_medium.mutable_options()->events = run.events.get();
  }
  opts.executor = executor.get();

  auto record = [&run](size_t k, const Status& st) {
    if (!st.ok()) {
      run.op_errors.push_back(std::to_string(k) + ": " + st.ToString());
    }
  };
  auto process =
      std::make_unique<Process>(s, c, &source, s.start, opts, disk, &run);
  for (size_t i = 0; i < s.subs.size(); ++i) {
    if (s.subs[i].initially) record(0, process->Subscribe(i));
  }
  size_t advances = 0;
  std::map<std::string, qss::PollHealth> carried;
  auto maybe_crash = [&] {
    if (c.store != Config::Store::kCrash || run.crashed ||
        advances < c.crash_at || !process->Quiescent()) {
      return;
    }
    carried = process->HealthByKey();
    const std::vector<size_t> live = process->live();
    const Timestamp now = process->now();
    process.reset();
    if (hooks.at_crash) hooks.at_crash();
    process = std::make_unique<Process>(s, c, &source, now, opts, disk, &run);
    for (size_t i : live) record(advances, process->Subscribe(i));
    run.crashed = true;
  };
  maybe_crash();
  for (size_t k = 0; k < s.ops.size(); ++k) {
    const Op& op = s.ops[k];
    if (op.kind == Kind::kAdvance) {
      record(k, process->Advance(op.ticks, &run.report));
      ++advances;
      maybe_crash();
    } else if (op.kind == Kind::kPollNow) {
      record(k, process->PollNow(op.sub, &run.report));
    } else if (op.kind == Kind::kSourceChanged) {
      record(k, process->SourceChanged(&run.report));
    } else if (op.kind == Kind::kSubscribe) {
      record(k, process->Subscribe(op.sub));
    } else {
      record(k, process->Unsubscribe(op.sub));
      // A retired group's health starts over when it comes back.
      const auto live = process->HealthByKey();
      std::erase_if(carried,
                    [&](const auto& e) { return !live.contains(e.first); });
    }
  }
  process->Collect(&run);
  run.source_calls = source.calls();
  run.source_forwarded = source.forwarded();
  run.injected_errors = source.injected_errors();
  run.injected_garbage = source.injected_garbage();
  run.injected_slow = source.injected_slow();
  for (const auto& [key, before] : carried) {
    Fold(&run.groups.at(key).health, before, s.tolerance.max_missed_log);
  }
  return run;
}

std::string Mismatch(const Scenario& scenario, const Config& a,
                     const std::string& digest_a, const Config& b,
                     const std::string& digest_b) {
  if (digest_a == digest_b) return "";
  const std::vector<std::string> la = Lines(digest_a), lb = Lines(digest_b);
  size_t k = 0;
  while (k < la.size() && k < lb.size() && la[k] == lb[k]) ++k;
  auto at = [k](const std::vector<std::string>& l) {
    return k < l.size() ? l[k] : std::string("<end of digest>");
  };
  return "seed " + std::to_string(scenario.seed) + "\n  a: " + a.ToString() +
         "\n  b: " + b.ToString() + "\nfirst difference at digest line " +
         std::to_string(k + 1) + ":\n  a| " + at(la) + "\n  b| " + at(lb);
}

Output ExpectSame(const Scenario& scenario, const Config& a, const Output& ref,
                  const Config& b, const Hooks& hooks) {
  Output run = Execute(scenario, b, hooks);
  const std::string mismatch =
      Mismatch(scenario, a, ref.Digest(), b, run.Digest());
  EXPECT_TRUE(mismatch.empty()) << mismatch;
  return run;
}

}  // namespace oracle
}  // namespace doem
