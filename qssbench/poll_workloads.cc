// The two poll workloads: the real QSS stack, driven one simulated tick
// at a time in a closed loop — the next tick starts only after every
// client has decoded the previous one's frames.
//
//   ScriptedSource -> PollGroupManager -> SubscriberRegistry -> QssServer
//     -> LoopbackPipe -> QssClient
//
// The server's byte sink pumps each frame to its client at once, like a
// socket with an eager reader, so a tick ends when its last frame is
// decoded. Next to the wire subscribers, one in-process subscriber per
// (group, filter text) registers on the same registry: every wire stream
// must hash the same as its in-process twin's. Both sides only keep what
// they receive during a tick; the hashing happens between ticks.
//
// A traced run also replays each poll's layers on an untimed side copy
// of every polled group: snapshot, OEMdiff, DOEM apply, cache patch and
// one run per distinct filter, checking each replayed state against the
// live group's.

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chorel/chorel.h"
#include "diff/diff.h"
#include "obs/metrics.h"
#include "qss/registry.h"
#include "qss/server/server.h"
#include "store/format.h"
#include "testing/generators.h"
#include "workloads.h"

namespace doem {
namespace qssbench {
namespace {

using qss::server::MsgType;

/// The reference work runs after every this many ticks, outside the
/// timed tick.
constexpr size_t kTicksPerReference = 2;

struct GroupSpec {
  std::string polling_query;
  int64_t interval_ticks = 1;
  /// The answer label the group's filters watch.
  std::string label;
};

struct PollWorkload {
  size_t restaurants = 0;
  /// Price updates per poll (SyntheticGuideChurn).
  size_t ops_per_poll = 0;
  std::vector<GroupSpec> groups;
  /// Wire subscribers per group, spread over the four filter texts.
  size_t subscribers_per_group = 0;
  size_t connections = 1;
  bool notify_empty = false;
  /// A ThreadPoolExecutor with PoolThreads() workers instead of a
  /// SerialExecutor.
  bool thread_pool = false;
  /// An in-memory durable store per group.
  bool durable = false;
  size_t ticks_per_epoch = 0;
};

// One group over the whole 300-restaurant guide with a tiny change set
// per poll: the per-poll work that should be O(delta) dominates. Price
// churn keeps the guide's size, and so each tick's work, the same from
// seed to seed.
PollWorkload LargeGraph() {
  PollWorkload w;
  w.restaurants = 300;
  w.ops_per_poll = 4;
  w.groups = {{"select guide.restaurant", 1, "restaurant"}};
  w.subscribers_per_group = 8;
  w.durable = true;
  w.ticks_per_epoch = 150;
  return w;
}

// 32 groups over a 50-restaurant guide, 64 wire subscribers each with
// every due subscriber notified: filter, copies, framing and decode
// dominate, and the many-group waves run the parallel prepare stage.
PollWorkload FanoutSmallGraph() {
  PollWorkload w;
  w.restaurants = 50;
  w.ops_per_poll = 2;
  // The distinct groups of BM_QssFanOut: the leaf cycles fastest, the
  // interval grows every five groups.
  static const char* const kLeaves[] = {"name", "price", "address",
                                        "parking", ""};
  for (size_t g = 0; g < 32; ++g) {
    std::string leaf = kLeaves[g % 5];
    GroupSpec spec;
    spec.polling_query = leaf.empty() ? "select guide.restaurant"
                                      : "select guide.restaurant." + leaf;
    spec.interval_ticks = static_cast<int64_t>(g / 5 + 1);
    spec.label = leaf.empty() ? "restaurant" : leaf;
    w.groups.push_back(spec);
  }
  w.subscribers_per_group = 64;
  w.connections = 4;
  w.notify_empty = true;
  w.thread_pool = true;
  w.ticks_per_epoch = 200;
  return w;
}

// The four filter texts a group's subscribers share: creations, updates,
// arc additions and arc removals since the previous poll.
std::vector<std::string> FilterTexts(const std::string& entry,
                                     const std::string& label) {
  const std::string upd = label == "restaurant" ? "restaurant.price" : label;
  const std::string since = " where T > t[-1]";
  return {
      "select " + entry + "." + label + "<cre at T>" + since,
      "select " + entry + "." + upd + "<upd at T>" + since,
      "select " + entry + ".<add at T>" + label + since,
      "select " + entry + ".<rem at T>" + label + since,
  };
}

struct Wire {
  qss::server::LoopbackPipe pipe;
  std::unique_ptr<qss::server::QssClient> client;
  qss::server::QssServer::ConnectionId id = 0;
};

// One notification delivered to an in-process twin, kept until it is
// digested between ticks: its rows and their labels, which is what
// RowsToString renders, without the packaged answer database.
struct TwinDelivery {
  StreamDigest* digest = nullptr;
  int64_t poll_ticks = 0;
  uint64_t poll_index = 0;
  lorel::QueryResult rows;
};

// What a run accumulates across its epochs.
struct PollTally {
  /// Set-up CPU time, s.
  Samples setup_cpu_s;
  /// Wall time and CPU time of each tick, us.
  Samples tick_us;
  Samples tick_cpu_us;
  /// Each tick's CPU time relative to the reference work.
  RelativeCost cost;
  /// The process's peak resident memory at the end of the first epoch
  /// run on this tally; 0 before.
  double peak_rss_mb = 0;
  Samples notify_us;
  int64_t busy_ns = 0;
  uint64_t group_polls = 0;
  uint64_t notifications = 0;
  uint64_t store_polls = 0;
  uint64_t store_bytes = 0;
  uint64_t store_checkpoint_bytes = 0;
  uint64_t store_syncs = 0;
};

// The client end of every wire: decodes each frame as the server pushes
// it and records the notification latencies. The decoded notifications
// wait for Digest(), between ticks, to be hashed into their subscribers'
// stream digests.
class Receiver {
 public:
  Receiver(Ledger* ledger, PollTally* tally, Report* report)
      : ledger_(ledger), tally_(tally), report_(report) {}

  void OnBytes(Wire* wire, std::string_view bytes) {
    const int64_t start = NowNs();
    wire->client->OnBytes(bytes);
    const int64_t decoded = NowNs();
    if (ledger_ != nullptr && in_tick) {
      ledger_->Span("server.client_decode", CurrentParent(), start, decoded,
                    std::nullopt, /*emit=*/false);
    }
    for (qss::server::QssClient::Event& event : wire->client->TakeEvents()) {
      switch (event.type) {
        case MsgType::kNotification: {
          if (in_tick) {
            tally_->notify_us.Add(Us(decoded - tick_start_ns));
            ++tally_->notifications;
          }
          if (ledger_ != nullptr && in_tick) {
            ledger_->Sample("server.frame_bytes",
                            static_cast<double>(bytes.size()));
          }
          pending_.push_back(std::move(event.notification));
          break;
        }
        case MsgType::kSubscribed:
          ++subscribed;
          break;
        case MsgType::kError:
          report_->Fail("server error for '" + event.error.name +
                        "': " + event.error.kind + ": " +
                        event.error.message);
          break;
        default:
          report_->Fail("unexpected frame type " +
                        std::to_string(static_cast<int>(event.type)));
          break;
      }
    }
  }

  /// Folds the notifications decoded since the last call into their
  /// subscribers' stream digests.
  void Digest() {
    for (const qss::server::NotificationMsg& n : pending_) {
      streams[n.name].Add(n.poll_time.ticks, n.poll_index, n.rows);
    }
    pending_.clear();
  }

  int64_t tick_start_ns = 0;
  bool in_tick = false;
  std::unordered_map<std::string, StreamDigest> streams;
  size_t subscribed = 0;

 private:
  Ledger* ledger_;
  PollTally* tally_;
  Report* report_;
  std::vector<qss::server::NotificationMsg> pending_;
};

void CountPollErrors(const Status& status, const qss::PollReport& polled,
                     Report* report) {
  report->attempted += polled.polls_attempted;
  if (!status.ok()) report->Fail("AdvanceTo: " + status.ToString());
  for (const qss::PollError& error : polled.errors) {
    report->Fail(std::string("poll error (") +
                 qss::PollErrorKindToString(error.kind) + ") at " +
                 error.time.ToString() + ": " + error.status.ToString());
  }
}

// A traced run's untimed copy of one live group, on which each poll's
// layers are replayed.
struct Side {
  const qss::PollGroup* live = nullptr;
  DoemDatabase doem;
  std::unique_ptr<chorel::ChorelEngine> engine;
  std::vector<chorel::CompiledQuery> filters;
  /// The live group's snapshot before its poll, when the group is due.
  std::optional<OemDatabase> before;
};

// True when the framed delta record the store logged is (t, ops).
bool LoggedDeltaIs(const std::string& framed, Timestamp t,
                   const ChangeSet& ops) {
  store::DecodedRecord record;
  std::string reason;
  if (store::DecodeRecordAt(framed, 0, &record, &reason) !=
          store::DecodeOutcome::kOk ||
      record.type != store::RecordType::kDelta) {
    return false;
  }
  auto payload = store::DecodeDeltaPayload(record.payload);
  return payload.ok() && payload->time == t &&
         ChangeSetEquals(payload->ops, ops);
}

void Replay(Side* side, Timestamp t, const CountingFile* file, Ledger* ledger,
            Report* report) {
  const qss::PollGroup& live = *side->live;
  OemDatabase after = live.doem.CurrentSnapshot();
  int64_t start = NowNs();
  auto delta = DiffSnapshots(*side->before, after, DiffMode::kKeyed);
  ledger->Span("diff.diff", kNoSpan, start, NowNs(), t);
  side->before.reset();
  ++report->attempted;
  if (!delta.ok()) {
    report->Fail("replayed OEMdiff at " + t.ToString() + ": " +
                 delta.status().ToString());
    return;
  }
  ledger->Sample("diff.ops_per_poll", static_cast<double>(delta->size()));

  start = NowNs();
  Status applied = side->doem.ApplyChangeSet(t, *delta);
  ledger->Span("doem.apply", kNoSpan, start, NowNs(), t);
  if (!applied.ok() || !side->doem.Equals(live.doem)) {
    report->Fail("replayed apply at " + t.ToString() +
                 " does not reproduce the live group's DOEM");
    return;
  }
  if (file != nullptr) {
    ++report->attempted;
    if (!LoggedDeltaIs(file->last_delta(), t, *delta)) {
      report->Fail("replayed delta at " + t.ToString() +
                   " differs from the one the store logged");
    }
  }

  start = NowNs();
  Status patched = side->engine->ApplyDelta(t, *delta);
  ledger->Span("chorel.cache_patch", kNoSpan, start, NowNs(), t);
  if (!patched.ok()) {
    report->Fail("replayed cache patch at " + t.ToString() + ": " +
                 patched.ToString());
  }
  for (chorel::CompiledQuery& filter : side->filters) {
    lorel::EvalStats stats;
    lorel::EvalOptions opts;
    opts.polling_times = &live.polls;
    opts.stats = &stats;
    start = NowNs();
    auto rows = side->engine->RunCompiled(&filter, chorel::Strategy::kDirect,
                                          opts);
    ledger->Span("chorel.filter", kNoSpan, start, NowNs(), t);
    if (!rows.ok()) {
      report->Fail("replayed filter at " + t.ToString() + ": " +
                   rows.status().ToString());
      continue;
    }
    ledger->Count("lorel.rows", static_cast<double>(rows->rows.size()));
    ledger->Count("lorel.nodes_visited",
                  static_cast<double>(stats.nodes_visited));
  }
}

// Reopens the group's store from its bytes, as a restarted process would,
// and checks the recovered history against the live group's.
void CheckReopen(const qss::PollGroup& group, const CountingFile& file,
                 Ledger* ledger, Report* report) {
  ++report->attempted;
  store::MemoryFile cold(file.data());
  const int64_t start = NowNs();
  auto reopened = store::Store::Open(&cold, store::StoreOptions{});
  const int64_t end = NowNs();
  if (!reopened.ok() || !(*reopened)->has_state()) {
    report->Fail("reopening the store of '" + group.JoinedEntries() + "': " +
                 (reopened.ok() ? std::string("no state")
                                : reopened.status().ToString()));
    return;
  }
  if (ledger != nullptr) {
    ledger->Span("store.recovery", kNoSpan, start, end);
    ledger->Sample("store.records_replayed",
                   static_cast<double>((*reopened)->recovery().replayed));
  }
  std::vector<Timestamp> times = (*reopened)->recovered_times();
  DoemDatabase recovered = (*reopened)->TakeRecoveredDb();
  if (times != group.polls || !recovered.Equals(group.doem)) {
    report->Fail("the history reopened from the store of '" +
                 group.JoinedEntries() + "' differs from the live group's");
  }
}

// Sets up the stack, runs the epoch's ticks, and checks the outputs.
// Returns the ticks measured.
size_t RunPollEpoch(const PollWorkload& w, uint32_t seed, Ledger* ledger,
                    PollTally* tally, Report* report) {
  const Timestamp start = Timestamp::FromDate(1997, 1, 1);
  const int64_t setup_cpu_start = ProcessCpuNs();
  // The guide's shape comes from the generator's default seed: with a few
  // hundred restaurants or fewer, how many carry a price, an address
  // object or a parking lot differs enough between seeds to move every
  // tick's work. The run's seed drives the changes.
  OemDatabase guide = testing::SyntheticGuide(w.restaurants);
  // Step 0 lands at `start`, taken by the initial poll; one step per tick
  // after it.
  OemHistory script = testing::SyntheticGuideChurn(
      guide, w.ticks_per_epoch + 1, w.ops_per_poll, seed);
  qss::ScriptedSource scripted(std::move(guide), std::move(script));
  std::unique_ptr<qss::Executor> executor;
  if (w.thread_pool) {
    executor = std::make_unique<qss::ThreadPoolExecutor>(PoolThreads());
  } else {
    executor = std::make_unique<qss::SerialExecutor>();
  }
  // The decorators sit between the layers only in a traced run.
  TimingSource timed_source(&scripted, ledger);
  TimingExecutor timed_executor(executor.get(), ledger);
  BenchStoreManager stores(ledger);
  obs::MetricsRegistry metrics;
  qss::QssOptions options;
  options.notify_empty = w.notify_empty;
  options.executor = ledger != nullptr ? &timed_executor : executor.get();
  if (w.durable) options.durability.store = &stores;
  if (ledger != nullptr) options.observability.metrics = &metrics;

  std::vector<std::unique_ptr<Wire>> wires;
  for (size_t c = 0; c < w.connections; ++c) {
    wires.push_back(std::make_unique<Wire>());
  }
  Receiver receiver(ledger, tally, report);
  qss::PollGroupManager manager(
      ledger != nullptr ? static_cast<qss::InformationSource*>(&timed_source)
                        : &scripted,
      start, options);
  qss::SubscriberRegistry registry(&manager);
  TimingFanout timed_fanout(&registry, ledger, w.durable ? &stores : nullptr);
  if (ledger != nullptr) manager.set_fanout(&timed_fanout);
  qss::server::QssServer server(&registry);
  for (std::unique_ptr<Wire>& wire : wires) {
    Wire* wp = wire.get();
    wp->id = server.Attach([wp](std::string_view bytes) {
      wp->pipe.ServerSend(bytes);
      wp->pipe.PumpToClient();
    });
    wp->pipe.set_server_sink([&server, id = wp->id](std::string_view bytes) {
      server.OnBytes(id, bytes);
    });
    wp->pipe.set_client_sink([&receiver, wp](std::string_view bytes) {
      receiver.OnBytes(wp, bytes);
    });
    wp->client = std::make_unique<qss::server::QssClient>(
        [wp](std::string_view bytes) { wp->pipe.ClientSend(bytes); });
  }

  // Wire subscribers, then the in-process twin of each (group, filter).
  struct Member {
    size_t group;
    size_t filter;
  };
  std::map<std::string, Member> members;
  std::vector<std::vector<StreamDigest>> twins(w.groups.size());
  std::vector<TwinDelivery> twin_pending;
  auto digest_pending = [&] {
    receiver.Digest();
    for (const TwinDelivery& d : twin_pending) {
      d.digest->Add(d.poll_ticks, d.poll_index, d.rows.RowsToString());
    }
    twin_pending.clear();
  };
  std::vector<qss::PollGroup*> live(w.groups.size(), nullptr);
  std::vector<std::vector<std::string>> filter_texts;
  for (size_t g = 0; g < w.groups.size(); ++g) {
    const GroupSpec& spec = w.groups[g];
    const std::string entry = "G" + std::to_string(g);
    filter_texts.push_back(FilterTexts(entry, spec.label));
    const std::vector<std::string>& filters = filter_texts.back();
    for (size_t m = 0; m < w.subscribers_per_group; ++m) {
      qss::server::SubscribeMsg msg;
      msg.name = entry + "S" + std::to_string(m);
      msg.entry = entry;
      msg.interval_ticks = spec.interval_ticks;
      msg.polling_query = spec.polling_query;
      msg.filter_query = filters[m % filters.size()];
      members[msg.name] = Member{g, m % filters.size()};
      Wire* wire =
          wires[(g * w.subscribers_per_group + m) % wires.size()].get();
      ++report->attempted;
      wire->client->Subscribe(msg);
      wire->pipe.PumpToServer();
    }
    twins[g].resize(filters.size());
    for (size_t f = 0; f < filters.size(); ++f) {
      qss::Subscription sub;
      sub.name = "twin-" + entry + "F" + std::to_string(f);
      sub.entry = entry;
      sub.frequency.interval_ticks = spec.interval_ticks;
      sub.polling_query = spec.polling_query;
      sub.filter_query = filters[f];
      StreamDigest* digest = &twins[g][f];
      ++report->attempted;
      auto handle = registry.Subscribe(
          sub, [digest, &twin_pending](const qss::Notification& n) {
            TwinDelivery& d = twin_pending.emplace_back();
            d.digest = digest;
            d.poll_ticks = n.poll_time.ticks;
            d.poll_index = n.poll_index;
            d.rows.labels = n.result.labels;
            d.rows.rows = n.result.rows;
          });
      if (!handle.ok()) {
        report->Fail("in-process subscribe " + sub.name + ": " +
                     handle.status().ToString());
        continue;
      }
      live[g] = registry.GroupOf(*handle);
    }
  }
  qss::PollReport initial;
  CountPollErrors(manager.AdvanceTo(start, &initial), initial, report);
  const double setup_cpu_s =
      static_cast<double>(ProcessCpuNs() - setup_cpu_start) / 1e9;
  tally->setup_cpu_s.Add(setup_cpu_s);
  tally->cost.AddSetup(setup_cpu_s);
  digest_pending();

  std::vector<std::unique_ptr<Side>> sides;
  if (ledger != nullptr) {
    chorel::ChorelEngineOptions engine_options;
    engine_options.incremental = options.acceleration.incremental_filter;
    engine_options.seed_from_index =
        options.acceleration.seed_filter_from_index;
    engine_options.use_vm = options.acceleration.vm_filter;
    for (size_t g = 0; g < w.groups.size(); ++g) {
      if (live[g] == nullptr) continue;
      auto side = std::make_unique<Side>();
      side->live = live[g];
      side->doem = live[g]->doem;
      side->engine =
          std::make_unique<chorel::ChorelEngine>(side->doem, engine_options);
      for (const std::string& text : filter_texts[g]) {
        auto compiled = chorel::CompileChorel(text);
        if (!compiled.ok()) {
          report->Fail("compile " + text + ": " +
                       compiled.status().ToString());
          continue;
        }
        side->filters.push_back(std::move(compiled).value());
      }
      sides.push_back(std::move(side));
    }
  }
  auto store_totals = [&] {
    PollTally totals;
    for (qss::PollGroup* group : live) {
      const CountingFile* file =
          group != nullptr ? stores.file(group->key) : nullptr;
      if (file == nullptr) continue;
      totals.store_polls += group->polls.size();
      totals.store_bytes += file->bytes();
      totals.store_checkpoint_bytes += file->checkpoint_bytes();
      totals.store_syncs += file->syncs();
    }
    return totals;
  };
  const PollTally stored_before = store_totals();

  for (size_t i = 1; i <= w.ticks_per_epoch; ++i) {
    const Timestamp t(start.ticks + static_cast<int64_t>(i));
    for (std::unique_ptr<Side>& side : sides) {
      if (side->live->next_poll != t) continue;
      const int64_t snap_start = NowNs();
      side->before = side->live->doem.CurrentSnapshot();
      ledger->Span("doem.snapshot", kNoSpan, snap_start, NowNs(), t);
    }
    qss::PollReport polled;
    if (ledger != nullptr) ledger->BeginTick(stores.CommitNs());
    receiver.in_tick = true;
    const int64_t tick_cpu_start = ProcessCpuNs();
    const int64_t tick_start = NowNs();
    receiver.tick_start_ns = tick_start;
    Status advanced;
    if (ledger != nullptr) {
      ParentScope scope(kTickSpan);
      advanced = manager.AdvanceTo(t, &polled);
    } else {
      advanced = manager.AdvanceTo(t, &polled);
    }
    const int64_t tick_end = NowNs();
    const int64_t tick_cpu_end = ProcessCpuNs();
    receiver.in_tick = false;
    if (ledger != nullptr) {
      ledger->Span(kTickSpan, kNoSpan, tick_start, tick_end, t);
    }
    tally->tick_us.Add(Us(tick_end - tick_start));
    tally->tick_cpu_us.Add(Us(tick_cpu_end - tick_cpu_start));
    tally->cost.AddOp(Us(tick_cpu_end - tick_cpu_start));
    tally->busy_ns += tick_end - tick_start;
    tally->group_polls += polled.polls_ok;
    CountPollErrors(advanced, polled, report);
    digest_pending();
    for (std::unique_ptr<Side>& side : sides) {
      if (!side->before.has_value()) continue;
      const CountingFile* file = stores.file(side->live->key);
      Replay(side.get(), t, file, ledger, report);
    }
    if (i % kTicksPerReference == 0) tally->cost.Reference();
  }
  tally->cost.EndEpoch();

  const PollTally stored_after = store_totals();
  tally->store_polls += stored_after.store_polls - stored_before.store_polls;
  tally->store_bytes += stored_after.store_bytes - stored_before.store_bytes;
  tally->store_checkpoint_bytes += stored_after.store_checkpoint_bytes -
                                   stored_before.store_checkpoint_bytes;
  tally->store_syncs += stored_after.store_syncs - stored_before.store_syncs;

  // Every wire subscriber decoded exactly its in-process twin's stream.
  for (const auto& [name, member] : members) {
    ++report->attempted;
    auto it = receiver.streams.find(name);
    StreamDigest got = it == receiver.streams.end() ? StreamDigest{}
                                                    : it->second;
    if (!(got == twins[member.group][member.filter])) {
      report->Fail("wire subscriber " + name +
                   " decoded another notification stream than its "
                   "in-process twin");
    }
  }
  if (receiver.subscribed != members.size()) {
    report->Fail(std::to_string(receiver.subscribed) + " of " +
                 std::to_string(members.size()) + " subscribes confirmed");
  }
  for (const std::unique_ptr<Wire>& wire : wires) {
    if (!wire->client->error().ok()) {
      report->Fail("client stream: " + wire->client->error().ToString());
    }
  }
  for (qss::PollGroup* group : live) {
    const CountingFile* file =
        group != nullptr ? stores.file(group->key) : nullptr;
    if (file != nullptr) CheckReopen(*group, *file, ledger, report);
  }
  if (ledger != nullptr) {
    ledger->Count("qss.group.filter_evals", static_cast<double>(
        metrics.CounterValue("qss.group.filter_evals")));
    ledger->Count("qss.notifications",
                  static_cast<double>(metrics.CounterValue("qss.notifications")));
    ledger->Count("vm.compiles",
                  static_cast<double>(metrics.CounterValue("vm.compiles")));
    ledger->Count("vm.compile_fallbacks", static_cast<double>(
        metrics.CounterValue("vm.compile_fallbacks")));
  }
  if (tally->peak_rss_mb == 0) tally->peak_rss_mb = PeakRssMb();
  return w.ticks_per_epoch;
}

Report RunPollWorkload(const PollWorkload& w, const RunArgs& args,
                       Ledger* ledger) {
  Report report;
  PollTally untraced;
  PollTally traced;
  if (args.trace) {
    RunEpochs(args.seconds, kMinOps, [&] {
      return RunPollEpoch(w, args.seed, ledger, &traced, &report);
    });
    RunPollEpoch(w, args.seed, nullptr, &untraced, &report);
  } else {
    RunEpochs(args.seconds, kMinOps, [&] {
      return RunPollEpoch(w, args.seed, nullptr, &untraced, &report);
    });
  }

  // End-to-end, from the untraced epochs.
  const double busy_s = static_cast<double>(untraced.busy_ns) / 1e9;
  report.Set("setup_s", untraced.cost.setup_s().Median(), "s");
  report.Set("setup_cpu_s", untraced.setup_cpu_s.Median(), "s");
  report.SetRatio("group_polls_per_s",
                  static_cast<double>(untraced.group_polls), busy_s, "1/s");
  report.SetPercentile("tick_p50_us", untraced.tick_us, 50, "us");
  report.SetPercentile("tick_p95_us", untraced.tick_us, 95, "us");
  report.SetPercentile("notify_p50_us", untraced.notify_us, 50, "us");
  report.SetPercentile("notify_p99_us", untraced.notify_us, 99, "us");
  report.SetRatio("notifications_per_s",
                  static_cast<double>(untraced.notifications), busy_s, "1/s");
  if (w.durable) {
    report.SetRatio("store_bytes_per_poll",
                    static_cast<double>(untraced.store_bytes),
                    static_cast<double>(untraced.store_polls), "B");
  }
  report.Set("peak_rss_mb", untraced.peak_rss_mb, "MB");
  report.SetPercentile("op_cpu_p50_us", untraced.tick_cpu_us, 50, "us");
  report.SetPercentile("op_cpu_p95_us", untraced.tick_cpu_us, 95, "us");
  report.SetPercentile("op_p50_ref", untraced.cost.relative(), 50, "ref");
  report.SetPercentile("op_p95_ref", untraced.cost.relative(), 95, "ref");
  report.Set("reference_us", untraced.cost.reference_us().Median(), "us");
  if (!args.trace) return report;

  // Per layer, from the traced epochs.
  report.SetMedian("qss.fetch_us", *ledger, "qss.fetch", "us");
  report.SetMedian("qss.prepare_us", *ledger, kPrepareSpan, "us");
  report.SetMedian("qss.prepare_wait_us", *ledger, "qss.prepare_wait", "us");
  report.SetMedian("qss.commit_us", *ledger, kCommitSpan, "us");
  report.SetMedian("qss.fanout_us", *ledger, kFanoutSpan, "us");
  report.SetRatio("qss.filter_share_ratio",
                  ledger->CountOf("qss.group.filter_evals"),
                  ledger->CountOf("qss.notifications"), "ratio");
  const Ledger::Totals ticks = ledger->AllTotals()[kTickSpan];
  report.SetRatio("qss.unattributed_share", ticks.self_us, ticks.total_us,
                  "ratio");
  report.SetMedian("doem.snapshot_us", *ledger, "doem.snapshot", "us");
  report.SetMedian("doem.apply_us", *ledger, "doem.apply", "us");
  report.SetMedian("diff.diff_us", *ledger, "diff.diff", "us");
  report.SetMedian("diff.ops_per_poll", *ledger, "diff.ops_per_poll",
                   "count");
  report.SetMedian("chorel.cache_patch_us", *ledger, "chorel.cache_patch",
                   "us");
  report.SetMedian("chorel.filter_us", *ledger, "chorel.filter", "us");
  report.SetRatio("vm.fallback_ratio", ledger->CountOf("vm.compile_fallbacks"),
                  ledger->CountOf("vm.compiles"), "ratio");
  report.SetRatio("lorel.rows_per_node_visited", ledger->CountOf("lorel.rows"),
                  ledger->CountOf("lorel.nodes_visited"), "ratio");
  report.SetMedian("store.append_us", *ledger, "store.append", "us");
  report.SetRatio("store.syncs_per_poll",
                  static_cast<double>(traced.store_syncs),
                  static_cast<double>(traced.store_polls), "count");
  report.SetRatio("store.checkpoint_share",
                  static_cast<double>(traced.store_checkpoint_bytes),
                  static_cast<double>(traced.store_bytes), "ratio");
  report.SetMedian("store.recovery_ms", *ledger, "store.recovery", "ms",
                   1e-3);
  report.SetMedian("store.records_replayed", *ledger,
                   "store.records_replayed", "count");
  report.SetMedian("server.frame_bytes", *ledger, "server.frame_bytes", "B");
  report.SetMedian("server.client_decode_us", *ledger, "server.client_decode",
                   "us");
  report.Set("trace.overhead_us",
             traced.tick_us.Median() - untraced.tick_us.Median(), "us");
  return report;
}

}  // namespace

Report RunPollLargeGraph(const RunArgs& args, Ledger* ledger) {
  return RunPollWorkload(LargeGraph(), args, ledger);
}

Report RunFanoutSmallGraph(const RunArgs& args, Ledger* ledger) {
  return RunPollWorkload(FanoutSmallGraph(), args, ledger);
}

}  // namespace qssbench
}  // namespace doem
