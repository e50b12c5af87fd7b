// The differential oracle (DESIGN.md §7): one seeded scenario generator,
// one driver, one canonical digest and one reference configuration.
//
// A DOEM history is a function of its snapshots and change sets alone
// (paper §3.2), so the configuration options that only change *how* QSS
// computes — the executor, the incremental caches, the VM, the durable
// store (with a crash and reopen), observability, and the front end —
// must never change what it outputs. A Scenario fixes everything that
// defines the output; a Config picks one point of the option lattice.
// Two runs of one scenario must produce byte-identical digests.

#ifndef DOEM_TESTS_ORACLE_H_
#define DOEM_TESTS_ORACLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qss/fault.h"
#include "qss/qss.h"
#include "qss/server/server.h"
#include "store/store.h"

namespace doem {
namespace oracle {

/// The filter shapes of the QSS suites: a leaf's creations, price
/// updates, restaurant arcs added, parking arcs removed.
enum class Filter { kCre, kUpd, kAdd, kRem };

struct SubSpec {
  std::string name;
  /// Shared by a cohort (same filter text); empty means `name`.
  std::string entry;
  /// Polling query "select guide.restaurant[.leaf]".
  std::string leaf;
  int64_t interval = 1;
  Filter filter = Filter::kCre;
  /// The filter's window: T > t[-window].
  int window = 1;
  /// Subscribed before the first op (otherwise a kSubscribe op joins it).
  bool initially = true;
  /// Appended to the polling query as " where " + where, when not empty.
  std::string where = "";
};

struct Op {
  enum class Kind {
    kAdvance,
    kPollNow,
    kSourceChanged,
    kSubscribe,
    kUnsubscribe
  };
  Kind kind = Kind::kAdvance;
  /// kAdvance: ticks past the current clock (0 polls what is due now).
  int64_t ticks = 1;
  /// kPollNow / kSubscribe / kUnsubscribe: index into Scenario::subs.
  size_t sub = 0;
};

/// Everything that defines a run's output. Both runs of a pair share it.
struct Scenario {
  uint32_t seed = 0;
  enum class Source { kGuideHistory, kGuideChurn, kPaperGuide };
  Source source = Source::kGuideHistory;
  /// kPaperGuide: the edits the source goes through (default
  /// GuideHistory()).
  std::optional<OemHistory> script;
  size_t restaurants = 12;
  size_t steps = 10;
  size_t ops_per_step = 3;
  uint32_t guide_seed = 7;
  uint32_t history_seed = 11;
  /// Keyed ScriptedSource, or structural (fresh ids every poll).
  bool preserve_ids = true;
  Timestamp start = Timestamp::FromDate(1997, 1, 1);

  std::vector<SubSpec> subs;
  std::vector<Op> ops;

  /// Each spec must be scoped (query_contains) to one group's query.
  std::vector<qss::FaultSpec> faults;
  qss::QssOptions::FaultTolerance tolerance;

  chorel::Strategy strategy = chorel::Strategy::kDirect;
  qss::HistoryRetention retention = qss::HistoryRetention::kFull;
  bool merge_similar_polls = true;
  bool notify_empty = false;

  SubSpec& Sub(const std::string& name, const std::string& leaf,
               int64_t interval, Filter filter = Filter::kCre,
               const std::string& entry = "");
  void Advance(const std::vector<int64_t>& jumps);
  /// Some poll group loses its last subscriber and is subscribed again.
  bool Resurrects() const;
};

/// The subscription a SubSpec describes: polling query
/// "select guide.restaurant[.leaf] [where ...]" and the filter of its
/// shape.
qss::Subscription ToSubscription(const SubSpec& spec);

/// A query result's rows as sorted value keys: the digest for two
/// evaluations that may order rows differently.
std::vector<std::string> SortedRows(const lorel::QueryResult& result);

/// A random scenario: keyed or structural source over a growing or
/// churning guide, 2–4 poll groups with cohorts, all four filter shapes
/// over t[-1] or t[-2] windows, scoped faults (or none), and a driving
/// script mixing clock jumps, PollNow, NotifySourceChanged and
/// subscribe/unsubscribe churn.
Scenario DrawScenario(uint32_t seed);

/// Cre, Upd and Rem filters over the whole guide, polled every tick for
/// `polls` ticks.
Scenario FilterScenario(size_t restaurants, size_t polls);

/// One point of the option lattice. Default-constructed it is the
/// reference: inline executor, incremental, VM and index seeding off, no
/// store, no observability, the facade.
struct Config {
  enum class Executor { kInline, kSerial, kPool };
  enum class Store { kNone, kMemory, kCrash };
  enum class FrontEnd { kFacade, kLayered, kWire };
  Executor executor = Executor::kInline;
  /// Incremental caches on, each poll verified against a rebuild.
  bool incremental = false;
  /// VM filters on, each evaluation verified against the walker.
  bool vm = false;
  /// Filters seed from the annotation index (only VM filters seed).
  bool seed_filter_from_index = false;
  Store store = Store::kNone;
  /// kCrash: the process dies after this many kAdvance ops — or at the
  /// first later one where every group's circuit is closed with no
  /// pending failure (circuit state is process memory, not history) —
  /// and a new process reopens the same medium and resubscribes.
  size_t crash_at = 0;
  /// Metrics, trace and event log attached.
  bool obs = false;
  FrontEnd front_end = FrontEnd::kFacade;

  std::string ToString() const;
  /// Dimensions that differ from the reference.
  int NonReference() const;
};

/// The configuration `c` is compared against on `s`: the reference, or,
/// when `c` has a store and `s` resurrects a group, the reference with a
/// memory store. A durable group that comes back resumes its stored
/// history, where an in-memory one starts over.
Config ReferenceFor(const Scenario& s, const Config& c);

/// The state of one live poll group at the end of a run.
struct GroupOutcome {
  std::string history;  // WriteDoemText
  std::vector<Timestamp> polls;
  std::vector<Timestamp> annotation_times;
  qss::PollHealth health;
  bool feasible = false;  // DoemDatabase::IsFeasible
};

struct Output {
  std::map<std::string, std::string> group_of;  // live subscription → key
  std::map<std::string, GroupOutcome> groups;   // by group key
  qss::PollReport report;
  /// "name@tick#index\n" + RowsToString, in delivery order.
  std::vector<std::string> notifications;
  /// Non-OK statuses of driving calls, "<op index>: <status>".
  std::vector<std::string> op_errors;
  size_t group_count = 0;
  /// FaultInjectingSource bookkeeping.
  size_t source_calls = 0, source_forwarded = 0;
  size_t injected_errors = 0, injected_garbage = 0, injected_slow = 0;
  Timestamp end;
  bool crashed = false;
  /// Set when Config::obs is on; shared by both processes of a crash.
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TraceRecorder> trace;
  std::unique_ptr<obs::EventLog> events;

  /// The canonical digest: every history and its polling times, health
  /// (missed-poll log included), the report counters without the *_ns
  /// wall-clock fields, the notification stream and the PollError list.
  std::string Digest() const;
};

/// One client wired to `server` through a LoopbackPipe.
struct WiredClient {
  explicit WiredClient(qss::server::QssServer* server);
  WiredClient(const WiredClient&) = delete;
  WiredClient& operator=(const WiredClient&) = delete;

  qss::server::LoopbackPipe pipe;
  qss::server::QssServer::ConnectionId id = 0;
  qss::server::QssClient client;
};

/// A live facade over a synthetic guide with a QssServer on its
/// registry, for tests that drive the wire by hand. `sinks` attaches the
/// metrics registry, and with kAll the trace recorder and event log too.
struct LiveServer {
  enum class Sinks { kNone, kMetrics, kAll };
  explicit LiveServer(Sinks sinks = Sinks::kMetrics, size_t restaurants = 12,
                      size_t steps = 8);
  Timestamp start() const { return Timestamp::FromDate(1997, 1, 1); }

  obs::MetricsRegistry metrics;
  obs::TraceRecorder trace;
  obs::EventLog events;
  OemDatabase base;
  qss::ScriptedSource source;
  qss::QuerySubscriptionService qss;
  qss::server::QssServer server;
};

struct Hooks {
  /// The durable medium (default: a fresh MemoryStoreManager per run).
  store::StoreManager* medium = nullptr;
  /// Called between the crash and the reopen, e.g. to tear a record.
  std::function<void()> at_crash = nullptr;
};

Output Execute(const Scenario& scenario, const Config& config,
               const Hooks& hooks = {});

/// Empty when the digests agree; otherwise the seed, both
/// configurations and the first line that differs.
std::string Mismatch(const Scenario& scenario, const Config& a,
                     const std::string& digest_a, const Config& b,
                     const std::string& digest_b);

/// Runs `b` and expects its digest to equal `ref`'s (a run of `a`).
Output ExpectSame(const Scenario& scenario, const Config& a, const Output& ref,
                  const Config& b, const Hooks& hooks = {});

}  // namespace oracle
}  // namespace doem

#endif  // DOEM_TESTS_ORACLE_H_
