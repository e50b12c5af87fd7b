// The QSS benchmark: runs one workload for a seed and a time budget,
// checks its outputs, prints every metric by name with its unit, and ends
// with one JSON line — the end-to-end metrics for an untraced run, the
// per-layer metrics for a traced one.
//
//   qssbench --workload poll_large_graph --seed 1 --seconds 10 --trace 0
//            [--out result.json] [--trace-out spans.trace.json]
//
// --out writes the run's record (machine stamp, seed, every metric);
// --trace-out writes a traced run's spans as Chrome trace JSON.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace doem {
namespace qssbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* meaning;
};

// End-to-end metrics, measured untraced; BENCHMARK.json declares the same
// names and units. Each applies to every workload: an operation is one
// tick on the poll workloads and one corpus sweep on archive_query. An
// operation's cost is the process's CPU time, all threads, in multiples of
// the CPU time of a fixed reference work taken in the same epoch
// (ReferenceUs): on a shared virtual host, steal time stretches wall-clock
// figures and a slower host phase stretches CPU time for seconds to
// minutes at a time, and the ratio cancels the second. Set-up CPU time is
// scaled the same way, to a host on which the reference work takes
// kNominalReferenceUs. The raw CPU times (setup_cpu_s, op_cpu_p50_us,
// ...), the reference's own time, and the wall-clock
// latencies and throughputs (tick_p50_us, notify_p99_us,
// group_polls_per_s, ...) are printed but not declared.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s",
     "CPU time of the set-up before timing: inputs, subscriptions, archive "
     "writing, scaled to the nominal reference time (median over epochs)"},
    {"op_p50_ref", "ref",
     "median CPU time of one tick or sweep, in reference-work times"},
    {"op_p95_ref", "ref",
     "95th percentile CPU time of one tick or sweep, in reference-work "
     "times"},
    {"peak_rss_mb", "MB",
     "peak resident memory of the process over its first untraced epoch "
     "(later epochs repeat the work; only the run's latency samples grow)"},
};

// Per-layer metrics of a traced run, with the end-to-end metric each
// should move (and on which workload). A workload that makes no call into
// a layer reports 0 for it.
constexpr MetricDef kPerLayer[] = {
    {"qss.fetch_us", "us",
     "PollForGroup per call; tick_p50_us/poll_large_graph, expected flat"},
    {"qss.prepare_us", "us",
     "executor task per group; group_polls_per_s/fanout_small_graph"},
    {"qss.prepare_wait_us", "us",
     "wave start to task start; group_polls_per_s/fanout_small_graph"},
    {"qss.commit_us", "us",
     "PollReport apply_ns (DOEM apply + cache patch) + store append and "
     "checkpoint, per group; tick_p50_us/poll_large_graph"},
    {"qss.fanout_us", "us",
     "SubscriberRegistry::FanOut per poll; notify_p99_us/fanout_small_graph"},
    {"qss.filter_share_ratio", "ratio",
     "filter_evals / notifications; notify_p50_us/fanout_small_graph"},
    {"qss.unattributed_share", "ratio",
     "tick time outside the fetch, diff, prepare wave, commit and fan-out "
     "spans, e.g. the copy of each answer into its group's wrapper, which "
     "no public timer covers: the ledger adds up when this is small"},
    {"doem.snapshot_us", "us",
     "CurrentSnapshot before a poll; tick_p50_us/poll_large_graph"},
    {"doem.apply_us", "us",
     "replayed ApplyChangeSet; tick_p50_us/poll_large_graph, "
     "restart_ms/archive_query"},
    {"diff.diff_us", "us",
     "replayed DiffSnapshots; tick_p50_us/poll_large_graph"},
    {"diff.ops_per_poll", "count", "change operations per poll"},
    {"chorel.cache_patch_us", "us",
     "replayed ApplyDelta; tick_p50_us/poll_large_graph, expected small"},
    {"chorel.filter_us", "us",
     "replayed RunCompiled per filter; notify_p50_us/fanout_small_graph"},
    {"chorel.query_direct_us", "us",
     "Run, direct strategy; query_p50_us/archive_query"},
    {"chorel.query_translated_us", "us",
     "Run, translated strategy; query_p50_us/archive_query"},
    {"encoding.build_ms", "ms",
     "first translated run after restart; restart_ms/archive_query"},
    {"vm.fallback_ratio", "ratio",
     "vm.compile_fallbacks / vm.compiles; query_p99_us/archive_query"},
    {"lorel.rows_per_node_visited", "ratio",
     "rows / EvalStats nodes_visited; query_p50_us/archive_query"},
    {"store.append_us", "us",
     "File::Append per record in a tick; tick_p95_us/poll_large_graph"},
    {"store.syncs_per_poll", "count",
     "File::Sync per committed poll; tick_p95_us/poll_large_graph"},
    {"store.checkpoint_share", "ratio",
     "checkpoint bytes / bytes appended; store_bytes_per_poll/"
     "poll_large_graph"},
    {"store.recovery_ms", "ms",
     "Store::Open on the written log; restart_ms/archive_query"},
    {"store.records_replayed", "count",
     "deltas replayed by that recovery; restart_ms/archive_query"},
    {"store.time_travel_us", "us",
     "store::AsOf / store::Between; query_p99_us/archive_query"},
    {"server.frame_bytes", "B",
     "bytes per notification frame; notify_p50_us/fanout_small_graph"},
    {"server.client_decode_us", "us",
     "QssClient::OnBytes per frame; notify_p50_us/fanout_small_graph"},
    {"trace.overhead_us", "us",
     "traced minus untraced median operation (tick or sweep)"},
};

struct Args {
  std::string workload;
  RunArgs run;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      unsigned long long seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || seed > UINT32_MAX) {
        *error = "--seed takes a whole number below 2^32";
        return false;
      }
      args->run.seed = static_cast<uint32_t>(seed);
    } else if (flag == "--seconds") {
      double seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(seconds > 0) || seconds > 60) {
        *error = "--seconds takes a number in (0, 60]";
        return false;
      }
      args->run.seconds = seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->run.trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit a double carries.
std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const Report& report) {
  std::string out = "{";
  for (const Report::Metric& m : report.metrics) {
    if (out.size() > 1) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + Number(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}";
}

void PrintRow(const std::string& name, const std::string& value,
              const std::string& unit, const std::string& note) {
  std::printf("  %-30s %16s %-6s %s\n", name.c_str(), value.c_str(),
              unit.c_str(), note.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr,
                 "qssbench: %s\nusage: qssbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out FILE] [--trace-out FILE]\n",
                 error.c_str());
    return 2;
  }
  const Machine machine = ThisMachine();
  if (machine.build_type != "Release") {
    std::fprintf(stderr,
                 "qssbench: refusing to measure a '%s' build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 machine.build_type.c_str());
    return 2;
  }
  Report (*run)(const RunArgs&, Ledger*) = nullptr;
  if (args.workload == "poll_large_graph") run = RunPollLargeGraph;
  if (args.workload == "fanout_small_graph") run = RunFanoutSmallGraph;
  if (args.workload == "archive_query") run = RunArchiveQuery;
  if (run == nullptr) {
    std::fprintf(stderr,
                 "qssbench: unknown workload '%s' (poll_large_graph, "
                 "fanout_small_graph, archive_query)\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("qssbench workload=%s seed=%u seconds=%g trace=%d\n",
              args.workload.c_str(), args.run.seed, args.run.seconds,
              args.run.trace ? 1 : 0);
  std::printf("machine nproc=%u cpu=%s build=%s\n", machine.nproc,
              JsonString(machine.cpu_model).c_str(),
              machine.build_type.c_str());
  std::fflush(stdout);

  Ledger ledger;
  Report report = run(args.run, &ledger);
  report.SetRatio("error_ratio", static_cast<double>(report.failed),
                  static_cast<double>(report.attempted), "ratio");

  // Everything the run measured, by name.
  std::printf("\nmetrics (end-to-end from untraced epochs%s)\n",
              args.run.trace ? "; per-layer from traced epochs" : "");
  for (const Report::Metric& m : report.metrics) {
    std::string note;
    for (const MetricDef& def : kEndToEnd) {
      if (m.name == def.name) note = def.meaning;
    }
    PrintRow(m.name, Number(m.value), m.unit, note);
  }
  if (args.run.trace) {
    std::printf("\nper-layer metrics (what each should move)\n");
    for (const MetricDef& def : kPerLayer) {
      const Report::Metric* m = report.Find(def.name);
      PrintRow(def.name, m != nullptr ? Number(m->value) : "0", def.unit,
               m != nullptr ? def.meaning : "bypassed by this workload");
    }
    std::printf("\nspans (calls, total ms, self ms)\n");
    for (const auto& [name, totals] : ledger.AllTotals()) {
      std::printf("  %-30s %10llu %14.3f %14.3f\n", name.c_str(),
                  static_cast<unsigned long long>(totals.calls),
                  totals.total_us / 1e3, totals.self_us / 1e3);
    }
    if (ledger.dropped() > 0) {
      std::printf("  (%llu spans beyond the trace buffer were dropped)\n",
                  static_cast<unsigned long long>(ledger.dropped()));
    }
  }
  for (const std::string& failure : report.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }

  // The JSON line: exactly the declared metrics of this kind.
  Report selected;
  if (args.run.trace) {
    for (const MetricDef& def : kPerLayer) {
      const Report::Metric* m = report.Find(def.name);
      selected.Set(def.name, m != nullptr ? m->value : 0, def.unit);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      const Report::Metric* m = report.Find(def.name);
      if (m == nullptr || !std::isfinite(m->value) || m->value <= 0) {
        std::fprintf(stderr, "qssbench: no measurement for %s\n", def.name);
        return 1;
      }
      selected.Set(def.name, m->value, def.unit);
    }
  }
  const bool correct = report.failed == 0 && report.attempted > 0;

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "{\"workload\": " << JsonString(args.workload)
        << ", \"seed\": " << args.run.seed
        << ", \"seconds\": " << Number(args.run.seconds)
        << ", \"trace\": " << (args.run.trace ? 1 : 0)
        << ", \"machine\": {\"nproc\": " << machine.nproc
        << ", \"cpu_model\": " << JsonString(machine.cpu_model)
        << ", \"build_type\": " << JsonString(machine.build_type) << "}"
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << report.attempted
        << ", \"failed\": " << report.failed
        << ", \"metrics\": " << MetricsJson(report) << "}\n";
    if (!out) std::fprintf(stderr, "qssbench: could not write %s\n",
                           args.out.c_str());
  }
  if (args.run.trace && !args.trace_out.empty()) {
    std::ofstream trace(args.trace_out);
    trace << ledger.ChromeTrace();
    if (!trace) std::fprintf(stderr, "qssbench: could not write %s\n",
                             args.trace_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(selected).c_str());
  return 0;
}

}  // namespace
}  // namespace qssbench
}  // namespace doem

int main(int argc, char** argv) { return doem::qssbench::Main(argc, argv); }
