// Keeps METRICS.md — the generated reference of every metric the
// codebase can emit — in lockstep with the code. A full reference stack
// (durable store + subscription service + Chorel engines + wire server)
// is stood up so every registration site runs, then the registry's
// Describe() output is rendered as the markdown table METRICS.md holds.
// A mismatch means a metric was added, renamed, or re-helped without
// regenerating the doc:
//
//   DOEM_UPDATE_METRICS_DOC=1 ./build/tests/metrics_doc_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "oracle.h"

namespace doem {
namespace {

#ifndef DOEM_SOURCE_DIR
#error "metrics_doc_test needs -DDOEM_SOURCE_DIR=\"<repo root>\""
#endif

// Every metric family has a registration site in exactly one layer; an
// oracle run with every layer on — durable store, caches, VM, wire
// server — materializes the whole catalog.
oracle::Output MaterializeAllMetrics() {
  return oracle::Execute(oracle::FilterScenario(8, 3),
                         {.incremental = true, .vm = true,
                          .store = oracle::Config::Store::kMemory,
                          .obs = true,
                          .front_end = oracle::Config::FrontEnd::kWire});
}

std::string MarkdownEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '|') {
      out += "\\|";
    } else if (c == '\n') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string RenderDoc(const obs::MetricsRegistry& metrics) {
  std::string doc =
      "# Metrics reference\n"
      "\n"
      "Every metric the codebase can emit, generated from\n"
      "`MetricsRegistry::Describe()` by `tests/metrics_doc_test.cc` over a\n"
      "reference stack that exercises every registration site (durable\n"
      "store, subscription service, Chorel engines, wire server). Do not\n"
      "edit by hand — regenerate after adding or renaming a metric:\n"
      "\n"
      "```sh\n"
      "DOEM_UPDATE_METRICS_DOC=1 ./build/tests/metrics_doc_test\n"
      "```\n"
      "\n"
      "Prometheus exposition (`StatsRequest` over the wire, or\n"
      "`MetricsRegistry::ExportPrometheus()`) rewrites the dotted names\n"
      "below with underscores, e.g. `qss.polls_ok` -> `qss_polls_ok`.\n"
      "\n"
      "| Metric | Kind | Help |\n"
      "| --- | --- | --- |\n";
  for (const obs::MetricsRegistry::MetricInfo& info : metrics.Describe()) {
    doc += "| `" + info.name + "` | " + info.kind + " | " +
           MarkdownEscape(info.help) + " |\n";
  }
  return doc;
}

TEST(MetricsDocTest, CommittedDocMatchesTheRegistry) {
  const oracle::Output run = MaterializeAllMetrics();
  const obs::MetricsRegistry& metrics = *run.metrics;

  // Guard the guard: if a layer stops registering, the doc comparison
  // would "pass" while silently documenting less. Each family must be
  // present before the doc is worth comparing.
  std::vector<std::string> families = {"qss.",        "qss.group.",
                                       "qss.notify.", "qss.server.",
                                       "chorel.",     "encoding.",
                                       "vm.",         "store."};
  std::vector<obs::MetricsRegistry::MetricInfo> described =
      metrics.Describe();
  for (const std::string& family : families) {
    bool found = false;
    for (const auto& info : described) {
      if (info.name.rfind(family, 0) == 0) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "no metric in family " << family
                       << " — the reference stack no longer reaches its "
                          "registration site";
  }

  std::string rendered = RenderDoc(metrics);
  const std::string path = std::string(DOEM_SOURCE_DIR) + "/METRICS.md";

  if (std::getenv("DOEM_UPDATE_METRICS_DOC") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << rendered;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    GTEST_SKIP() << "regenerated " << path << " (" << described.size()
                 << " metrics)";
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << path << " missing — generate it with DOEM_UPDATE_METRICS_DOC=1 "
      << "./build/tests/metrics_doc_test";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), rendered)
      << "METRICS.md is stale — regenerate with DOEM_UPDATE_METRICS_DOC=1 "
      << "./build/tests/metrics_doc_test";
}

}  // namespace
}  // namespace doem
