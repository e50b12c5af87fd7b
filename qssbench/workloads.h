// The benchmark's workloads. Each runs whole epochs (set-up, timed
// operations, output checks; a poll epoch repeats the same inputs, an
// archive epoch draws its own query order and windows from the seed) until
// `seconds` have passed. A traced run records its layer spans into the
// ledger, then runs one untraced epoch as the reference for the tracing
// overhead.
#ifndef QSSBENCH_WORKLOADS_H_
#define QSSBENCH_WORKLOADS_H_

#include <cstdint>

#include "bench.h"

namespace doem {
namespace qssbench {

struct RunArgs {
  /// Every input is generated from this.
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Operations a run measures at least: 200 puts ten samples beyond the
/// 95th percentile.
inline constexpr size_t kMinOps = 200;

Report RunPollLargeGraph(const RunArgs& args, Ledger* ledger);
Report RunFanoutSmallGraph(const RunArgs& args, Ledger* ledger);
Report RunArchiveQuery(const RunArgs& args, Ledger* ledger);

}  // namespace qssbench
}  // namespace doem

#endif  // QSSBENCH_WORKLOADS_H_
