#include "qss/fault.h"

#include <utility>

namespace doem {
namespace qss {

namespace {

// A wrapper that died mid-transfer: content arrived but the root
// designation (the "envelope") did not, so the snapshot fails every
// integrity check without being empty.
OemDatabase TruncatedSnapshot() {
  OemDatabase garbage;
  NodeId junk = garbage.NewComplex();
  garbage.NewString("truncated");
  (void)junk;
  return garbage;
}

}  // namespace

void FaultInjectingSource::FailPolls(size_t skip, size_t count, Status error,
                                     std::string query_contains) {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.skip = skip;
  spec.count = count;
  spec.error = error.ok() ? Status::Unavailable("injected fault")
                          : std::move(error);
  spec.query_contains = std::move(query_contains);
  AddFault(std::move(spec));
}

Result<OemDatabase> FaultInjectingSource::Poll(const std::string& lorel_query,
                                               Timestamp now) {
  return PollForGroup(lorel_query, lorel_query, now);
}

Result<OemDatabase> FaultInjectingSource::PollForGroup(
    const std::string& group_key, const std::string& lorel_query,
    Timestamp now) {
  ++calls_;
  last_duration_ = 0;
  for (ActiveSpec& active : faults_) {
    const FaultSpec& spec = active.spec;
    if (!spec.query_contains.empty() &&
        lorel_query.find(spec.query_contains) == std::string::npos) {
      continue;
    }
    ++active.matched;
    if (active.matched <= spec.skip) continue;
    if (spec.count != 0 && active.matched > spec.skip + spec.count) continue;
    switch (spec.kind) {
      case FaultKind::kError: {
        ++injected_errors_;
        Status error = spec.error;
        if (error.ok()) error = Status::Unavailable("injected fault");
        return error;
      }
      case FaultKind::kGarbage:
        ++injected_garbage_;
        return TruncatedSnapshot();
      case FaultKind::kSlowPoll:
        ++injected_slow_;
        last_duration_ = spec.duration_ticks;
        break;  // still forwards; QSS's deadline discards the answer
    }
    break;  // the first spec that fires wins
  }
  ++forwarded_;
  return inner_->PollForGroup(group_key, lorel_query, now);
}

}  // namespace qss
}  // namespace doem
