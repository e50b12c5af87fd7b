#ifndef DOEM_STORE_TIME_TRAVEL_H_
#define DOEM_STORE_TIME_TRAVEL_H_

#include "common/result.h"
#include "doem/doem.h"
#include "oem/timestamp.h"

namespace doem {
namespace store {

/// Time-travel reconstruction over a (typically recovered) DOEM history.
/// These are thin, well-specified compositions of the Section 3.2
/// machinery, packaged so a process that just reopened its store can run
/// Chorel/Lorel queries against past states and past intervals.

/// The database as of time t: a plain OEM snapshot O_t(D) wrapped as an
/// annotation-free DOEM database. Queries over it see exactly the state
/// a fresh observer would have seen at t. Costs O(N + A) in the size of
/// db's graph, whatever the history length.
Result<DoemDatabase> AsOf(const DoemDatabase& db, Timestamp t);

/// The history restricted to the interval (t1, t2]: starts from the
/// snapshot at t1 and carries annotations only for changes committed
/// after t1 and at or before t2. Chorel annotation predicates over the
/// result range exactly over that interval — `Between(db, -inf, +inf)`
/// is (feasibility-equivalent to) db itself. Reads only the window: costs
/// O(N + A + ops in (t1, t2]), whatever the history outside it.
Result<DoemDatabase> Between(const DoemDatabase& db, Timestamp t1,
                             Timestamp t2);

}  // namespace store
}  // namespace doem

#endif  // DOEM_STORE_TIME_TRAVEL_H_
