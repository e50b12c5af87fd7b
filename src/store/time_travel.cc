#include "store/time_travel.h"

namespace doem {
namespace store {

Result<DoemDatabase> AsOf(const DoemDatabase& db, Timestamp t) {
  return DoemDatabase::FromSnapshot(db.SnapshotAt(t));
}

Result<DoemDatabase> Between(const DoemDatabase& db, Timestamp t1,
                             Timestamp t2) {
  if (t2 < t1) {
    return Status::InvalidArgument("Between: t2 " + t2.ToString() +
                                   " precedes t1 " + t1.ToString());
  }
  return DoemDatabase::Build(db.SnapshotAt(t1), db.ExtractHistory(t1, t2));
}

}  // namespace store
}  // namespace doem
