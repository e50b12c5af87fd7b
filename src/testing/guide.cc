#include "testing/guide.h"

#include <cassert>

namespace doem {
namespace testing {

namespace {
void Must(const Status& s) { assert(s.ok()); (void)s; }
}  // namespace

Guide BuildGuide() {
  Guide g;
  OemDatabase& db = g.db;

  // Paper-numbered nodes first so their ids match Example 2.3.
  Must(db.CreNode(1, Value::Int(10)));        // n1: Bangkok price
  Must(db.CreNode(4, Value::Complex()));      // n4: guide root
  Must(db.CreNode(6, Value::Complex()));      // n6: Janta restaurant
  Must(db.CreNode(7, Value::Complex()));      // n7: shared parking object
  // Burn n2, n3, n5 so NewNode below never hands them out; the history
  // creates them later.
  db.ReserveIdsBelow(8);

  // Lorel path expressions start at the database root; "guide" is the
  // name of the top-level object, i.e. a label on an arc from an
  // anonymous root (the free-floating "guide" arrow of Figure 2).
  NodeId root = db.NewComplex();
  Must(db.SetRoot(root));
  Must(db.AddArc(root, "guide", 4));

  // Bangkok Cuisine.
  g.bangkok = db.NewComplex();
  Must(db.AddArc(4, "restaurant", g.bangkok));
  Must(db.AddArc(g.bangkok, "name", db.NewString("Bangkok Cuisine")));
  Must(db.AddArc(g.bangkok, "price", 1));
  Must(db.AddArc(g.bangkok, "address", db.NewString("120 Lytton")));
  Must(db.AddArc(g.bangkok, "cuisine", db.NewString("Indian")));
  Must(db.AddArc(g.bangkok, "parking", 7));

  // Janta.
  Must(db.AddArc(4, "restaurant", 6));
  Must(db.AddArc(6, "name", db.NewString("Janta")));
  Must(db.AddArc(6, "price", db.NewString("moderate")));
  g.janta_address = db.NewComplex();
  Must(db.AddArc(6, "address", g.janta_address));
  Must(db.AddArc(g.janta_address, "street", db.NewString("Lytton")));
  Must(db.AddArc(g.janta_address, "city", db.NewString("Palo Alto")));
  Must(db.AddArc(6, "parking", 7));  // n7 has two incoming arcs

  // The parking object: a leaf description, a comment, and a cycle back to
  // a restaurant via nearby-eats.
  Must(db.AddArc(7, "lot", db.NewString("Lytton lot 2")));
  Must(db.AddArc(7, "comment", db.NewString("usually full")));
  Must(db.AddArc(7, "nearby-eats", g.bangkok));

  assert(db.Validate().ok());
  return g;
}

Timestamp GuideT1() { return Timestamp::FromDate(1997, 1, 1); }
Timestamp GuideT2() { return Timestamp::FromDate(1997, 1, 5); }
Timestamp GuideT3() { return Timestamp::FromDate(1997, 1, 8); }

OemHistory GuideHistory() {
  OemHistory h;
  Must(h.Append(GuideT1(),
                {ChangeOp::UpdNode(1, Value::Int(20)),
                 ChangeOp::CreNode(2, Value::Complex()),
                 ChangeOp::CreNode(3, Value::String("Hakata")),
                 ChangeOp::AddArc(4, "restaurant", 2),
                 ChangeOp::AddArc(2, "name", 3)}));
  Must(h.Append(GuideT2(), {ChangeOp::CreNode(5, Value::String("need info")),
                            ChangeOp::AddArc(2, "comment", 5)}));
  Must(h.Append(GuideT3(), {ChangeOp::RemArc(6, "parking", 7)}));
  return h;
}

DoemDatabase GuideDoem() {
  auto d = DoemDatabase::Build(BuildGuide().db, GuideHistory());
  Must(d.status());
  return std::move(d).value();
}

}  // namespace testing
}  // namespace doem
