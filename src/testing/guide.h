#ifndef DOEM_TESTING_GUIDE_H_
#define DOEM_TESTING_GUIDE_H_

#include "doem/doem.h"
#include "oem/history.h"
#include "oem/oem.h"

namespace doem {
namespace testing {

/// The paper's running example: the restaurant-guide OEM database of
/// Figure 2 (Example 2.1), with the node identifiers n1..n7 used by
/// Example 2.3:
///   n4 = the guide root, n1 = Bangkok Cuisine's price (10),
///   n6 = the Janta restaurant, n7 = the shared parking object,
///   n2/n3/n5 = reserved for the Hakata objects the history creates.
///
/// The database exhibits every irregularity the paper calls out: a price
/// that is an integer for one restaurant and a string for another, an
/// address that is a plain string for one and a complex object for the
/// other, a node with multiple incoming arcs (n7), and a cycle
/// (bangkok --parking--> n7 --nearby-eats--> bangkok).
/// The database root is an anonymous complex node with a single arc
/// labeled "guide" to n4 — Lorel path expressions such as
/// guide.restaurant.name start at the root, so "guide" is an entry name.
struct Guide {
  OemDatabase db;
  NodeId guide = 4;          // n4
  NodeId bangkok_price = 1;  // n1
  NodeId janta = 6;          // n6
  NodeId parking = 7;        // n7
  NodeId bangkok = 0;        // assigned by BuildGuide
  NodeId janta_address = 0;  // the complex address object
};

/// Builds Figure 2.
Guide BuildGuide();

/// The history of Example 2.3 (valid for BuildGuide().db):
///   t1 = 1Jan97:  updNode(n1, 20), creNode(n2, C),
///                 creNode(n3, "Hakata"), addArc(n4, restaurant, n2),
///                 addArc(n2, name, n3)
///   t2 = 5Jan97:  creNode(n5, "need info"), addArc(n2, comment, n5)
///   t3 = 8Jan97:  remArc(n6, parking, n7)
OemHistory GuideHistory();

/// The DOEM database of Example 3.1: BuildGuide().db under GuideHistory().
DoemDatabase GuideDoem();

/// Timestamps t1, t2, t3 of GuideHistory.
Timestamp GuideT1();
Timestamp GuideT2();
Timestamp GuideT3();

}  // namespace testing
}  // namespace doem

#endif  // DOEM_TESTING_GUIDE_H_
