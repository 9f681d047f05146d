//===- tests/test_paper_figures.cpp - The paper's worked examples ----------===//
///
/// \file
/// Replicates the concrete matrices and results of the paper's
/// figures:
///
///   * Fig. 1 — the DBM encoding of octagonal inequalities,
///   * Fig. 2 — the first analysis iteration of the running example
///     (O1..O3, the closures O3*, and the join at the loop head),
///   * Fig. 3 — independent-component extraction,
///   * Fig. 4 — join via the intersection of components.
///
//===----------------------------------------------------------------------===//

#include "oct/octagon.h"
#include "oct/partition.h"

#include <gtest/gtest.h>

using namespace optoct;

namespace {

TEST(PaperFig1, DbmEncoding) {
  // Variables x (index 0) and y (index 1); extended order
  // x+ = 0, x- = 1, y+ = 2, y- = 3 as in the figure.
  HalfDbm O(2);
  O.initTop();
  // -2x <= 2 is x- - x+ <= 2: entry (i=0, j=1).
  O.set(0, 1, 2.0);
  // x + y <= 5 is y+ - x- <= 5: entry (1, 2) — stored coherently at (3,0).
  O.set(1, 2, 5.0);
  // 2y <= 4 is y+ - y- <= 4: entry (3, 2).
  O.set(3, 2, 4.0);

  // Reading back through coherence reproduces both copies the figure
  // shows: O(1,2) and O(3,0) encode the same inequality.
  EXPECT_EQ(O.get(1, 2), 5.0);
  EXPECT_EQ(O.get(3, 0), 5.0);
  EXPECT_EQ(O.get(0, 1), 2.0);
  EXPECT_EQ(O.get(3, 2), 4.0);
  // Everything else is trivial.
  EXPECT_EQ(O.get(2, 0), Infinity); // y - x
  EXPECT_EQ(O.get(0, 0), 0.0);
}

/// The running example's variables: x = 0, y = 1, m = 2.
struct Fig2 : ::testing::Test {
  static constexpr unsigned X = 0, Y = 1, M = 2;

  /// O3: the state after x = 1; y = x (before the loop).
  static Octagon makeO3() {
    Octagon O(3);
    O.assign(X, LinExpr::constant(1.0));
    O.assign(Y, LinExpr::variable(X));
    return O;
  }
};

TEST_F(Fig2, O2AfterXAssign) {
  Octagon O(3);
  O.assign(X, LinExpr::constant(1.0));
  // The figure's O2 holds 2x <= 2 and -2x <= -2.
  EXPECT_EQ(O.boundOf(OctCons::upper(X, 0)), 2.0);  // entry value is 2c
  EXPECT_EQ(O.boundOf(OctCons::lower(X, 0)), -2.0);
  // m is untouched: no non-trivial inequality involves it.
  for (unsigned I = 0; I != 6; ++I)
    for (unsigned J = 0; J != 6; ++J) {
      if (I != J && (I / 2 == M || J / 2 == M)) {
        EXPECT_EQ(O.entry(I, J), Infinity) << I << "," << J;
      }
    }
  // The closure after x := 1 takes Section 3.5's decision: 8 of the 24
  // entries are finite, D = 2/3 < t, so the element is Dense.
  EXPECT_EQ(O.kind(), DbmKind::Dense);
}

TEST_F(Fig2, O3StarDerivedConstraints) {
  Octagon O = makeO3();
  O.close();
  // Shortest-path: y - x <= 0 and x <= 1 give y <= 1 (2y <= 2).
  EXPECT_EQ(O.boundOf(OctCons::upper(Y, 0)), 2.0);
  // Strengthening: x <= 1 and y <= 1 give x + y <= 2.
  EXPECT_EQ(O.boundOf(OctCons::sum(X, Y, 0)), 2.0);
  // And the lower bounds: -2y <= -2, -x - y <= -2.
  EXPECT_EQ(O.boundOf(OctCons::lower(Y, 0)), -2.0);
  EXPECT_EQ(O.boundOf(OctCons::negSum(X, Y, 0)), -2.0);
}

TEST_F(Fig2, LoopIterationJoin) {
  // One loop iteration: assume(x <= m); x = x + 1; y = y + x, then the
  // join with O3 at the loop head — the rightmost matrix of Fig. 2.
  Octagon O3 = makeO3();
  Octagon O6 = O3;
  O6.addConstraint(OctCons::diff(X, M, 0.0)); // x - m <= 0 (guard)
  LinExpr IncX = LinExpr::variable(X);
  IncX.Const = 1.0;
  O6.assign(X, IncX); // x = x + 1  => x = 2
  // y = y + x is not octagonal (two variables on the rhs); the figure's
  // analysis computes it exactly, our library falls back to intervals —
  // with x and y both constants the interval result is exact too.
  LinExpr Sum;
  Sum.Terms = {{1, Y}, {1, X}};
  O6.assign(Y, Sum); // y = y + x = 3

  EXPECT_EQ(O6.bounds(X).Lo, 2.0);
  EXPECT_EQ(O6.bounds(X).Hi, 2.0);
  EXPECT_EQ(O6.bounds(Y).Lo, 3.0);
  EXPECT_EQ(O6.bounds(Y).Hi, 3.0);

  Octagon Joined = Octagon::join(O3, O6);
  // The figure's join: 2 <= 2x <= 4 i.e. x in [1,2]; y in [1,3];
  // x - y <= 0; x + y <= 5 (from closed O6: x+y = 5... the figure shows
  // the joined matrix's entries; spot-check the x bounds and relation.
  EXPECT_EQ(Joined.bounds(X).Lo, 1.0);
  EXPECT_EQ(Joined.bounds(X).Hi, 2.0);
  EXPECT_EQ(Joined.bounds(Y).Lo, 1.0);
  EXPECT_EQ(Joined.bounds(Y).Hi, 3.0);
  EXPECT_LE(Joined.boundOf(OctCons::diff(X, Y, 0)), 1.0);
}

TEST(PaperFig3, IndependentComponents) {
  // V = {u, v, x, y, z} as indices 0..4. Non-trivial inequalities:
  // u~x, x~z (binary), v unary; y unconstrained.
  HalfDbm M(5);
  M.initTop();
  unsigned U = 0, V = 1, X = 2, Z = 4;
  M.set(2 * U, 2 * X, 2.0);         // x - u <= 2
  M.set(2 * X + 1, 2 * Z, 1.0);     // z + x <= 1
  M.set(2 * V + 1, 2 * V, 4.0);     // 2v <= 4
  Partition P = extractPartition(M);
  // The figure's result: components {u, x, z} and {v}; y uncovered.
  ASSERT_EQ(P.numComponents(), 2u);
  EXPECT_EQ(P.componentOf(U), P.componentOf(X));
  EXPECT_EQ(P.componentOf(X), P.componentOf(Z));
  EXPECT_TRUE(P.contains(V));
  EXPECT_NE(P.componentOf(V), P.componentOf(U));
  EXPECT_FALSE(P.contains(3)); // y
}

TEST(PaperFig4, JoinOnIntersectionOfComponents) {
  // Left input: components {u,x,z} and {v}; right input: {x,z} and {v}
  // (u unconstrained). The join's components are the intersection:
  // {x,z} and {v}; only those entries are accessed/produced.
  unsigned U = 0, V = 1, X = 2, Z = 4;
  Octagon A(5);
  A.addConstraint(OctCons::diff(X, U, 2.0));
  A.addConstraint(OctCons::sum(X, Z, 1.0));
  A.addConstraint(OctCons::upper(V, 2.0));
  Octagon B(5);
  B.addConstraint(OctCons::sum(X, Z, 3.0));
  B.addConstraint(OctCons::upper(V, 1.0));

  Octagon J = Octagon::join(A, B);
  // u drops out (not covered in B): its relation to x is gone.
  EXPECT_EQ(J.entry(2 * U, 2 * X), Infinity);
  // x + z keeps the max of the two bounds.
  EXPECT_EQ(J.boundOf(OctCons::sum(X, Z, 0)), 3.0);
  // v keeps the max unary bound.
  EXPECT_EQ(J.bounds(V).Hi, 2.0);
  // The result's components over-approximate within the intersection:
  // u is not covered.
  EXPECT_FALSE(J.partition().contains(U));
}

} // namespace
