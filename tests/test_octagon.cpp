//===- tests/test_octagon.cpp - OptOctagon domain unit tests --------------===//

#include "oct/octagon.h"

#include "oct/config.h"

#include <gtest/gtest.h>

using namespace optoct;

namespace {

class OctagonTest : public ::testing::Test {
protected:
  void SetUp() override { Saved = octConfig(); }
  void TearDown() override { octConfig() = Saved; }
  OctConfig Saved;
};

TEST_F(OctagonTest, TopProperties) {
  Octagon O(4);
  EXPECT_EQ(O.kind(), DbmKind::Top);
  EXPECT_TRUE(O.isTop());
  EXPECT_FALSE(O.isBottom());
  EXPECT_TRUE(O.isClosed());
  EXPECT_EQ(O.nni(), 8u);
  EXPECT_GT(O.sparsity(), 0.75);
  EXPECT_EQ(O.entry(0, 3), Infinity);
  EXPECT_EQ(O.entry(5, 5), 0.0);
}

TEST_F(OctagonTest, BottomProperties) {
  Octagon O = Octagon::makeBottom(3);
  EXPECT_TRUE(O.isBottom());
  Octagon T(3);
  EXPECT_TRUE(O.leq(T));
  EXPECT_FALSE(T.leq(O));
}

TEST_F(OctagonTest, AddConstraintCreatesComponent) {
  Octagon O(5);
  O.addConstraint(OctCons::diff(0, 2, 3.0)); // v0 - v2 <= 3
  EXPECT_EQ(O.kind(), DbmKind::Decomposed);
  EXPECT_EQ(O.partition().numComponents(), 1u);
  EXPECT_TRUE(O.partition().contains(0));
  EXPECT_TRUE(O.partition().contains(2));
  EXPECT_FALSE(O.partition().contains(1));
  EXPECT_EQ(O.boundOf(OctCons::diff(0, 2, 0)), 3.0);
  // Unrelated pairs stay implicitly trivial.
  EXPECT_EQ(O.entry(2 * 1, 2 * 3), Infinity);
}

TEST_F(OctagonTest, UnaryConstraintAndBounds) {
  Octagon O(3);
  O.addConstraint(OctCons::upper(1, 7.0));
  O.addConstraint(OctCons::lower(1, -2.0)); // -v1 <= -2, i.e. v1 >= 2
  Interval B = O.bounds(1);
  EXPECT_EQ(B.Lo, 2.0);
  EXPECT_EQ(B.Hi, 7.0);
  Interval T = O.bounds(0);
  EXPECT_TRUE(T.isTop());
}

TEST_F(OctagonTest, ContradictionIsBottom) {
  Octagon O(2);
  O.addConstraint(OctCons::upper(0, 1.0));
  O.addConstraint(OctCons::lower(0, -5.0)); // v0 >= 5 contradicts v0 <= 1
  EXPECT_TRUE(O.isBottom());
}

TEST_F(OctagonTest, TransitivityThroughClosure) {
  // The paper's O3 example: x = 1, y = x  =>  y = 1 and x + y = 2.
  Octagon O(3);
  O.assign(0, LinExpr::constant(1.0));          // x := 1
  O.assign(1, LinExpr::variable(0));            // y := x
  Interval Y = O.bounds(1);
  EXPECT_EQ(Y.Lo, 1.0);
  EXPECT_EQ(Y.Hi, 1.0);
  // x + y <= 2 must have been derived by strengthening.
  EXPECT_EQ(O.boundOf(OctCons::sum(0, 1, 0)), 2.0);
}

TEST_F(OctagonTest, AssignShift) {
  Octagon O(2);
  O.assign(0, LinExpr::constant(5.0));
  LinExpr Inc = LinExpr::variable(0);
  Inc.Const = 3.0;
  O.assign(0, Inc); // x := x + 3
  Interval B = O.bounds(0);
  EXPECT_EQ(B.Lo, 8.0);
  EXPECT_EQ(B.Hi, 8.0);
}

TEST_F(OctagonTest, AssignShiftPreservesRelations) {
  Octagon O(2);
  O.addConstraint(OctCons::diff(0, 1, 0.0)); // x <= y
  LinExpr Inc = LinExpr::variable(0);
  Inc.Const = -2.0;
  O.assign(0, Inc); // x := x - 2  =>  x <= y - 2
  EXPECT_EQ(O.boundOf(OctCons::diff(0, 1, 0)), -2.0);
}

TEST_F(OctagonTest, AssignNegate) {
  Octagon O(2);
  O.assign(0, LinExpr::constant(4.0));
  LinExpr Neg;
  Neg.Terms = {{-1, 0u}};
  Neg.Const = 1.0;
  O.assign(0, Neg); // x := -x + 1 = -3
  Interval B = O.bounds(0);
  EXPECT_EQ(B.Lo, -3.0);
  EXPECT_EQ(B.Hi, -3.0);
}

TEST_F(OctagonTest, AssignVarCopy) {
  Octagon O(3);
  O.assign(0, LinExpr::constant(2.0));
  LinExpr Copy = LinExpr::variable(0);
  Copy.Const = 10.0;
  O.assign(2, Copy); // z := x + 10
  Interval B = O.bounds(2);
  EXPECT_EQ(B.Lo, 12.0);
  EXPECT_EQ(B.Hi, 12.0);
  // x and z are now in one component.
  EXPECT_EQ(O.partition().componentOf(0), O.partition().componentOf(2));
}

TEST_F(OctagonTest, AssignGeneralLinearFallsBackToIntervals) {
  Octagon O(3);
  O.assign(0, LinExpr::constant(2.0));
  O.assign(1, LinExpr::constant(3.0));
  LinExpr E; // 2*x + y - 1
  E.Terms = {{2, 0u}, {1, 1u}};
  E.Const = -1.0;
  O.assign(2, E);
  Interval B = O.bounds(2);
  EXPECT_EQ(B.Lo, 6.0);
  EXPECT_EQ(B.Hi, 6.0);
}

TEST_F(OctagonTest, HavocForgets) {
  Octagon O(2);
  O.assign(0, LinExpr::constant(1.0));
  O.assign(1, LinExpr::variable(0));
  O.havoc(0);
  EXPECT_TRUE(O.bounds(0).isTop());
  // y's derived bound must survive the projection of x.
  Interval Y = O.bounds(1);
  EXPECT_EQ(Y.Lo, 1.0);
  EXPECT_EQ(Y.Hi, 1.0);
}

TEST_F(OctagonTest, MeetMergesComponents) {
  Octagon A(4);
  A.addConstraint(OctCons::diff(0, 1, 1.0));
  Octagon B(4);
  B.addConstraint(OctCons::diff(1, 2, 1.0));
  Octagon M = Octagon::meet(A, B);
  EXPECT_EQ(M.partition().numComponents(), 1u);
  EXPECT_EQ(M.boundOf(OctCons::diff(0, 1, 0)), 1.0);
  EXPECT_EQ(M.boundOf(OctCons::diff(1, 2, 0)), 1.0);
  // Transitive bound appears after closure.
  M.close();
  EXPECT_EQ(M.boundOf(OctCons::diff(0, 2, 0)), 2.0);
}

TEST_F(OctagonTest, JoinIntersectsComponents) {
  Octagon A(4);
  A.addConstraint(OctCons::diff(0, 1, 1.0));
  A.addConstraint(OctCons::diff(2, 3, 5.0));
  Octagon B(4);
  B.addConstraint(OctCons::diff(0, 1, 2.0));
  Octagon J = Octagon::join(A, B);
  // Only the {0,1} relation is common; bound is the max.
  EXPECT_EQ(J.boundOf(OctCons::diff(0, 1, 0)), 2.0);
  EXPECT_EQ(J.entry(2 * 3, 2 * 2), Infinity);
  EXPECT_EQ(J.partition().numComponents(), 1u);
}

TEST_F(OctagonTest, JoinWithTopIsTop) {
  Octagon A(3);
  A.addConstraint(OctCons::upper(0, 1.0));
  Octagon T(3);
  Octagon J = Octagon::join(A, T);
  EXPECT_TRUE(J.isTop());
}

TEST_F(OctagonTest, JoinWithBottomIsIdentity) {
  Octagon A(3);
  A.addConstraint(OctCons::upper(0, 1.0));
  Octagon Bot = Octagon::makeBottom(3);
  Octagon J = Octagon::join(A, Bot);
  EXPECT_EQ(J.bounds(0).Hi, 1.0);
}

TEST_F(OctagonTest, JoinIsUpperBound) {
  Octagon A(3);
  A.addConstraint(OctCons::upper(0, 1.0));
  A.addConstraint(OctCons::diff(0, 1, 0.0));
  Octagon B(3);
  B.addConstraint(OctCons::upper(0, 5.0));
  Octagon J = Octagon::join(A, B);
  EXPECT_TRUE(A.leq(J));
  EXPECT_TRUE(B.leq(J));
}

TEST_F(OctagonTest, MeetIsLowerBound) {
  Octagon A(3);
  A.addConstraint(OctCons::upper(0, 1.0));
  Octagon B(3);
  B.addConstraint(OctCons::lower(0, 0.0));
  Octagon M = Octagon::meet(A, B);
  EXPECT_TRUE(M.leq(A));
  EXPECT_TRUE(M.leq(B));
}

TEST_F(OctagonTest, WideningUnstableBoundsGoToInfinity) {
  Octagon A(2);
  A.addConstraint(OctCons::upper(0, 1.0));
  A.addConstraint(OctCons::lower(0, 0.0));
  Octagon B(2);
  B.addConstraint(OctCons::upper(0, 2.0)); // upper bound grew
  B.addConstraint(OctCons::lower(0, 0.0)); // lower bound stable
  Octagon W = Octagon::widen(A, B);
  Interval Bounds = W.bounds(0);
  EXPECT_EQ(Bounds.Lo, 0.0);
  EXPECT_EQ(Bounds.Hi, Infinity);
}

TEST_F(OctagonTest, WideningStabilizes) {
  // widen(X, X) == X for closed X.
  Octagon A(2);
  A.addConstraint(OctCons::upper(0, 3.0));
  A.close();
  Octagon B = A;
  Octagon W = Octagon::widen(A, B);
  EXPECT_TRUE(W.equals(A));
}

TEST_F(OctagonTest, NarrowingRecoversBounds) {
  Octagon A(2);
  A.addConstraint(OctCons::lower(0, 0.0)); // x >= 0, upper unbounded
  Octagon B(2);
  B.addConstraint(OctCons::lower(0, 0.0));
  B.addConstraint(OctCons::upper(0, 10.0));
  Octagon N = Octagon::narrow(A, B);
  EXPECT_EQ(N.bounds(0).Hi, 10.0);
  EXPECT_EQ(N.bounds(0).Lo, 0.0);
}

TEST_F(OctagonTest, LeqReflexiveAndOrdered) {
  Octagon A(3);
  A.addConstraint(OctCons::upper(0, 1.0));
  Octagon B(3);
  B.addConstraint(OctCons::upper(0, 5.0));
  EXPECT_TRUE(A.leq(A));
  EXPECT_TRUE(A.leq(B));
  EXPECT_FALSE(B.leq(A));
}

TEST_F(OctagonTest, EqualsIgnoresRepresentation) {
  // Same octagon reached by different constraint orders.
  Octagon A(3);
  A.addConstraint(OctCons::diff(0, 1, 2.0));
  A.addConstraint(OctCons::upper(1, 3.0));
  Octagon B(3);
  B.addConstraint(OctCons::upper(1, 3.0));
  B.addConstraint(OctCons::diff(0, 1, 2.0));
  EXPECT_TRUE(A.equals(B));
}

TEST_F(OctagonTest, ConstraintsRoundTrip) {
  Octagon O(3);
  O.addConstraint(OctCons::sum(0, 2, 5.0));
  O.addConstraint(OctCons::upper(1, 2.0));
  std::vector<OctCons> Cs = O.constraints();
  Octagon R(3);
  R.addConstraints(Cs);
  EXPECT_TRUE(O.equals(R));
}

TEST_F(OctagonTest, AddVarsKeepsConstraints) {
  Octagon O(2);
  O.addConstraint(OctCons::diff(0, 1, 4.0));
  O.addVars(3);
  EXPECT_EQ(O.numVars(), 5u);
  EXPECT_EQ(O.boundOf(OctCons::diff(0, 1, 0)), 4.0);
  EXPECT_TRUE(O.bounds(4).isTop());
}

TEST_F(OctagonTest, StrCanonicalizesNegativeZeroBounds) {
  // Negative-zero bounds arise from interval arithmetic (-1 * 0.0) and
  // from SIMD min/max tie-breaking; they are indistinguishable from +0
  // everywhere except printf, so str() must render both as "0" — loop
  // invariants compared across configurations depend on it.
  Octagon O(1);
  O.addConstraint(OctCons::upper(0, -0.0));
  EXPECT_EQ(O.str(), "v0 <= 0");
}

TEST_F(OctagonTest, RemoveTrailingVarsProjects) {
  Octagon O(4);
  O.assign(0, LinExpr::constant(1.0));
  O.assign(3, LinExpr::variable(0)); // relates 0 and 3
  O.removeTrailingVars(2);
  EXPECT_EQ(O.numVars(), 2u);
  Interval B = O.bounds(0);
  EXPECT_EQ(B.Hi, 1.0); // v0's own bound survives
}

TEST_F(OctagonTest, SparseClosureRecoversDecomposition) {
  // Build a monolithic Dense octagon, then widen away most bounds so
  // the next closure discovers the sparsity and decomposes (Fig. 7's
  // dense -> decomposed transition).
  octConfig().SparsityThreshold = 0.5;
  Octagon A(6);
  std::vector<OctCons> Cs;
  // Wide enough unary bounds that the chain differences are the tight
  // closed values (so they survive widening against B below).
  for (unsigned V = 0; V != 6; ++V) {
    Cs.push_back(OctCons::upper(V, 10.0 + V));
    Cs.push_back(OctCons::lower(V, 0.0));
  }
  for (unsigned V = 0; V + 1 != 6; ++V)
    Cs.push_back(OctCons::diff(V, V + 1, 1.0));
  A.addConstraints(Cs);
  A.close();

  // New value: only two disjoint relations stay stable; all unary
  // bounds grew (as widening after a loop would produce).
  Octagon B(6);
  B.addConstraint(OctCons::diff(0, 1, 1.0));
  B.addConstraint(OctCons::diff(3, 4, 1.0));
  Octagon W = Octagon::widen(A, B);
  W.close();
  EXPECT_FALSE(W.isBottom());
  EXPECT_EQ(W.partition().numComponents(), 2u);
  EXPECT_EQ(W.partition().componentOf(0), W.partition().componentOf(1));
  EXPECT_EQ(W.partition().componentOf(3), W.partition().componentOf(4));
}

TEST_F(OctagonTest, DecompositionDisabledStillCorrect) {
  octConfig().EnableDecomposition = false;
  Octagon O(3);
  EXPECT_EQ(O.kind(), DbmKind::Dense);
  O.assign(0, LinExpr::constant(1.0));
  O.assign(1, LinExpr::variable(0));
  Interval Y = O.bounds(1);
  EXPECT_EQ(Y.Lo, 1.0);
  EXPECT_EQ(Y.Hi, 1.0);
}

TEST_F(OctagonTest, StrengtheningMergesBoundedComponents) {
  // Two unrelated but bounded variables: the 2015 strengthening
  // materializes the entailed sum constraint and merges components.
  Octagon O(4);
  O.addConstraint(OctCons::upper(0, 2.0));
  O.addConstraint(OctCons::upper(2, 3.0));
  O.close();
  EXPECT_EQ(O.boundOf(OctCons::sum(0, 2, 0)), 5.0);
  EXPECT_EQ(O.partition().componentOf(0), O.partition().componentOf(2));
}

} // namespace
