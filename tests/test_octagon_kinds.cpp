//===- tests/test_octagon_kinds.cpp - DBM kind lifecycle tests -------------===//
///
/// \file
/// The Section 3 type system in motion: Top -> Decomposed -> Dense ->
/// (widening) -> Sparse/Decomposed transitions, the sparsity rule
/// D < t, nni bookkeeping invariants, and the exact-assignment forms.
///
//===----------------------------------------------------------------------===//

#include "oct/config.h"
#include "oct/octagon.h"
#include "support/random.h"

#include <gtest/gtest.h>

using namespace optoct;

namespace {

class KindTest : public ::testing::Test {
protected:
  void SetUp() override { Saved = octConfig(); }
  void TearDown() override { octConfig() = Saved; }
  OctConfig Saved;
};

/// nni() must equal the number of finite entries of the materialized
/// matrix, except for the documented Dense over-approximation.
void expectNniExact(Octagon &O) {
  if (O.isBottom())
    return;
  unsigned N = O.numVars();
  std::size_t Finite = 0;
  for (unsigned I = 0; I != 2 * N; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      Finite += isFinite(O.entry(I, J));
  if (O.kind() == DbmKind::Dense) {
    EXPECT_GE(O.nni(), Finite); // over-approximation allowed (S 4.1)
    return;
  }
  EXPECT_EQ(O.nni(), Finite);
}

TEST_F(KindTest, ProgressionTopToDecomposedToDense) {
  octConfig().SparsityThreshold = 0.75;
  unsigned N = 4;
  Octagon O(N);
  EXPECT_EQ(O.kind(), DbmKind::Top);
  expectNniExact(O);

  O.addConstraint(OctCons::diff(0, 1, 1.0));
  EXPECT_EQ(O.kind(), DbmKind::Decomposed);
  expectNniExact(O);

  // Bound everything: strengthening merges all components and the
  // matrix fills in; reclassification should reach Dense.
  std::vector<OctCons> Cs;
  for (unsigned V = 0; V != N; ++V) {
    Cs.push_back(OctCons::upper(V, 5.0 + V));
    Cs.push_back(OctCons::lower(V, 0.0));
  }
  O.addConstraints(Cs);
  O.close();
  EXPECT_EQ(O.kind(), DbmKind::Dense);
  EXPECT_TRUE(O.partition().isWhole());
  EXPECT_LT(O.sparsity(), octConfig().SparsityThreshold);
}

TEST_F(KindTest, WideningRediscoversSparsity) {
  octConfig().SparsityThreshold = 0.5;
  unsigned N = 6;
  // Dense octagon A.
  Octagon A(N);
  std::vector<OctCons> Cs;
  for (unsigned V = 0; V != N; ++V) {
    Cs.push_back(OctCons::upper(V, 10.0));
    Cs.push_back(OctCons::lower(V, 0.0));
  }
  A.addConstraints(Cs);
  A.close();
  ASSERT_EQ(A.kind(), DbmKind::Dense);

  // B keeps only one relation; everything else grew.
  Octagon B(N);
  B.addConstraint(OctCons::diff(0, 1, 1.0));
  Octagon ACopy = A;
  Octagon W = Octagon::widen(ACopy, B);
  // Widening counted nni exactly; the next closure must see high
  // sparsity and leave the Dense kind.
  W.close();
  EXPECT_NE(W.kind(), DbmKind::Dense);
  expectNniExact(W);
}

TEST_F(KindTest, NniStaysExactThroughRandomOps) {
  Rng R(2024);
  for (int It = 0; It != 25; ++It) {
    unsigned N = 3 + static_cast<unsigned>(R.indexBelow(6));
    Octagon A(N), B(N);
    for (int K = 0; K != 8; ++K) {
      auto randomCons = [&]() {
        unsigned I = static_cast<unsigned>(R.indexBelow(N));
        unsigned J = (I + 1 + static_cast<unsigned>(R.indexBelow(N - 1))) % N;
        switch (R.intIn(0, 3)) {
        case 0:
          return OctCons::upper(I, R.intIn(0, 9));
        case 1:
          return OctCons::diff(I, J, R.intIn(0, 9));
        case 2:
          return OctCons::sum(I, J, R.intIn(0, 9));
        default:
          return OctCons::lower(I, R.intIn(0, 9));
        }
      };
      (R.chance(0.5) ? A : B).addConstraint(randomCons());
    }
    Octagon J = Octagon::join(A, B);
    expectNniExact(J);
    Octagon M = Octagon::meet(A, B);
    if (!M.isBottom()) {
      M.close();
      expectNniExact(M);
    }
    Octagon W = Octagon::widen(A, B);
    expectNniExact(W);
  }
}

TEST_F(KindTest, ShiftAssignPreservesClosureAndRelations) {
  Octagon O(3);
  O.addConstraint(OctCons::diff(0, 1, 2.0));
  O.addConstraint(OctCons::upper(0, 9.0));
  O.close();
  ASSERT_TRUE(O.isClosed());
  LinExpr Inc = LinExpr::variable(0);
  Inc.Const = 4.0;
  O.assign(0, Inc); // x := x + 4
  EXPECT_TRUE(O.isClosed()); // shift preserves closure
  EXPECT_EQ(O.boundOf(OctCons::diff(0, 1, 0)), 6.0);
  EXPECT_EQ(O.bounds(0).Hi, 13.0);
}

TEST_F(KindTest, NegateAssignSwapsBounds) {
  Octagon O(2);
  O.addConstraint(OctCons::upper(0, 7.0));
  O.addConstraint(OctCons::lower(0, -3.0)); // x >= 3
  O.close();
  LinExpr Neg;
  Neg.Terms = {{-1, 0u}};
  Neg.Const = 1.0;
  O.assign(0, Neg); // x := -x + 1, so x in [1-7, 1-3] = [-6, -2]
  Interval B = O.bounds(0);
  EXPECT_EQ(B.Lo, -6.0);
  EXPECT_EQ(B.Hi, -2.0);
}

TEST_F(KindTest, SelfNegateOnUnconstrainedVarIsNoop) {
  Octagon O(2);
  O.addConstraint(OctCons::upper(1, 3.0));
  LinExpr Neg;
  Neg.Terms = {{-1, 0u}};
  O.assign(0, Neg); // x := -x with x unconstrained
  EXPECT_TRUE(O.bounds(0).isTop());
  EXPECT_EQ(O.bounds(1).Hi, 3.0);
}

TEST_F(KindTest, ThresholdControlsDenseSwitch) {
  unsigned N = 6;
  auto buildAndClose = [&](double Threshold) {
    octConfig().SparsityThreshold = Threshold;
    Octagon O(N);
    // One small relational component in a large matrix.
    O.addConstraint(OctCons::diff(0, 1, 1.0));
    O.addConstraint(OctCons::diff(1, 0, 1.0));
    O.close();
    return O.kind();
  };
  // High sparsity (one tiny component): decomposed under the default
  // threshold, but forced Dense when the threshold is above the actual
  // sparsity level... sparsity here is ~0.9, so t=0.95 treats it dense.
  EXPECT_NE(buildAndClose(0.75), DbmKind::Dense);
  EXPECT_EQ(buildAndClose(0.95), DbmKind::Dense);
}

TEST_F(KindTest, StrIsReadable) {
  Octagon O(2);
  std::vector<std::string> Names = {"x", "y"};
  EXPECT_EQ(O.str(&Names), "top");
  O.addConstraint(OctCons::diff(0, 1, 2.0));
  std::string S = O.str(&Names);
  EXPECT_NE(S.find("x - y <= 2"), std::string::npos);
  Octagon B = Octagon::makeBottom(2);
  EXPECT_EQ(B.str(&Names), "bottom");
}

TEST_F(KindTest, EntryAgreesWithBoundOfEverywhere) {
  Rng R(77);
  Octagon O(5);
  for (int K = 0; K != 12; ++K) {
    unsigned I = static_cast<unsigned>(R.indexBelow(5));
    unsigned J = (I + 1 + static_cast<unsigned>(R.indexBelow(4))) % 5;
    O.addConstraint(OctCons::sum(I, J, R.intIn(0, 9)));
  }
  O.close();
  ASSERT_FALSE(O.isBottom());
  for (const OctCons &C : O.constraints()) {
    OctCons::Entry E = C.toEntry();
    EXPECT_EQ(O.boundOf(C), O.entry(E.Row, E.Col));
    EXPECT_LE(O.boundOf(C), E.Bound);
  }
}

// A Top element met with a chain of differences over all its variables
// ends with a whole partition before any closure; it must leave Top then,
// not only once it is closed.
TEST(KindAfterMeet, TopInputRelatingEveryVariableLeavesTop) {
  const unsigned N = 5;
  Octagon O(N);
  std::vector<OctCons> Chain;
  for (unsigned V = 0; V + 1 < N; ++V)
    Chain.push_back(OctCons::diff(V + 1, V, 1.0));
  O.addConstraints(Chain);
  EXPECT_TRUE(O.partition().isWhole());
  EXPECT_NE(O.kind(), DbmKind::Top);
  O.close();
  EXPECT_NE(O.kind(), DbmKind::Top);
}

} // namespace
