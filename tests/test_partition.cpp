//===- tests/test_partition.cpp - Independent component tests -------------===//

#include "oct/partition.h"

#include "oct/dbm.h"
#include "support/random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace optoct;

namespace {

Partition makePartition(unsigned N,
                        std::vector<std::vector<unsigned>> Blocks) {
  Partition P(N);
  for (const auto &B : Blocks) {
    P.addSingleton(B[0]);
    for (std::size_t I = 1; I < B.size(); ++I)
      P.relate(B[0], B[I]);
  }
  return P;
}

TEST(Partition, EmptyAndSingleton) {
  Partition P(4);
  EXPECT_TRUE(P.empty());
  EXPECT_EQ(P.coveredVars(), 0u);
  P.addSingleton(2);
  EXPECT_EQ(P.numComponents(), 1u);
  EXPECT_TRUE(P.contains(2));
  EXPECT_FALSE(P.contains(0));
  // addSingleton is idempotent.
  P.addSingleton(2);
  EXPECT_EQ(P.numComponents(), 1u);
}

TEST(Partition, RelateMergesBlocks) {
  Partition P(6);
  P.relate(0, 1);
  P.relate(2, 3);
  EXPECT_EQ(P.numComponents(), 2u);
  P.relate(1, 3);
  EXPECT_EQ(P.numComponents(), 1u);
  EXPECT_EQ(P.component(0), (std::vector<unsigned>{0, 1, 2, 3}));
}

TEST(Partition, RelateSelfIsUnary) {
  Partition P(3);
  P.relate(1, 1);
  EXPECT_EQ(P.numComponents(), 1u);
  EXPECT_EQ(P.component(0), std::vector<unsigned>{1});
}

TEST(Partition, MergeComponentsKeepsSorted) {
  Partition P = makePartition(8, {{4, 7}, {0, 2}, {5}});
  int Merged = P.mergeComponents({0, 1, 2});
  ASSERT_GE(Merged, 0);
  EXPECT_EQ(P.numComponents(), 1u);
  EXPECT_EQ(P.component(static_cast<std::size_t>(Merged)),
            (std::vector<unsigned>{0, 2, 4, 5, 7}));
}

TEST(Partition, RemoveVarDropsEmptyBlock) {
  Partition P = makePartition(4, {{1}, {2, 3}});
  P.removeVar(1);
  EXPECT_EQ(P.numComponents(), 1u);
  EXPECT_FALSE(P.contains(1));
  P.removeVar(2);
  EXPECT_EQ(P.component(0), std::vector<unsigned>{3});
}

TEST(Partition, UnionMergeOverlapping) {
  Partition A = makePartition(6, {{0, 1}, {3, 4}});
  Partition B = makePartition(6, {{1, 2}, {5}});
  Partition U = Partition::unionMerge(A, B);
  EXPECT_EQ(U.numComponents(), 3u);
  EXPECT_EQ(U.componentOf(0), U.componentOf(2));
  EXPECT_NE(U.componentOf(0), U.componentOf(3));
  EXPECT_TRUE(U.contains(5));
}

TEST(Partition, RefineIntersects) {
  Partition A = makePartition(6, {{0, 1, 2}, {3, 4}});
  Partition B = makePartition(6, {{0, 1}, {2, 3}, {4}});
  Partition R = Partition::refine(A, B);
  // {0,1} from A∩B; 2 separates from {0,1} (different B block); 3 and 4
  // split (different B blocks). 5 uncovered in both.
  EXPECT_EQ(R.componentOf(0), R.componentOf(1));
  EXPECT_NE(R.componentOf(0), R.componentOf(2));
  EXPECT_NE(R.componentOf(3), R.componentOf(4));
  EXPECT_FALSE(R.contains(5));
}

TEST(Partition, RefineDropsOneSidedVars) {
  Partition A = makePartition(4, {{0, 1, 2}});
  Partition B = makePartition(4, {{1, 2, 3}});
  Partition R = Partition::refine(A, B);
  EXPECT_FALSE(R.contains(0));
  EXPECT_FALSE(R.contains(3));
  EXPECT_EQ(R.componentOf(1), R.componentOf(2));
}

TEST(Partition, CoarsensAndEquality) {
  Partition Coarse = makePartition(6, {{0, 1, 2, 3}});
  Partition Fine = makePartition(6, {{0, 1}, {2, 3}});
  EXPECT_TRUE(Coarse.coarsens(Fine));
  EXPECT_FALSE(Fine.coarsens(Coarse));
  EXPECT_TRUE(Coarse.coarsens(Coarse));
  EXPECT_FALSE(Coarse == Fine);
  EXPECT_TRUE(Fine == makePartition(6, {{2, 3}, {0, 1}}));
}

TEST(Partition, WholeAndResize) {
  Partition W = Partition::whole(5);
  EXPECT_TRUE(W.isWhole());
  EXPECT_EQ(W.coveredVars(), 5u);
  Partition P = makePartition(4, {{0, 1}});
  P.resizeVars(6);
  EXPECT_EQ(P.numVars(), 6u);
  EXPECT_FALSE(P.contains(5));
}

TEST(Partition, ExtractFromDbm) {
  HalfDbm M(5);
  M.initTop();
  // u=0 ~ x=2 (binary), x=2 ~ z=4 (binary), v=1 unary, y=3 nothing —
  // the Fig. 3 example.
  M.set(2 * 0, 2 * 2, 2.0);      // x - u <= 2
  M.set(2 * 2 + 1, 2 * 4, 1.0);  // z + x <= 1
  M.set(2 * 1 + 1, 2 * 1, 4.0);  // 2v <= 4
  Partition P = extractPartition(M);
  EXPECT_EQ(P.numComponents(), 2u);
  EXPECT_EQ(P.componentOf(0), P.componentOf(2));
  EXPECT_EQ(P.componentOf(2), P.componentOf(4));
  EXPECT_TRUE(P.contains(1));
  EXPECT_NE(P.componentOf(1), P.componentOf(0));
  EXPECT_FALSE(P.contains(3));
}

TEST(Partition, ExtractRestrictedToSubset) {
  HalfDbm M(4);
  M.initTop();
  M.set(2 * 0, 2 * 1, 3.0); // relate 0,1
  M.set(2 * 2, 2 * 3, 3.0); // relate 2,3
  Partition P = extractPartition(M, {0, 1});
  EXPECT_EQ(P.numComponents(), 1u);
  EXPECT_FALSE(P.contains(2));
  EXPECT_FALSE(P.contains(3));
}

/// The pairwise scan, the reference for the one-scan pass's blocks:
/// addSingleton for a finite unary bound, then relate() for every
/// related pair.
Partition referenceExtract(const HalfDbm &M,
                           const std::vector<unsigned> &Vars) {
  Partition Result(M.numVars());
  for (std::size_t A = 0; A != Vars.size(); ++A) {
    unsigned V = Vars[A];
    if (isFinite(M.at(2 * V, 2 * V + 1)) || isFinite(M.at(2 * V + 1, 2 * V)))
      Result.addSingleton(V);
    for (std::size_t B = 0; B != A; ++B) {
      unsigned U = Vars[B];
      unsigned Lo = U < V ? U : V, Hi = U < V ? V : U;
      bool Related = false;
      for (unsigned I = 0; I != 2 && !Related; ++I)
        for (unsigned J = 0; J != 2 && !Related; ++J)
          Related = isFinite(M.at(2 * Hi + I, 2 * Lo + J));
      if (Related)
        Result.relate(U, V);
    }
  }
  return Result;
}

/// Finite entries inside the blocks of \p P, diagonals included.
std::size_t countInsideBlocks(const HalfDbm &M, const Partition &P) {
  std::size_t Finite = 0;
  for (std::size_t C = 0; C != P.numComponents(); ++C) {
    const std::vector<unsigned> &Vars = P.component(C);
    for (std::size_t A = 0; A != Vars.size(); ++A)
      for (std::size_t B = 0; B <= A; ++B)
        for (unsigned R = 0; R != 2; ++R)
          for (unsigned S = 0; S != 2; ++S)
            Finite += isFinite(M.at(2 * Vars[A] + R, 2 * Vars[B] + S));
  }
  return Finite;
}

/// A random half-DBM over \p N variables: each variable is unrelated,
/// unary-only, relational-only or both, and a pair of relational
/// variables is related with probability \p Density through one to
/// four finite entries.
HalfDbm randomHalfDbm(unsigned N, double Density, Rng &R) {
  HalfDbm M(N);
  M.initTop();
  std::vector<int> Role(N);
  for (unsigned V = 0; V != N; ++V) {
    Role[V] = R.intIn(0, 3); // bit 0: unary, bit 1: relational
    if (Role[V] & 1) {
      if (R.chance(0.7))
        M.at(2 * V + 1, 2 * V) = R.intIn(-5, 20);
      else
        M.at(2 * V, 2 * V + 1) = R.intIn(-5, 20);
    }
  }
  for (unsigned V = 0; V != N; ++V)
    for (unsigned U = 0; U != V; ++U) {
      if (!(Role[U] & 2) || !(Role[V] & 2) || !R.chance(Density))
        continue;
      int Entries = R.intIn(1, 4);
      for (int K = 0; K != Entries; ++K)
        M.at(2 * V + static_cast<unsigned>(R.intIn(0, 1)),
             2 * U + static_cast<unsigned>(R.intIn(0, 1))) = R.intIn(-5, 20);
    }
  return M;
}

TEST(Partition, OneScanMatchesPairwiseScanBlockForBlock) {
  Rng R(2015);
  const double Densities[] = {0.0, 0.02, 0.1, 0.3, 0.6, 1.0};
  unsigned Cases = 0;
  for (unsigned N = 0; N <= 40; ++N)
    for (double Density : Densities)
      for (int Rep = 0; Rep != 3; ++Rep) {
        HalfDbm M = randomHalfDbm(N, Density, R);
        // All variables, then a random sorted subset.
        std::vector<unsigned> All(N), Subset;
        for (unsigned V = 0; V != N; ++V) {
          All[V] = V;
          if (R.chance(0.6))
            Subset.push_back(V);
        }
        for (const std::vector<unsigned> *Vars : {&All, &Subset}) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << N << " density=" << Density
                       << " rep=" << Rep << " |vars|=" << Vars->size());
          Partition Ref = referenceExtract(M, *Vars);
          Partition Got(N);
          std::size_t Finite = Got.appendExactComponents(M, *Vars);
          // Block order is not part of any output; the blocks are.
          ASSERT_TRUE(Got == Ref);
          for (unsigned V = 0; V != N; ++V) {
            ASSERT_EQ(Got.contains(V), Ref.contains(V)) << "var " << V;
            if (Got.contains(V)) {
              const std::vector<unsigned> &B = Got.component(
                  static_cast<std::size_t>(Got.componentOf(V)));
              ASSERT_TRUE(std::binary_search(B.begin(), B.end(), V))
                  << "var " << V;
            }
          }
          EXPECT_EQ(Finite, countInsideBlocks(M, Ref));
          ++Cases;
        }
      }
  EXPECT_EQ(Cases, 41u * 6 * 3 * 2);
}

TEST(Partition, AppendedBlocksFollowExistingOnes) {
  // Two disjoint variable sets appended one after the other, as the
  // decomposed closure rebuilds its partition component by component:
  // blocks of the second pass come after all blocks of the first.
  HalfDbm M(6);
  M.initTop();
  M.set(2 * 4, 2 * 5, 1.0);     // relate 4, 5
  M.set(2 * 1 + 1, 2 * 1, 2.0); // 2 v1 <= 2
  M.set(2 * 0, 2 * 2, 3.0);     // relate 0, 2
  Partition P(6);
  // Finite entries: two diagonal zeros per covered variable plus the
  // bounds inside the blocks; uncovered v3's diagonal is not counted.
  EXPECT_EQ(P.appendExactComponents(M, {3, 4, 5}), 2u * 2 + 1);
  EXPECT_EQ(P.appendExactComponents(M, {0, 1, 2}), 2u * 3 + 1 + 1);
  ASSERT_EQ(P.numComponents(), 3u);
  EXPECT_EQ(P.component(0), (std::vector<unsigned>{4, 5}));
  // Within one pass, blocks come in the order of their smallest member.
  EXPECT_EQ(P.component(1), (std::vector<unsigned>{0, 2}));
  EXPECT_EQ(P.component(2), std::vector<unsigned>{1});
  EXPECT_FALSE(P.contains(3));
}

TEST(Partition, RefinementIsCoarsenedByInputs) {
  Rng R(99);
  for (int It = 0; It != 50; ++It) {
    unsigned N = 8;
    auto randomPartition = [&](std::uint64_t) {
      Partition P(N);
      for (unsigned V = 0; V != N; ++V)
        if (R.chance(0.7)) {
          P.addSingleton(V);
          if (V > 0 && R.chance(0.5)) {
            unsigned U = static_cast<unsigned>(R.indexBelow(V));
            if (P.contains(U))
              P.relate(U, V);
          }
        }
      return P;
    };
    Partition A = randomPartition(It);
    Partition B = randomPartition(It + 1);
    Partition Ref = Partition::refine(A, B);
    EXPECT_TRUE(A.coarsens(Ref));
    EXPECT_TRUE(B.coarsens(Ref));
    Partition U = Partition::unionMerge(A, B);
    EXPECT_TRUE(U.coarsens(A));
    EXPECT_TRUE(U.coarsens(B));
  }
}

} // namespace
