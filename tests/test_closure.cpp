//===- tests/test_closure.cpp - Differential closure tests ----------------===//
///
/// \file
/// Every optimized closure (dense Algorithm 3, sparse, vectorized
/// full-DBM FW, APRON Algorithm 2, incremental) is compared against the
/// executable specification closureFullReference on random DBMs across
/// sizes and densities, including empty (negative-cycle) cases, plus
/// algebraic property tests (idempotence, decrease-only, coherence).
/// The decomposed compositions (a component packed into a contiguous
/// block, closed there, scattered back, then strengthened on the whole
/// matrix) run on blocks whose variables interleave.
///
//===----------------------------------------------------------------------===//

#include "baseline/closure_apron.h"
#include "oct/blocked_layout.h"
#include "oct/closure_dense.h"
#include "oct/closure_incremental.h"
#include "oct/closure_reference.h"
#include "oct/closure_sparse.h"

#include "oct_test_util.h"

#include <gtest/gtest.h>

using namespace optoct;
using namespace optoct::test;

namespace {

struct ClosureCase {
  unsigned NumVars;
  double Density;
  std::uint64_t Seed;
};

void PrintTo(const ClosureCase &C, std::ostream *OS) {
  *OS << "n=" << C.NumVars << " d=" << C.Density << " seed=" << C.Seed;
}

class ClosureDifferential : public ::testing::TestWithParam<ClosureCase> {};

/// Two independent components that interleave: the even and the odd
/// variables. \p All lists every variable.
void evenOddComponents(unsigned NumVars, std::vector<unsigned> &Even,
                       std::vector<unsigned> &Odd, std::vector<unsigned> &All) {
  for (unsigned V = 0; V != NumVars; ++V) {
    (V % 2 ? Odd : Even).push_back(V);
    All.push_back(V);
  }
}

/// The emptiness check that ends a closure: false on a negative diagonal
/// entry, otherwise zeroes the diagonal.
bool normalizeDiagonal(HalfDbm &M) {
  for (unsigned I = 0; I != M.dim(); ++I)
    if (M.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != M.dim(); ++I)
    M.at(I, I) = 0.0;
  return true;
}

TEST_P(ClosureDifferential, DenseMatchesReference) {
  ClosureCase C = GetParam();
  Rng R(C.Seed);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);

  ClosureScratch Scratch;
  bool Ok = closureDense(M, Scratch);
  ASSERT_EQ(Ok, RefOk);
  if (Ok)
    expectDbmEq(M, Ref, "dense closure");
}

// The dense closure under every SIMD tier, the pinned-scalar one
// included, agrees exactly with the specification.
TEST_P(ClosureDifferential, DenseScalarMatchesReference) {
  ClosureCase C = GetParam();
  Rng R(C.Seed);
  HalfDbm Input(C.NumVars);
  randomizeDbm(Input, R, C.Density);
  HalfDbm Ref = Input;
  bool RefOk = referenceClose(Ref);

  forEachSimdTier([&](SimdTier Tier) {
    HalfDbm M = Input;
    ClosureScratch Scratch;
    bool Ok = closureDense(M, Scratch);
    ASSERT_EQ(Ok, RefOk) << simdTierName(Tier);
    if (Ok)
      expectDbmEq(M, Ref, simdTierName(Tier));
  });
}

TEST_P(ClosureDifferential, SparseMatchesReference) {
  ClosureCase C = GetParam();
  Rng R(C.Seed);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);

  ClosureScratch Scratch;
  std::size_t Nni = 0;
  bool Ok = closureSparse(M, Scratch, Nni);
  ASSERT_EQ(Ok, RefOk);
  if (Ok) {
    expectDbmEq(M, Ref, "sparse closure");
    EXPECT_EQ(Nni, M.countFinite());
  }
}

TEST_P(ClosureDifferential, VectorizedFullMatchesReference) {
  ClosureCase C = GetParam();
  Rng R(C.Seed);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);

  FullDbm Full(M);
  bool Ok = closureFullVectorized(Full);
  ASSERT_EQ(Ok, RefOk);
  if (Ok) {
    HalfDbm Out(C.NumVars);
    Full.toHalf(Out);
    expectDbmEq(Out, Ref, "vectorized full closure");
  }
}

TEST_P(ClosureDifferential, ApronMatchesReference) {
  ClosureCase C = GetParam();
  Rng R(C.Seed);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);

  bool Ok = baseline::closureApron(M);
  ASSERT_EQ(Ok, RefOk);
  if (Ok)
    expectDbmEq(M, Ref, "APRON closure");
}

TEST_P(ClosureDifferential, RestrictedSparseOnBlocksMatchesReference) {
  ClosureCase C = GetParam();
  if (C.NumVars < 4)
    return;
  Rng R(C.Seed);
  HalfDbm M(C.NumVars);
  std::vector<unsigned> Even, Odd, All;
  evenOddComponents(C.NumVars, Even, Odd, All);
  randomizeBlockDbm(M, R, {Even, Odd}, C.Density);
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);

  // The sparse leg of the decomposed closure: each component packed,
  // closed by the sparse kernel and scattered back, then strengthening
  // over all variables, must equal the monolithic strong closure on
  // block-structured matrices.
  forEachSimdTier([&](SimdTier Tier) {
    HalfDbm Work = M;
    ClosureScratch Scratch;
    for (const std::vector<unsigned> *Comp : {&Even, &Odd}) {
      HalfDbm Block(static_cast<unsigned>(Comp->size()));
      packComponent(Block.data(), Work, *Comp);
      shortestPathSparse(Block, Scratch);
      scatterComponent(Block.data(), Work, *Comp);
    }
    strengthenSparseRestricted(Work, All, Scratch);
    bool Ok = normalizeDiagonal(Work);
    ASSERT_EQ(Ok, RefOk) << simdTierName(Tier);
    if (Ok)
      expectDbmEq(Work, Ref, simdTierName(Tier));
  });
}

/// The decomposed leg of the incremental closure: a block-structured
/// matrix whose components interleave, each component closed, one entry
/// of the even component tightened. The component is packed, the pivot
/// passes run at the touched variables' block positions, the block is
/// scattered back and the whole matrix strengthened; the result must be
/// the strong closure. The block's finite count grows by exactly the
/// entries the passes took from +inf to finite.
void checkPackedIncremental(const ClosureCase &C) {
  if (C.NumVars < 4)
    return;
  Rng R(C.Seed + 5);
  HalfDbm M(C.NumVars);
  std::vector<unsigned> Even, Odd, All;
  evenOddComponents(C.NumVars, Even, Odd, All);
  randomizeBlockDbm(M, R, {Even, Odd}, C.Density);
  ClosureScratch Scratch;
  for (const std::vector<unsigned> *Comp : {&Even, &Odd}) {
    HalfDbm Block(static_cast<unsigned>(Comp->size()));
    packComponent(Block.data(), M, *Comp);
    if (!closureDense(Block, Scratch))
      return;
    scatterComponent(Block.data(), M, *Comp);
  }

  // Block positions of the two endpoints of the tightened arc.
  unsigned PosA = static_cast<unsigned>(R.indexBelow(Even.size()));
  unsigned PosB = static_cast<unsigned>(R.indexBelow(Even.size()));
  unsigned I = 2 * Even[PosA] + static_cast<unsigned>(R.indexBelow(2));
  unsigned J = 2 * Even[PosB] + static_cast<unsigned>(R.indexBelow(2));
  double NewBound = R.intIn(-3, 10);
  if (I == J || !(NewBound < M.get(I, J)))
    return;
  M.set(I, J, NewBound);
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);

  forEachSimdTier([&](SimdTier Tier) {
    HalfDbm Work = M;
    ClosureScratch TierScratch;
    HalfDbm Block(static_cast<unsigned>(Even.size()));
    packComponent(Block.data(), Work, Even);
    const HalfDbm Pre = Block;
    for (unsigned Pos : {PosA, PosB})
      incrementalPivotPass(Block, Pos, TierScratch);
    std::size_t Transitions = 0;
    for (std::size_t K = 0; K != Block.size(); ++K)
      Transitions += !isFinite(Pre.data()[K]) && isFinite(Block.data()[K]);
    EXPECT_EQ(Block.countFinite() - Pre.countFinite(), Transitions)
        << simdTierName(Tier);
    scatterComponent(Block.data(), Work, Even);
    strengthenSparseRestricted(Work, All, TierScratch);
    bool Ok = normalizeDiagonal(Work);
    ASSERT_EQ(Ok, RefOk) << simdTierName(Tier);
    if (Ok)
      expectDbmEq(Work, Ref, simdTierName(Tier));
  });
}

TEST_P(ClosureDifferential, ClosureIsIdempotent) {
  ClosureCase C = GetParam();
  Rng R(C.Seed + 1);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  ClosureScratch Scratch;
  if (!closureDense(M, Scratch))
    return;
  HalfDbm Again = M;
  ASSERT_TRUE(closureDense(Again, Scratch));
  expectDbmEq(Again, M, "idempotence");
}

TEST_P(ClosureDifferential, ClosureOnlyDecreasesEntries) {
  ClosureCase C = GetParam();
  Rng R(C.Seed + 2);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  HalfDbm Before = M;
  ClosureScratch Scratch;
  if (!closureDense(M, Scratch))
    return;
  for (unsigned I = 0; I != M.dim(); ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      EXPECT_LE(M.at(I, J), Before.at(I, J));
}

TEST_P(ClosureDifferential, IncrementalMatchesFullAfterConstraint) {
  ClosureCase C = GetParam();
  checkPackedIncremental(C);
  if (C.NumVars < 2)
    return;
  Rng R(C.Seed + 3);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  ClosureScratch Scratch;
  if (!closureDense(M, Scratch))
    return;

  // Tighten a few entries; the touched set must contain both endpoint
  // variables of every modified arc (the incremental-closure
  // precondition: modifications confined to the touched rows/columns).
  std::vector<unsigned> Touched;
  for (int T = 0; T != 3; ++T) {
    unsigned I = static_cast<unsigned>(R.indexBelow(M.dim()));
    unsigned J = static_cast<unsigned>(R.indexBelow(M.dim()));
    if (I == J)
      continue;
    double NewBound = R.intIn(-3, 10);
    if (NewBound < M.get(I, J)) {
      M.set(I, J, NewBound);
      Touched.push_back(I / 2);
      Touched.push_back(J / 2);
    }
  }

  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);
  bool Ok = incrementalClosureDense(M, Touched, Scratch);
  ASSERT_EQ(Ok, RefOk);
  if (Ok)
    expectDbmEq(M, Ref, "incremental closure");
}

TEST_P(ClosureDifferential, ApronIncrementalMatchesFull) {
  ClosureCase C = GetParam();
  if (C.NumVars < 2)
    return;
  Rng R(C.Seed + 4);
  HalfDbm M(C.NumVars);
  randomizeDbm(M, R, C.Density);
  if (!baseline::closureApron(M))
    return;
  unsigned X = static_cast<unsigned>(R.indexBelow(C.NumVars));
  unsigned I = 2 * X, J = (2 * X + 2) % M.dim();
  if (I != J) {
    double NewBound = R.intIn(-3, 8);
    if (NewBound < M.get(I, J))
      M.set(I, J, NewBound);
  }
  HalfDbm Ref = M;
  bool RefOk = referenceClose(Ref);
  // The modified arc joins X and X+1 (mod n): pivot both endpoints.
  bool Ok = baseline::incrementalClosureApron(M, {X, (X + 1) % C.NumVars});
  ASSERT_EQ(Ok, RefOk);
  if (Ok)
    expectDbmEq(M, Ref, "APRON incremental closure");
}

std::vector<ClosureCase> closureCases() {
  std::vector<ClosureCase> Cases;
  std::uint64_t Seed = 1000;
  for (unsigned N : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 32u})
    for (double Density : {0.02, 0.1, 0.3, 0.7, 1.0})
      for (int Rep = 0; Rep != 2; ++Rep)
        Cases.push_back({N, Density, Seed++});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClosureDifferential,
                         ::testing::ValuesIn(closureCases()));

} // namespace
