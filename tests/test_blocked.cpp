//===- tests/test_blocked.cpp - Blocked component layout ------------------===//
///
/// \file
/// Covers oct/blocked_layout.h:
///
///   * pack/scatter unit tests against a slot-by-slot reference mapping
///     (contiguous, fragmented, and fully interleaved components), and
///     scatter touching exactly the slots pack read;
///   * packComponentEntry against replicated Octagon::entry() semantics
///     on union-merged components whose cross pairs were never
///     materialized.
///
/// The operators that run on this layout are checked against the
/// APRON-style baseline on adversarial partitions (singletons, one
/// giant component, interleaved variable indices, stripes, top,
/// bottom) under every SIMD tier in tests/test_differential.cpp.
///
//===----------------------------------------------------------------------===//

#include "oct/blocked_layout.h"

#include "oct/partition.h"
#include "oct/value.h"
#include "support/random.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <vector>

using namespace optoct;

namespace {

//===----------------------------------------------------------------------===//
// Pack/scatter unit tests against the slot mapping.
//===----------------------------------------------------------------------===//

/// Fills every stored slot of \p M with a value unique to its packed
/// index, so any mis-mapped copy is visible.
void fillDistinct(HalfDbm &M) {
  for (std::size_t K = 0; K != M.size(); ++K)
    M.data()[K] = static_cast<double>(K) + 0.5;
}

/// The defining property of packComponent: block slot (2a+r, 2b+s) —
/// the component's variables renumbered 0..m-1 — holds the source slot
/// (2*Vars[a]+r, 2*Vars[b]+s).
void expectPackedAgainstSource(const std::vector<double> &Block,
                               const HalfDbm &M,
                               const std::vector<unsigned> &Vars) {
  for (std::size_t A = 0; A != Vars.size(); ++A)
    for (unsigned R = 0; R != 2; ++R)
      for (std::size_t B = 0; B <= A; ++B)
        for (unsigned S = 0; S != 2; ++S) {
          std::size_t Slot = HalfDbm::index(2 * A + R, 2 * B + S);
          ASSERT_EQ(Block[Slot], M.get(2 * Vars[A] + R, 2 * Vars[B] + S))
              << "vars (" << Vars[A] << "," << Vars[B] << ") at block ("
              << 2 * A + R << "," << 2 * B + S << ")";
        }
}

TEST(Blocked, BlockSizeMatchesStandaloneOctagon) {
  for (unsigned m : {0u, 1u, 2u, 5u, 32u})
    EXPECT_EQ(blockSize(m), HalfDbm::matSize(m));
}

TEST(Blocked, PackComponentShapes) {
  const unsigned N = 9;
  HalfDbm M(N);
  fillDistinct(M);
  // Contiguous run, fragmented runs, fully interleaved (every chunk a
  // single variable), singleton, and the whole universe.
  const std::vector<std::vector<unsigned>> Shapes = {
      {2, 3, 4}, {0, 1, 5, 6, 8}, {0, 2, 4, 6, 8}, {7}, {0, 1, 2, 3, 4, 5, 6, 7, 8}};
  for (const std::vector<unsigned> &Vars : Shapes) {
    std::vector<double> Block(blockSize(Vars.size()), -1.0);
    packComponent(Block.data(), M, Vars);
    expectPackedAgainstSource(Block, M, Vars);
  }
}

TEST(Blocked, PackEmptyComponentIsANoop) {
  HalfDbm M(3);
  fillDistinct(M);
  std::vector<unsigned> Vars;
  packComponent(nullptr, M, Vars); // blockSize(0) == 0: must not touch Dst.
}

TEST(Blocked, ScatterIsExactInverseAndTouchesOnlyComponentSlots) {
  const unsigned N = 8;
  const std::vector<unsigned> Vars = {1, 2, 5, 7}; // fragmented
  HalfDbm M(N);
  fillDistinct(M);
  const std::vector<double> Original(M.data(), M.data() + M.size());

  std::vector<double> Block(blockSize(Vars.size()));
  packComponent(Block.data(), M, Vars);
  for (double &V : Block)
    V += 1000.0;
  scatterComponent(Block.data(), M, Vars);

  // Every slot whose variable pair lies inside the component moved by
  // exactly +1000; every other slot is untouched.
  auto InComp = [&](unsigned Var) {
    return std::find(Vars.begin(), Vars.end(), Var) != Vars.end();
  };
  for (unsigned I = 0; I != M.dim(); ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J) {
      std::size_t K = HalfDbm::index(I, J);
      bool Inside = InComp(I / 2) && InComp(J / 2);
      ASSERT_EQ(M.data()[K], Original[K] + (Inside ? 1000.0 : 0.0))
          << "slot (" << I << "," << J << ")";
    }

  // And packing again reads back the scattered values bitwise.
  std::vector<double> Again(blockSize(Vars.size()));
  packComponent(Again.data(), M, Vars);
  EXPECT_EQ(Again, Block);
}

TEST(Blocked, PackEntryMatchesEntrySemanticsOnMergedComponents) {
  // Partition P: {0,3} and {1,4}; variables 2 and 5 uncovered. Only the
  // slots inside P's components are meaningful — everything else holds
  // garbage the pack must never leak.
  const unsigned N = 6;
  HalfDbm M(N);
  for (std::size_t K = 0; K != M.size(); ++K)
    M.data()[K] = -777.0; // garbage sentinel
  Partition P(N);
  P.relate(0, 3);
  P.relate(1, 4);
  Rng R(42);
  for (std::size_t C = 0; C != P.numComponents(); ++C) {
    const std::vector<unsigned> &Vars = P.component(C);
    for (unsigned U : Vars)
      for (unsigned V : Vars) {
        M.initPairTrivial(U, V);
        if (U != V) {
          unsigned Lo = std::min(U, V), Hi = std::max(U, V);
          for (unsigned A = 0; A != 2; ++A)
            for (unsigned B = 0; B != 2; ++B)
              M.at(2 * Hi + A, 2 * Lo + B) = R.intIn(-9, 9);
        }
      }
    for (unsigned U : Vars) {
      M.at(2 * U, 2 * U + 1) = R.intIn(-9, 9);
      M.at(2 * U + 1, 2 * U) = R.intIn(-9, 9);
    }
  }

  /// Octagon::entry() replicated for a bare (M, P) pair.
  auto EntryRef = [&](unsigned I, unsigned J) -> double {
    if (I == J)
      return 0.0;
    unsigned Va = I / 2, Vb = J / 2;
    if (Va == Vb)
      return P.contains(Va) ? M.get(I, J) : Infinity;
    int CA = P.componentOf(Va);
    if (CA >= 0 && CA == P.componentOf(Vb))
      return M.get(I, J);
    return Infinity;
  };

  // A union-merged component relating pairs M never materialized
  // ({0,3} x {1,4}), plus the uncovered variable 2.
  Partition Other(N);
  Other.relate(3, 1);
  Other.relate(0, 2);
  Partition Q = Partition::unionMerge(P, Other);
  ASSERT_EQ(Q.numComponents(), 1u);
  const std::vector<unsigned> &Vars = Q.component(0);
  ASSERT_EQ(Vars.size(), 5u); // {0,1,2,3,4}

  std::vector<double> Block(blockSize(Vars.size()), -1.0);
  packComponentEntry(Block.data(), M, P, /*FullyInit=*/false, Vars);
  for (std::size_t A = 0; A != Vars.size(); ++A)
    for (unsigned Rr = 0; Rr != 2; ++Rr)
      for (std::size_t B = 0; B <= A; ++B)
        for (unsigned S = 0; S != 2; ++S) {
          std::size_t Slot = HalfDbm::index(2 * A + Rr, 2 * B + S);
          ASSERT_EQ(Block[Slot], EntryRef(2 * Vars[A] + Rr, 2 * Vars[B] + S))
              << "vars (" << Vars[A] << "," << Vars[B] << ")";
        }

  // Single-source-block fast path: packing one of P's own components
  // through the entry pack must equal the pure-copy pack bitwise.
  for (std::size_t C = 0; C != P.numComponents(); ++C) {
    const std::vector<unsigned> &CV = P.component(C);
    std::vector<double> Pure(blockSize(CV.size())), Entry(blockSize(CV.size()));
    packComponent(Pure.data(), M, CV);
    packComponentEntry(Entry.data(), M, P, /*FullyInit=*/false, CV);
    EXPECT_EQ(Entry, Pure);
  }
}

} // namespace
