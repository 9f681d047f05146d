//===- tests/test_differential.cpp - OptOctagon vs baseline fuzzing -------===//
///
/// \file
/// The paper's central precision claim (Section 3.3): online
/// decomposition never changes analysis results, it only reduces work.
/// The specification of every operator is Miné's pointwise DBM
/// semantics, which the dense APRON-style baseline
/// (baseline::ApronOctagon) implements directly. This suite drives both
/// libraries through identical inputs and requires exact equality:
///
///   * random operation sequences — constraints, assignments, havoc and
///     all seven lattice operators (meet, join, widening with and
///     without thresholds, narrowing, inclusion, equality) — across
///     sparse on/off and several sparsity thresholds;
///   * every lattice operator on start-state pairs drawn from ten
///     generator shapes, from dense and block-decomposed to the
///     adversarial partitions of the blocked layout (singletons, one
///     giant component, interleaved indices, stripes), top and bottom.
///
/// Everything runs under every SIMD tier the machine supports. Each
/// check compares the unclosed entries, then emptiness and the strongly
/// closed entries, and the inclusion/equality verdicts. nni must equal
/// a recount of the finite entries on every element compared, and the
/// random sequences check the same after every step of both chains and
/// after every decomposed closure they reach. They also check that
/// every closed element they reach holds at most one block with a
/// finite unary bound, and that the maintained partition always
/// coarsens the exact one.
///
//===----------------------------------------------------------------------===//

#include "oct_test_util.h"

#include "baseline/apron_octagon.h"
#include "oct/config.h"
#include "oct/octagon.h"
#include "support/random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace optoct;
using baseline::ApronOctagon;
using optoct::test::forEachSimdTier;
using optoct::test::supportedSimdTiers;

namespace {

/// One evolving (optimized, reference) pair.
struct DomainPair {
  Octagon Opt;
  ApronOctagon Ref;

  explicit DomainPair(unsigned N) : Opt(N), Ref(N) {}
  /// Both libraries' element for the same constraint list (unclosed).
  DomainPair(unsigned N, const std::vector<OctCons> &Cs) : Opt(N), Ref(N) {
    Opt.addConstraints(Cs);
    Ref.addConstraints(Cs);
  }
};

/// Emptiness already established, without closing (a closed element
/// answers isBottom() from its cache).
template <typename DomT> bool knownEmpty(DomT &O) {
  return O.isClosed() && O.isBottom();
}

/// nni must equal a from-scratch recount of the finite entries, on
/// every kind of element, closed or not.
void expectNniExact(const Octagon &O, const char *What) {
  std::size_t Finite = 0;
  for (unsigned I = 0, D = 2 * O.numVars(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      Finite += isFinite(O.entry(I, J));
  EXPECT_EQ(O.nni(), Finite)
      << What << ": nni " << O.nni() << ", finite entries " << Finite;
}

/// A closed element holds at most one block with a finite unary bound:
/// strengthenAndMerge merges all of them, and the lattice operators and
/// transfer functions keep it so. The closed form of an assignment
/// relies on it.
void expectOneBoundedBlock(Octagon &O, const char *What) {
  if (!O.isClosed() || O.isBottom())
    return;
  const Partition &P = O.partition();
  unsigned Bounded = 0;
  for (std::size_t C = 0, E = P.numComponents(); C != E; ++C)
    for (unsigned V : P.component(C))
      if (isFinite(O.entry(2 * V, 2 * V + 1)) ||
          isFinite(O.entry(2 * V + 1, 2 * V))) {
        ++Bounded;
        break;
      }
  EXPECT_LE(Bounded, 1u) << What << ": blocks with a finite unary bound";
}

/// What every step of a random sequence leaves: an exact nni on every
/// non-empty element, and at most one bounded block once closed.
void expectStepInvariants(Octagon &O, const char *What) {
  if (!knownEmpty(O))
    expectNniExact(O, What);
  expectOneBoundedBlock(O, What);
}

/// Closes a copy of a pending Decomposed element (the decomposed
/// closure's exact partition and nni recomputation) and checks its nni.
void expectDecomposedCloseCounted(const Octagon &O) {
  if (O.kind() != DbmKind::Decomposed || O.isClosed())
    return;
  Octagon C = O;
  C.close();
  if (!C.isBottom())
    expectNniExact(C, "decomposed close");
}

void expectSameEntries(const DomainPair &P, const char *What,
                       const char *Form) {
  unsigned D = 2 * P.Opt.numVars();
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      ASSERT_EQ(P.Opt.entry(I, J), P.Ref.entry(I, J))
          << What << ": " << Form << " entry (" << I << "," << J << ")";
  expectNniExact(P.Opt, What);
}

/// Compares the representations as they stand — before any closure —
/// unless one side already knows it is empty (its entries are then
/// meaningless), and then the strongly closed forms, each with an exact
/// nni. Closes \p P.
void expectEquivalent(DomainPair &P, const char *What) {
  if (!knownEmpty(P.Opt) && !knownEmpty(P.Ref))
    expectSameEntries(P, What, "unclosed");
  P.Opt.close();
  P.Ref.close();
  ASSERT_EQ(P.Opt.isBottom(), P.Ref.isBottom()) << What;
  if (!P.Opt.isBottom())
    expectSameEntries(P, What, "closed");
}

/// The maintained partition must coarsen the exact partition of the
/// materialized matrix.
void expectPartitionSound(Octagon &O) {
  if (!octConfig().EnableDecomposition)
    return;
  O.close();
  if (O.isBottom())
    return;
  unsigned N = O.numVars();
  HalfDbm Mat(N);
  for (unsigned I = 0; I != 2 * N; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      Mat.at(I, J) = O.entry(I, J);
  Partition Exact = extractPartition(Mat);
  Partition Maintained = O.partition();
  if (Maintained.empty() && O.kind() == DbmKind::Top) {
    EXPECT_TRUE(Exact.empty());
    return;
  }
  if (O.kind() == DbmKind::Dense)
    return; // whole partition trivially coarsens everything
  EXPECT_TRUE(Maintained.coarsens(Exact));
  // Every covered variable of the exact partition must be covered.
  for (unsigned V = 0; V != N; ++V)
    if (Exact.contains(V)) {
      EXPECT_TRUE(Maintained.contains(V)) << "variable " << V;
    }
}

//===----------------------------------------------------------------------===//
// The lattice operators, applied identically to either library.
//===----------------------------------------------------------------------===//

enum class Op { Meet, Join, Widen, WidenThr, Narrow, Leq, Equals };
constexpr Op AllOps[] = {Op::Meet,   Op::Join, Op::Widen, Op::WidenThr,
                         Op::Narrow, Op::Leq,  Op::Equals};

const char *opName(Op O) {
  switch (O) {
  case Op::Meet:
    return "meet";
  case Op::Join:
    return "join";
  case Op::Widen:
    return "widen";
  case Op::WidenThr:
    return "widenWithThresholds";
  case Op::Narrow:
    return "narrow";
  case Op::Leq:
    return "leq";
  case Op::Equals:
    return "equals";
  }
  return "?";
}

/// Applies \p O to (X, Y), which the operator may close in place. The
/// predicates store their verdict in \p Verdict and yield X itself.
template <typename DomT> DomT applyOp(Op O, DomT &X, DomT &Y, bool &Verdict) {
  static const std::vector<double> Thresholds = {-2.0, 0.0, 1.0,
                                                 5.0,  10.0, 20.0};
  switch (O) {
  case Op::Meet:
    return DomT::meet(X, Y);
  case Op::Join:
    return DomT::join(X, Y);
  case Op::Widen:
    return DomT::widen(X, Y);
  case Op::WidenThr:
    return DomT::widenWithThresholds(X, Y, Thresholds);
  case Op::Narrow:
    return DomT::narrow(X, Y);
  case Op::Leq:
    Verdict = X.leq(Y);
    return X;
  case Op::Equals:
    Verdict = X.equals(Y);
    return X;
  }
  return X;
}

/// Runs \p O on copies of (A, B) in both libraries and requires equal
/// verdicts and equivalent results — including the arguments, which
/// the operator may have closed in place.
void checkOp(Op O, const DomainPair &A, const DomainPair &B) {
  const char *What = opName(O);
  DomainPair X = A, Y = B, R(A.Opt.numVars());
  bool OptVerdict = false, RefVerdict = false;
  R.Opt = applyOp(O, X.Opt, Y.Opt, OptVerdict);
  R.Ref = applyOp(O, X.Ref, Y.Ref, RefVerdict);
  EXPECT_EQ(OptVerdict, RefVerdict) << What;
  expectEquivalent(R, What);
  expectEquivalent(X, What);
  expectEquivalent(Y, What);
}

void checkAllOps(const DomainPair &A, const DomainPair &B) {
  for (Op O : AllOps)
    checkOp(O, A, B);
}

//===----------------------------------------------------------------------===//
// Random operation sequences.
//===----------------------------------------------------------------------===//

OctCons randomCons(Rng &R, unsigned N) {
  double Bound = R.intIn(-4, 16);
  unsigned I = static_cast<unsigned>(R.indexBelow(N));
  switch (R.intIn(0, 4)) {
  case 0:
    return OctCons::upper(I, Bound);
  case 1:
    return OctCons::lower(I, Bound);
  default: {
    unsigned J = static_cast<unsigned>(R.indexBelow(N));
    if (J == I)
      J = (J + 1) % N;
    switch (R.intIn(0, 2)) {
    case 0:
      return OctCons::diff(I, J, Bound);
    case 1:
      return OctCons::sum(I, J, Bound);
    default:
      return OctCons::negSum(I, J, Bound);
    }
  }
  }
}

LinExpr randomExpr(Rng &R, unsigned N) {
  LinExpr E;
  switch (R.intIn(0, 4)) {
  case 0: // constant
    E.Const = R.intIn(-8, 8);
    break;
  case 1: // +- x + c
  case 2: {
    E.Terms = {{R.chance(0.5) ? 1 : -1,
                static_cast<unsigned>(R.indexBelow(N))}};
    E.Const = R.intIn(-4, 4);
    break;
  }
  default: { // general linear
    int Count = R.intIn(1, 3);
    for (int T = 0; T != Count; ++T)
      E.addTerm(R.intIn(-2, 2), static_cast<unsigned>(R.indexBelow(N)));
    E.Const = R.intIn(-4, 4);
    break;
  }
  }
  return E;
}

/// Applies the same random operation to both domains.
void step(DomainPair &P, DomainPair &Other, Rng &R) {
  unsigned N = P.Opt.numVars();
  int Choice = R.intIn(0, 13);
  switch (Choice) {
  case 0:
  case 1:
  case 2: { // guard: meet with 1-3 constraints
    std::vector<OctCons> Cs;
    for (int K = 0, E = R.intIn(1, 3); K != E; ++K)
      Cs.push_back(randomCons(R, N));
    P.Opt.addConstraints(Cs);
    P.Ref.addConstraints(Cs);
    break;
  }
  case 3:
  case 4:
  case 5: { // assignment
    unsigned X = static_cast<unsigned>(R.indexBelow(N));
    LinExpr E = randomExpr(R, N);
    P.Opt.assign(X, E);
    P.Ref.assign(X, E);
    break;
  }
  case 6: { // havoc
    unsigned X = static_cast<unsigned>(R.indexBelow(N));
    P.Opt.havoc(X);
    P.Ref.havoc(X);
    break;
  }
  default: { // a lattice operator against the other chain
    Op O = AllOps[Choice - 7];
    bool OptVerdict = false, RefVerdict = false;
    P.Opt = applyOp(O, P.Opt, Other.Opt, OptVerdict);
    P.Ref = applyOp(O, P.Ref, Other.Ref, RefVerdict);
    EXPECT_EQ(OptVerdict, RefVerdict) << opName(O);
    break;
  }
  }
}

struct FuzzCase {
  unsigned NumVars;
  unsigned Steps;
  std::uint64_t Seed;
  bool VectorTiers; ///< run under the vector tiers, else the scalar tier
  bool Sparse;
  double Threshold;
};

void PrintTo(const FuzzCase &C, std::ostream *OS) {
  *OS << "n=" << C.NumVars << " steps=" << C.Steps << " seed=" << C.Seed
      << " vec=" << C.VectorTiers << " sparse=" << C.Sparse
      << " t=" << C.Threshold;
}

/// The supported vector tiers, or just the scalar one. A machine
/// without a vector ISA runs both classes of cases on the scalar tier.
std::vector<SimdTier> caseTiers(bool Vector) {
  std::vector<SimdTier> Tiers;
  for (SimdTier T : supportedSimdTiers())
    if ((T != SimdTier::Scalar) == Vector)
      Tiers.push_back(T);
  if (Tiers.empty())
    Tiers.push_back(SimdTier::Scalar);
  return Tiers;
}

class OctagonDifferential : public ::testing::TestWithParam<FuzzCase> {
protected:
  void SetUp() override {
    Saved = octConfig();
    SavedTier = activeSimdTier();
    const FuzzCase &C = GetParam();
    octConfig().EnableSparse = C.Sparse;
    octConfig().SparsityThreshold = C.Threshold;
  }
  void TearDown() override {
    octConfig() = Saved;
    simdForceTier(SavedTier);
  }
  OctConfig Saved;
  SimdTier SavedTier;
};

TEST_P(OctagonDifferential, RandomSequencesMatchBaseline) {
  const FuzzCase &C = GetParam();
  for (SimdTier Tier : caseTiers(C.VectorTiers)) {
    simdForceTier(Tier);
    SCOPED_TRACE(simdTierName(Tier));
    Rng R(C.Seed);
    DomainPair P1(C.NumVars), P2(C.NumVars);
    for (unsigned S = 0; S != C.Steps; ++S) {
      step(P1, P2, R);
      expectStepInvariants(P1.Opt, "chain 1");
      step(P2, P1, R);
      expectStepInvariants(P2.Opt, "chain 2");
      expectDecomposedCloseCounted(P1.Opt);
      expectDecomposedCloseCounted(P2.Opt);
      if (S % 4 == 3) {
        // Comparing closes both; evolution continues from closed state,
        // which is legal for every operator but keeps widening chains
        // short — the dedicated analyzer tests cover long widening runs.
        DomainPair Check1 = P1, Check2 = P2;
        expectEquivalent(Check1, "chain 1");
        expectEquivalent(Check2, "chain 2");
        expectOneBoundedBlock(Check1.Opt, "closed chain 1");
        expectOneBoundedBlock(Check2.Opt, "closed chain 2");
        expectPartitionSound(Check1.Opt);
        expectPartitionSound(Check2.Opt);
      }
      // Restart chains that hit bottom so the fuzz keeps exploring.
      if (Octagon(P1.Opt).isBottom())
        P1 = DomainPair(C.NumVars);
      if (Octagon(P2.Opt).isBottom())
        P2 = DomainPair(C.NumVars);
    }
  }
}

std::vector<FuzzCase> fuzzCases() {
  std::vector<FuzzCase> Cases;
  std::uint64_t Seed = 42;
  for (unsigned N : {2u, 4u, 7u, 12u, 20u})
    for (bool Vec : {true, false})
      for (bool Sparse : {true, false})
        for (double T : {0.75, 0.25})
          Cases.push_back({N, 60, Seed++, Vec, Sparse, T});
  // A couple of long runs at the default configuration.
  Cases.push_back({10, 400, 777, true, true, 0.75});
  Cases.push_back({16, 300, 778, true, true, 0.75});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Fuzz, OctagonDifferential,
                         ::testing::ValuesIn(fuzzCases()));

//===----------------------------------------------------------------------===//
// Every operator on shaped start states.
//===----------------------------------------------------------------------===//

/// Generator shapes for start states: the first four vary density and
/// decomposition, the next four stress the blocked component layout
/// (oct/blocked_layout.h) rather than precision.
enum class Shape {
  Dense,       ///< constraints over most variable pairs
  Blocks,      ///< constraints only within disjoint variable blocks
  Sparse,      ///< a handful of constraints
  UnaryHeavy,  ///< mostly interval bounds
  Singletons,  ///< every covered variable its own component
  Giant,       ///< one chain component over all variables
  Interleaved, ///< two components with alternating variable indices
  Stripes,     ///< several 2-3 variable components, gaps between them
  Top,         ///< no constraints
  Bottom,      ///< contradictory constraints
};
const std::vector<Shape> AllShapes = {
    Shape::Dense,      Shape::Blocks, Shape::Sparse,      Shape::UnaryHeavy,
    Shape::Singletons, Shape::Giant,  Shape::Interleaved, Shape::Stripes,
    Shape::Top,        Shape::Bottom};

std::vector<OctCons> shapeConstraints(unsigned N, Shape S, Rng &R) {
  std::vector<OctCons> Cs;
  auto addBinary = [&](unsigned I, unsigned J) {
    switch (R.intIn(0, 2)) {
    case 0:
      Cs.push_back(OctCons::diff(I, J, R.intIn(-4, 24)));
      break;
    case 1:
      Cs.push_back(OctCons::sum(I, J, R.intIn(-4, 24)));
      break;
    default:
      Cs.push_back(OctCons::negSum(I, J, R.intIn(-4, 24)));
      break;
    }
  };
  auto addUnary = [&](unsigned I) {
    if (R.chance(0.5))
      Cs.push_back(OctCons::upper(I, R.intIn(-2, 24)));
    else
      Cs.push_back(OctCons::lower(I, R.intIn(-2, 24)));
  };
  switch (S) {
  case Shape::Dense:
    for (unsigned I = 0; I != N; ++I)
      for (unsigned J = 0; J != I; ++J)
        if (R.chance(0.8))
          addBinary(I, J);
    for (unsigned I = 0; I != N; ++I)
      if (R.chance(0.5))
        addUnary(I);
    break;
  case Shape::Blocks: {
    // Disjoint blocks of 2-3 variables; some consecutive, some not, so
    // the component-run walker sees both full and fragmented runs.
    unsigned V = 0;
    while (V + 1 < N) {
      unsigned Size = std::min<unsigned>(R.chance(0.5) ? 2 : 3, N - V);
      for (unsigned A = 1; A != Size; ++A)
        for (unsigned B = 0; B != A; ++B)
          if (R.chance(0.8))
            addBinary(V + A, V + B);
      if (R.chance(0.4))
        addUnary(V);
      V += Size + (R.chance(0.5) ? 1 : 0); // sometimes skip a variable
    }
    break;
  }
  case Shape::Sparse:
    for (unsigned K = 0, E = std::max(1u, N / 4); K != E; ++K) {
      unsigned I = static_cast<unsigned>(R.indexBelow(N));
      unsigned J = static_cast<unsigned>(R.indexBelow(N));
      if (I == J)
        addUnary(I);
      else
        addBinary(std::max(I, J), std::min(I, J));
    }
    break;
  case Shape::UnaryHeavy:
    for (unsigned I = 0; I != N; ++I)
      if (R.chance(0.8)) {
        Cs.push_back(OctCons::upper(I, R.intIn(0, 24)));
        Cs.push_back(OctCons::lower(I, R.intIn(0, 24)));
      }
    if (N >= 2)
      addBinary(1, 0);
    break;
  case Shape::Singletons:
    for (unsigned I = 0; I != N; ++I)
      if (R.chance(0.8))
        Cs.push_back(OctCons::upper(I, R.intIn(-2, 24)));
    break;
  case Shape::Giant:
    for (unsigned I = 0; I + 1 < N; ++I)
      Cs.push_back(OctCons::diff(I + 1, I, R.intIn(-2, 24)));
    break;
  case Shape::Interleaved:
    // Evens chained together, odds chained together: every pack chunk
    // is a single variable.
    for (unsigned I = 0; I + 2 < N; ++I)
      if (R.chance(0.9))
        Cs.push_back(OctCons::sum(I + 2, I, R.intIn(-2, 24)));
    break;
  case Shape::Stripes: {
    unsigned V = 0;
    while (V + 1 < N) {
      unsigned Size = std::min<unsigned>(R.chance(0.5) ? 2 : 3, N - V);
      for (unsigned A = 1; A != Size; ++A)
        Cs.push_back(OctCons::diff(V + A, V + A - 1, R.intIn(-2, 24)));
      V += Size + 1; // always leave an uncovered gap variable
    }
    break;
  }
  case Shape::Top:
    break;
  case Shape::Bottom:
    // v0 <= -1 and v0 >= 0: unsatisfiable.
    Cs.push_back(OctCons::upper(0, -1));
    Cs.push_back(OctCons::lower(0, 0));
    break;
  }
  return Cs;
}

/// Every operator on every ordered pair of \p Shapes, at each size in
/// \p Sizes, under every SIMD tier.
void checkShapePairs(std::initializer_list<unsigned> Sizes,
                     const std::vector<Shape> &Shapes) {
  forEachSimdTier([&](SimdTier Tier) {
    SCOPED_TRACE(simdTierName(Tier));
    for (unsigned N : Sizes)
      for (Shape SA : Shapes)
        for (Shape SB : Shapes) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << N << " shapes " << static_cast<int>(SA)
                       << "," << static_cast<int>(SB));
          Rng R(N * 1000 + static_cast<unsigned>(SA) * 10 +
                static_cast<unsigned>(SB));
          DomainPair A(N, shapeConstraints(N, SA, R));
          DomainPair B(N, shapeConstraints(N, SB, R));
          checkAllOps(A, B);
        }
  });
}

TEST(VectorOpsDifferentialTest, RandomPairsAllShapes) {
  checkShapePairs({3u, 6u, 9u, 17u}, AllShapes);
}

TEST(BlockedDifferentialTest, EveryTierMatchesPointwiseScalar) {
  // The baseline is the pointwise scalar reference: on the partitions
  // that stress the blocked layout, every tier's pack -> kernel ->
  // scatter pipeline must reproduce it bitwise, nni included.
  checkShapePairs({5u, 13u}, {Shape::Singletons, Shape::Giant,
                              Shape::Interleaved, Shape::Stripes, Shape::Top,
                              Shape::Bottom});
}

TEST(VectorOpsDifferentialTest, CloselyRelatedPairs) {
  // Pairs with A derived from B exercise the leq/equals fast paths on
  // their true branches (identical and dominating inputs), not just
  // random early-exit misses.
  forEachSimdTier([](SimdTier Tier) {
    SCOPED_TRACE(simdTierName(Tier));
    for (unsigned Seed = 0; Seed != 5; ++Seed) {
      Rng R(7000 + Seed);
      unsigned N = 8;
      std::vector<OctCons> Cs = shapeConstraints(N, Shape::Dense, R);
      DomainPair A(N, Cs);
      checkAllOps(A, A); // identical
      // Tighten one bound: A now strictly includes C.
      Cs.push_back(OctCons::upper(Seed % N, -1));
      DomainPair C(N, Cs);
      checkAllOps(A, C);
      checkAllOps(C, A);
    }
  });
}

TEST(VectorOpsDifferentialTest, WideningSequenceConverges) {
  // A realistic widening sequence: iterate x0 <= k for growing k,
  // widening with thresholds at each step, both libraries in lockstep.
  // x0 grows 0 -> 1 first, so its bound climbs the threshold ladder.
  forEachSimdTier([](SimdTier Tier) {
    SCOPED_TRACE(simdTierName(Tier));
    unsigned N = 6;
    DomainPair Acc(N, {OctCons::upper(0, 0)});
    for (int K = 1; K <= 4; ++K) {
      DomainPair Step(N, {OctCons::upper(0, K), OctCons::diff(1, 0, K)});
      Acc.Opt = Octagon::widenWithThresholds(Acc.Opt, Step.Opt, {2.0, 8.0});
      Acc.Ref =
          ApronOctagon::widenWithThresholds(Acc.Ref, Step.Ref, {2.0, 8.0});
      DomainPair Check = Acc;
      expectEquivalent(Check, "widening step");
    }
    EXPECT_EQ(Acc.Opt.boundOf(OctCons::upper(0, 0)),
              Acc.Ref.boundOf(OctCons::upper(0, 0)));
  });
}

/// Decomposition off must agree with decomposition on.
TEST(OctagonAblation, DecompositionOnOffAgree) {
  OctConfig Saved = octConfig();
  Rng R(123);
  for (int It = 0; It != 30; ++It) {
    unsigned N = 8;
    std::vector<OctCons> Cs;
    for (int K = 0; K != 10; ++K)
      Cs.push_back(randomCons(R, N));

    octConfig().EnableDecomposition = true;
    Octagon On(N);
    On.addConstraints(Cs);
    On.close();

    octConfig().EnableDecomposition = false;
    Octagon Off(N);
    Off.addConstraints(Cs);
    Off.close();

    ASSERT_EQ(On.isBottom(), Off.isBottom());
    if (!On.isBottom()) {
      for (unsigned I = 0; I != 2 * N; ++I)
        for (unsigned J = 0; J <= (I | 1u); ++J)
          ASSERT_EQ(On.entry(I, J), Off.entry(I, J));
    }
    octConfig() = Saved;
  }
}

} // namespace
