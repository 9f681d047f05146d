//===- tests/test_deferred_close.cpp - Deferred guard closure -------------===//
///
/// \file
/// Constraints met into a closed octagon leave it unclosed with a record
/// of the variables they touched, and the next close() restores closure
/// incrementally over those variables (Section 5.6). Strong closure is
/// canonical, so the deferred path must reach exactly the element a full
/// closure of the same representation reaches: the same entries,
/// partition, kind, nni and emptiness.
///
/// Assignments on a closed element are closed by construction: x's rows
/// are written directly, with no pivot pass. ClosedFormAssign checks
/// each of x := y + c, x := -y + c, x := c and the interval fallback
/// against a copy that forgets x, meets the new bounds and closes, in
/// full and by the pivot passes of a guard record.
///
/// Each trial builds a random closed element — Top, decomposed, sparse
/// or dense — then applies one to three guard batches, each touching
/// between 1 and DeferredCloseCutoff + 1 variables, with x := x + c,
/// x := -x + c and addVars interleaved (they commute with closure and
/// keep the record). A copy whose record is dropped closes in full and
/// is the reference. Every case runs in each SIMD tier, with online
/// decomposition on and off.
///
//===----------------------------------------------------------------------===//

#include "oct_test_util.h"

#include "oct/config.h"
#include "oct/octagon.h"
#include "support/faultinject.h"
#include "support/random.h"
#include "support/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace optoct {

/// The test peer octagon.h befriends: reads and drops the record.
struct OctagonTestAccess {
  static unsigned recordSize(const Octagon &O) { return O.NumDeferred; }
  static void dropRecord(Octagon &O) { O.NumDeferred = 0; }
};

} // namespace optoct

using namespace optoct;
using optoct::test::forEachSimdTier;

namespace {

constexpr unsigned Cutoff = Octagon::DeferredCloseCutoff;

enum class Shape { Top, Blocks, Chain, Dense };

/// A random closed element of the given shape over \p N variables,
/// closed in full.
Octagon randomClosed(Rng &R, unsigned N, Shape S) {
  Octagon O(N);
  std::vector<OctCons> Cs;
  auto Bound = [&R] { return static_cast<double>(R.intIn(-2, 14)); };
  switch (S) {
  case Shape::Top:
    break;
  case Shape::Blocks:
    // Relations inside blocks of three consecutive variables.
    for (unsigned V = 0; V + 1 < N; ++V)
      if (V % 3 != 2 && R.chance(0.7))
        Cs.push_back(OctCons::diff(V + 1, V, Bound()));
    for (unsigned V = 0; V != N; ++V)
      if (R.chance(0.2))
        Cs.push_back(OctCons::upper(V, Bound()));
    break;
  case Shape::Chain:
    // Differences along one chain: one component, few entries.
    for (unsigned V = 0; V + 1 < N; ++V)
      Cs.push_back(OctCons::diff(V + 1, V, Bound()));
    break;
  case Shape::Dense:
    for (unsigned V = 0; V != N; ++V) {
      Cs.push_back(OctCons::upper(V, Bound() + 8));
      Cs.push_back(OctCons::lower(V, Bound() + 8));
      unsigned W = static_cast<unsigned>(R.indexBelow(N));
      if (W != V)
        Cs.push_back(OctCons::sum(V, W, Bound() + 8));
    }
    break;
  }
  O.addConstraints(Cs);
  OctagonTestAccess::dropRecord(O);
  O.close();
  return O;
}

/// A guard batch over exactly the variables \p Vars: a unary bound on
/// each that lowers its stored entry, plus differences and sums between
/// them.
std::vector<OctCons> guardBatch(Rng &R, const Octagon &O,
                                const std::vector<unsigned> &Vars) {
  std::vector<OctCons> Cs;
  for (unsigned V : Vars) {
    OctCons C = R.chance(0.5) ? OctCons::upper(V, 0) : OctCons::lower(V, 0);
    double Entry = O.boundOf(C); // twice the bound
    C.Bound = isFinite(Entry) ? Entry / 2 - R.intIn(1, 3)
                              : static_cast<double>(R.intIn(-2, 12));
    Cs.push_back(C);
  }
  for (std::size_t K = 1; K < Vars.size(); ++K)
    if (R.chance(0.6)) {
      unsigned A = Vars[K], B = Vars[R.indexBelow(K)];
      double Bound = R.intIn(-3, 10);
      Cs.push_back(R.chance(0.5) ? OctCons::diff(A, B, Bound)
                                 : OctCons::sum(A, B, Bound));
    }
  return Cs;
}

/// The element under test and the record its guard batches should
/// leave: the variables they touched, or none once those outgrew the
/// cut-off.
struct Trial {
  Octagon O;
  std::set<unsigned> Expected = {};
  bool Dropped = false;
};

void applyBatch(Rng &R, Trial &T, unsigned K) {
  unsigned N = T.O.numVars();
  std::vector<unsigned> All(N);
  for (unsigned V = 0; V != N; ++V)
    All[V] = V;
  for (unsigned I = 0; I != K; ++I)
    std::swap(All[I], All[I + R.indexBelow(N - I)]);
  std::vector<unsigned> Vars(All.begin(), All.begin() + K);
  std::sort(Vars.begin(), Vars.end());
  T.O.addConstraints(guardBatch(R, T.O, Vars));
  T.Expected.insert(Vars.begin(), Vars.end());
  if (T.Expected.size() > Cutoff)
    T.Dropped = true;
}

/// x := x + c, x := -x + c or one more variable.
void interleave(Rng &R, Trial &T) {
  unsigned N = T.O.numVars();
  unsigned X = static_cast<unsigned>(R.indexBelow(N));
  LinExpr E;
  switch (R.intIn(0, 2)) {
  case 0:
    E.Terms = {{1, X}};
    E.Const = R.intIn(-3, 3);
    T.O.assign(X, E);
    break;
  case 1:
    E.Terms = {{-1, X}};
    E.Const = R.intIn(-3, 3);
    T.O.assign(X, E);
    break;
  default:
    T.O.addVars(1);
    break;
  }
}

/// The same element: entries, emptiness and nni, and, unless
/// \p SamePartition is false, partition and kind. Otherwise
/// \p Deferred's partition must coarsen \p Full's.
void expectSameElement(Octagon &Deferred, Octagon &Full,
                       bool SamePartition = true) {
  ASSERT_EQ(Deferred.isBottom(), Full.isBottom());
  if (Full.isBottom())
    return;
  ASSERT_EQ(Deferred.numVars(), Full.numVars());
  for (unsigned I = 0, D = 2 * Full.numVars(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u); ++J)
      ASSERT_EQ(Deferred.entry(I, J), Full.entry(I, J))
          << "entry (" << I << "," << J << ")";
  EXPECT_EQ(Deferred.nni(), Full.nni());
  if (!SamePartition) {
    EXPECT_TRUE(Deferred.partition().coarsens(Full.partition()));
    return;
  }
  EXPECT_TRUE(Deferred.partition() == Full.partition());
  EXPECT_EQ(Deferred.kind(), Full.kind());
}

struct DeferCase {
  bool Decomposition;
  bool Sparse;
  double Threshold;
  std::uint64_t Seed;
};

void PrintTo(const DeferCase &C, std::ostream *OS) {
  *OS << "decomp=" << C.Decomposition << " sparse=" << C.Sparse
      << " t=" << C.Threshold << " seed=" << C.Seed;
}

class DeferredClose : public ::testing::TestWithParam<DeferCase> {
protected:
  void SetUp() override {
    Saved = octConfig();
    octConfig().EnableDecomposition = GetParam().Decomposition;
    octConfig().EnableSparse = GetParam().Sparse;
    octConfig().SparsityThreshold = GetParam().Threshold;
  }
  void TearDown() override {
    octConfig() = Saved;
    setOctStatsSink(nullptr);
  }
  OctConfig Saved;
};

TEST_P(DeferredClose, MatchesFullClosureOfTheSameElement) {
  const DeferCase &C = GetParam();
  forEachSimdTier([&](SimdTier Tier) {
    SCOPED_TRACE(simdTierName(Tier));
    Rng R(C.Seed);
    std::set<DbmKind> Kinds;
    unsigned Deferred = 0;
    for (unsigned Iter = 0; Iter != 64; ++Iter) {
      SCOPED_TRACE("trial " + std::to_string(Iter));
      Shape S = static_cast<Shape>(Iter % 4);
      unsigned K = 1 + Iter % (Cutoff + 1); // 1 .. cut-off + 1
      unsigned N = std::max(K + 1, static_cast<unsigned>(R.intIn(4, 14)));
      Trial T{randomClosed(R, N, S)};
      ASSERT_TRUE(T.O.isClosed());
      Kinds.insert(T.O.kind());
      if (T.O.isBottom())
        continue;

      for (int Batch = 0, E = R.intIn(1, 3); Batch != E; ++Batch) {
        applyBatch(R, T,
                   Batch == 0 ? K
                              : 1 + static_cast<unsigned>(R.indexBelow(K)));
        if (R.chance(0.5))
          interleave(R, T);
      }
      // Every batch lowers an entry, so the element is unclosed.
      ASSERT_FALSE(T.O.isClosed());
      unsigned Expected =
          T.Dropped ? 0 : static_cast<unsigned>(T.Expected.size());
      EXPECT_EQ(OctagonTestAccess::recordSize(T.O), Expected);
      bool HasRecord = Expected != 0;

      Octagon Full = T.O;
      OctagonTestAccess::dropRecord(Full);
      OctStats Incremental, Whole;
      setOctStatsSink(&Incremental);
      T.O.close();
      setOctStatsSink(&Whole);
      Full.close();
      setOctStatsSink(nullptr);
      if (HasRecord) {
        ++Deferred;
        EXPECT_EQ(Incremental.numIncrementalClosures(), 1u);
        EXPECT_EQ(Incremental.numClosures(), 0u);
        EXPECT_EQ(Whole.numClosures(), 1u);
      }
      expectSameElement(T.O, Full);
      if (::testing::Test::HasFatalFailure())
        return;
    }
    // Every kind of closed element was a starting point: Top and
    // Decomposed exist with decomposition on, and a sparse closure
    // keeps the chain Sparse under the low threshold. Most trials took
    // the deferred path.
    EXPECT_TRUE(Kinds.count(DbmKind::Dense));
    if (C.Sparse && C.Threshold < 0.5) {
      EXPECT_TRUE(Kinds.count(DbmKind::Sparse));
    }
    if (C.Decomposition) {
      EXPECT_TRUE(Kinds.count(DbmKind::Top));
      EXPECT_TRUE(Kinds.count(DbmKind::Decomposed));
    }
    EXPECT_GT(Deferred, 32u);
  });
}

std::vector<DeferCase> deferCases() {
  std::vector<DeferCase> Cases;
  std::uint64_t Seed = 900;
  for (bool Decomposition : {true, false})
    for (bool Sparse : {true, false})
      for (double T : {0.75, 0.25})
        Cases.push_back({Decomposition, Sparse, T, Seed++});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(Family, DeferredClose,
                         ::testing::ValuesIn(deferCases()));

/// An assignment constant: a small integer or half, or a half of
/// magnitude near 2^52. Halves there are still exact, and every sum a
/// closure forms with the elements' small bounds stays below 2^53.
double assignConst(Rng &R) {
  double Small = R.intIn(-6, 6) + (R.chance(0.5) ? 0.5 : 0.0);
  if (R.chance(0.5))
    return Small;
  double Big = 0x1p52 - 1024 + Small;
  return R.chance(0.5) ? Big : -Big;
}

enum class Form { Copy, NegCopy, Const, Interval };

using ClosedFormAssign = DeferredClose;

TEST_P(ClosedFormAssign, MatchesForgetMeetFullClosure) {
  const DeferCase &C = GetParam();
  forEachSimdTier([&](SimdTier Tier) {
    SCOPED_TRACE(simdTierName(Tier));
    Rng R(C.Seed);
    std::set<DbmKind> Kinds;
    unsigned Closing = 0;
    for (unsigned Iter = 0; Iter != 128; ++Iter) {
      SCOPED_TRACE("trial " + std::to_string(Iter));
      Shape S = static_cast<Shape>(Iter % 4);
      Form F = static_cast<Form>(Iter / 4 % 4);
      unsigned N = static_cast<unsigned>(R.intIn(2, 14));
      Octagon O = randomClosed(R, N, S);
      if (O.isBottom())
        continue;
      Kinds.insert(O.kind());
      unsigned X = static_cast<unsigned>(R.indexBelow(N));
      unsigned Y = (X + 1 + static_cast<unsigned>(R.indexBelow(N - 1))) % N;
      LinExpr E;
      E.Const = assignConst(R);
      double Cst = E.Const;
      // The constraints that pin x to its new value.
      std::vector<OctCons> Meet;
      switch (F) {
      case Form::Copy:
        E.Terms = {{1, Y}};
        Meet = {OctCons::diff(X, Y, Cst), OctCons::diff(Y, X, -Cst)};
        break;
      case Form::NegCopy:
        E.Terms = {{-1, Y}};
        Meet = {OctCons::sum(X, Y, Cst), OctCons::negSum(X, Y, -Cst)};
        break;
      case Form::Const:
        Meet = {OctCons::upper(X, Cst), OctCons::lower(X, -Cst)};
        break;
      case Form::Interval: {
        E.addTerm(R.chance(0.5) ? 2 : -2, Y);
        if (R.chance(0.5))
          E.addTerm(R.chance(0.5) ? 1 : -1, (Y + 1) % N);
        Interval Iv = Octagon(O).evalInterval(E);
        if (isFinite(Iv.Hi))
          Meet.push_back(OctCons::upper(X, Iv.Hi));
        if (isFinite(-Iv.Lo))
          Meet.push_back(OctCons::lower(X, -Iv.Lo));
        break;
      }
      }

      // The references: x forgotten and met, then closed in full, or
      // by the pivot passes of a guard record, the forget-then-meet
      // closure (Section 5.6). Both reach the same entries and nni. The
      // full closure recomputes the exact partition, which may be finer
      // than the maintained one that forgetting x leaves; the pivot
      // closure keeps the maintained one, as the copy does.
      Octagon Pivot = O;
      Pivot.havoc(X);
      Pivot.addConstraints(Meet);
      Octagon Full = Pivot;
      OctagonTestAccess::dropRecord(Full);
      Pivot.close();
      Full.close();

      // No pivot pass may run: one would throw here.
      support::FaultRule NoPivot;
      NoPivot.Site = "closure.pivot";
      NoPivot.Hits = ~0u;
      support::FaultPlan::global().addRule(NoPivot);
      OctStats Stats;
      setOctStatsSink(&Stats);
      EXPECT_NO_THROW(O.assign(X, E));
      setOctStatsSink(nullptr);
      support::FaultPlan::global().clear();

      bool Closes = !Meet.empty();
      Closing += Closes;
      EXPECT_TRUE(O.isClosed());
      EXPECT_EQ(Stats.numClosures(), 0u);
      EXPECT_EQ(Stats.numIncrementalClosures(), Closes ? 1u : 0u);
      expectSameElement(O, Full, /*SamePartition=*/false);
      if (::testing::Test::HasFatalFailure())
        return;
      expectSameElement(O, Pivot);
      if (::testing::Test::HasFatalFailure())
        return;
    }
    // As in DeferredClose, every kind of closed element was a start.
    EXPECT_TRUE(Kinds.count(DbmKind::Dense));
    if (C.Sparse && C.Threshold < 0.5) {
      EXPECT_TRUE(Kinds.count(DbmKind::Sparse));
    }
    if (C.Decomposition) {
      EXPECT_TRUE(Kinds.count(DbmKind::Top));
      EXPECT_TRUE(Kinds.count(DbmKind::Decomposed));
    }
    EXPECT_GT(Closing, 96u);
  });
}

INSTANTIATE_TEST_SUITE_P(Family, ClosedFormAssign,
                         ::testing::ValuesIn(deferCases()));

} // namespace
