//===- oct/octagon_ops.cpp - Lattice operators of the Octagon domain -----===//
///
/// \file
/// meet / join / widening / narrowing / inclusion / equality (Section 4).
/// Each operator works on the submatrices induced by the independent
/// components: meet merges components (union of the connectivity
/// relations), join and widening intersect them (common refinement), so
/// only the relevant parts of the matrices are accessed (Fig. 4).
///
/// All operators stream over contiguous packed half-DBM spans instead
/// of per-element coherence-indexed at() calls: row i stores columns
/// j = 0..(i|1) consecutively, so the Dense case is one flat pass over
/// the 2n(n+1) buffer. In the Decomposed case, join and widening stream
/// each refined component's row runs directly (walkComponentSpans),
/// where both inputs' buffers are initialized. Union-merged partitions
/// (meet, narrowing on partial inputs) pack every component through
/// entry()'s implicit-trivia semantics into the blocked component
/// layout (oct/blocked_layout.h), end to end, so one span-kernel
/// dispatch covers the whole batch; inclusion and equality pack one
/// row pair at a time to keep their early exit cheap.
///
/// Every kernel call goes through the active SIMD tier's table
/// (oct/simd_kernels.h); pinning the scalar tier (OPTOCT_SIMD=scalar)
/// is the scalar/vector ablation. tests/test_differential.cpp checks
/// every operator, under every supported tier, against the pointwise
/// APRON-style baseline (baseline::ApronOctagon) on every observable:
/// DBM entries before and after closure, nni, emptiness and verdicts.
///
//===----------------------------------------------------------------------===//

#include "oct/blocked_layout.h"
#include "oct/octagon.h"
#include "oct/simd_dispatch.h"

#include <algorithm>
#include <cassert>

using namespace optoct;

namespace {

/// A maximal run of consecutive variables in a sorted component. The
/// run [First, First+Count) owns the contiguous packed columns
/// [2*First, 2*(First+Count)) of every stored row at or above it.
struct VarRun {
  unsigned First;
  unsigned Count;
};

void componentRuns(const std::vector<unsigned> &Vars,
                   std::vector<VarRun> &Runs) {
  Runs.clear();
  for (unsigned V : Vars) {
    if (!Runs.empty() && Runs.back().First + Runs.back().Count == V)
      ++Runs.back().Count;
    else
      Runs.push_back({V, 1});
  }
}

/// Streams the stored spans of one component: for each variable Hi of
/// \p Vars (ascending) and each of its extended rows I in {2Hi, 2Hi+1},
/// calls \p Fn(I, J0, Len) for every contiguous packed column span
/// relating Hi to the component's variables <= Hi — the complete runs
/// below Hi, then the partial run ending in Hi's own diagonal block.
template <typename FnT>
void walkComponentSpans(const std::vector<unsigned> &Vars,
                        const std::vector<VarRun> &Runs, FnT Fn) {
  std::size_t RunIdx = 0;
  unsigned InRun = 0; // variables of Runs[RunIdx] already walked
  for (unsigned Hi : Vars) {
    if (InRun == Runs[RunIdx].Count) {
      ++RunIdx;
      InRun = 0;
    }
    for (unsigned R = 0; R != 2; ++R) {
      unsigned I = 2 * Hi + R;
      for (std::size_t Q = 0; Q != RunIdx; ++Q)
        Fn(I, 2 * Runs[Q].First, 2 * Runs[Q].Count);
      // Partial current run, including Hi's 2-wide diagonal block.
      Fn(I, 2 * Runs[RunIdx].First, 2 * InRun + 2);
    }
    ++InRun;
  }
}

/// Like walkComponentSpans, but reports the 2-wide diagonal-block span
/// (columns 2Hi, 2Hi+1 — Hi's unary bounds) through \p UnaryFn instead
/// of merging it into the last cross span. Widening needs the split:
/// unary entries encode 2x the variable bound and widen against the
/// doubled threshold set.
template <typename CrossFnT, typename UnaryFnT>
void walkComponentSpansSplit(const std::vector<unsigned> &Vars,
                             const std::vector<VarRun> &Runs, CrossFnT CrossFn,
                             UnaryFnT UnaryFn) {
  std::size_t RunIdx = 0;
  unsigned InRun = 0;
  for (unsigned Hi : Vars) {
    if (InRun == Runs[RunIdx].Count) {
      ++RunIdx;
      InRun = 0;
    }
    for (unsigned R = 0; R != 2; ++R) {
      unsigned I = 2 * Hi + R;
      for (std::size_t Q = 0; Q != RunIdx; ++Q)
        CrossFn(I, 2 * Runs[Q].First, 2 * Runs[Q].Count);
      if (InRun != 0)
        CrossFn(I, 2 * Runs[RunIdx].First, 2 * InRun);
      UnaryFn(I, 2 * Hi);
    }
    ++InRun;
  }
}

/// A two-source counting span kernel (MinSpanCount, NarrowSpanCount).
using SpanCountFn = std::size_t (*)(double *Dst, const double *A,
                                    const double *B, std::size_t Len);

/// Meet and narrowing over the union-merged partition \p RP, which can
/// relate pairs that neither input materialized: every component is
/// packed from both inputs through entry()'s implicit trivia (pure span
/// copies whenever a component sits inside one block of an input — the
/// common case of agreeing partitions), the blocks are laid end to end
/// in the per-thread scratch, one \p Kernel dispatch covers the whole
/// batch, and the results are scattered into \p RM. All components
/// batch regardless of size: the alternative here is a per-element
/// entry() loop, not a direct span walk. Returns the finite count.
std::size_t batchedEntryPass(SpanCountFn Kernel, const Partition &RP,
                             HalfDbm &RM, const HalfDbm &AM,
                             const Partition &AP, bool AInit,
                             const HalfDbm &BM, const Partition &BP,
                             bool BInit) {
  std::size_t Total = 0;
  for (std::size_t C = 0, E = RP.numComponents(); C != E; ++C)
    Total += blockSize(RP.component(C).size());
  if (Total == 0)
    return 0;
  BlockScratch &S = blockScratch();
  S.ensure(Total);
  std::size_t Off = 0;
  for (std::size_t C = 0, E = RP.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = RP.component(C);
    packComponentEntry(S.A.data() + Off, AM, AP, AInit, Vars);
    packComponentEntry(S.B.data() + Off, BM, BP, BInit, Vars);
    Off += blockSize(Vars.size());
  }
  std::size_t Count = Kernel(S.R.data(), S.A.data(), S.B.data(), Total);
  Off = 0;
  for (std::size_t C = 0, E = RP.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = RP.component(C);
    scatterComponent(S.R.data() + Off, RM, Vars);
    Off += blockSize(Vars.size());
  }
  return Count;
}

} // namespace

const Octagon &Octagon::closedOperand(const Octagon &O, unsigned Slot) {
  if (O.Closed)
    return O;
  // Copy assignment reuses a slot's buffers once they are large enough,
  // so closing an operand allocates only when its slot grows. A slot is
  // working storage, not an element, and charges no DBM-cell fuel.
  static thread_local Octagon Scratch[2] = {Octagon(0, PrivateTag{}),
                                            Octagon(0, PrivateTag{})};
  assert(Slot < 2 && "two operand slots");
  Octagon &S = Scratch[Slot];
  S = O;
  S.close();
  return S;
}

Octagon Octagon::meet(const Octagon &A, const Octagon &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  unsigned N = A.numVars();
  if (A.Empty || B.Empty)
    return makeBottom(N);
  if (A.P.empty() && !A.FullyInit)
    return B; // meet with Top
  if (B.P.empty() && !B.FullyInit)
    return A;

  Octagon R(N, PrivateTag{});
  R.P = Partition::unionMerge(A.P, B.P);
  const SpanKernels &Kern = activeSpanKernels();

  if (A.FullyInit && B.FullyInit) {
    // Dense fast path (Table 1: meet with a Dense input yields Dense
    // with O(n^2) vectorized work over the packed buffer). Two-source
    // kernels write the result directly — no preparatory buffer copy.
    R.FullyInit = true;
    if (A.P.isWhole() || B.P.isWhole()) {
      Kern.MinSpan(R.M.data(), A.M.data(), B.M.data(), R.M.size());
      R.NniExplicit = R.M.size(); // Section 4.1 over-approximation
    } else {
      // The same pass also yields the exact count (no re-scan).
      R.NniExplicit =
          Kern.MinSpanCount(R.M.data(), A.M.data(), B.M.data(), R.M.size());
    }
  } else {
    R.NniExplicit = batchedEntryPass(Kern.MinSpanCount, R.P, R.M, A.M, A.P,
                                     A.FullyInit, B.M, B.P, B.FullyInit);
    R.FullyInit = R.P.isWhole();
  }

  R.Closed = false;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  if (R.Kind == DbmKind::Top)
    R.Closed = true;
  return R;
}

Octagon Octagon::join(const Octagon &AIn, const Octagon &BIn) {
  assert(AIn.numVars() == BIn.numVars() && "dimension mismatch");
  unsigned N = AIn.numVars();
  const Octagon &A = closedOperand(AIn, 0);
  const Octagon &B = closedOperand(BIn, 1);
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  if (A.P.empty() || B.P.empty())
    return makeTop(N); // join with Top is Top (Table 1)

  Octagon R(N, PrivateTag{});
  R.P = Partition::refine(A.P, B.P);
  const SpanKernels &Kern = activeSpanKernels();

  if (A.FullyInit && B.FullyInit && A.P.isWhole() && B.P.isWhole()) {
    // Dense/Dense fast path: one flat vectorized max over the packed
    // buffers, written straight into the result.
    Kern.MaxSpan(R.M.data(), A.M.data(), B.M.data(), R.M.size());
    R.FullyInit = true;
    R.NniExplicit = R.M.size(); // Section 4.1 over-approximation
  } else {
    // Only the submatrices of the *intersected* components are read and
    // written (Fig. 4); everything else is implicitly trivial. A pair
    // inside a refined component lies inside one component of *each*
    // input, so both buffers are initialized there and the row spans
    // stream directly. The kernels count finite lanes as they go,
    // keeping nni exact without a second pass.
    std::size_t Count = 0;
    std::vector<VarRun> Runs;
    for (std::size_t C = 0, E = R.P.numComponents(); C != E; ++C) {
      const std::vector<unsigned> &Vars = R.P.component(C);
      componentRuns(Vars, Runs);
      walkComponentSpans(Vars, Runs, [&](unsigned I, unsigned J0, unsigned Len) {
        Count += Kern.MaxSpanCount(R.M.row(I) + J0, A.M.row(I) + J0,
                                   B.M.row(I) + J0, Len);
      });
    }
    R.FullyInit = R.P.isWhole();
    R.NniExplicit = Count;
  }

  // The pointwise max of two strongly closed DBMs is strongly closed.
  R.Closed = true;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  return R;
}

Octagon Octagon::widen(const Octagon &Old, const Octagon &New) {
  static const std::vector<double> NoThresholds;
  return widenWithThresholds(Old, New, NoThresholds);
}

Octagon Octagon::widenWithThresholds(const Octagon &Old,
                                     const Octagon &NewIn,
                                     const std::vector<double> &Thresholds) {
  assert(Old.numVars() == NewIn.numVars() && "dimension mismatch");
  assert(std::is_sorted(Thresholds.begin(), Thresholds.end()) &&
         "thresholds must be sorted ascending");
  unsigned N = Old.numVars();
  // Standard octagon widening: read the new argument closed for
  // precision, never the old one (termination).
  const Octagon &New = closedOperand(NewIn, 1);
  if (Old.Empty)
    return New;
  if (New.Empty)
    return Old;
  if (Old.P.empty() && !Old.FullyInit)
    return makeTop(N); // widening away from Top stays Top

  Octagon R(N, PrivateTag{});
  R.P = Partition::refine(Old.P, New.P);
  const SpanKernels &Kern = activeSpanKernels();

  // Thresholds are variable-level bounds: unary DBM entries (which
  // encode 2x the variable bound) land on 2t, binary entries on t. Both
  // sets are prepared once per call — the kernels scan them only for
  // entries that actually grew.
  std::vector<double> Doubled;
  Doubled.reserve(Thresholds.size());
  for (double T : Thresholds)
    Doubled.push_back(2 * T);
  const double *BinThr = Thresholds.data();
  const std::size_t BinN = Thresholds.size();
  const double *UnThr = Doubled.data();
  const std::size_t UnN = Doubled.size();

  // A bound survives iff it did not grow; growing bounds jump to the
  // next threshold or +inf. nni is counted exactly — widening is where
  // sparsity reappears during analysis (Fig. 7), so the count must be
  // real, not the dense over-approximation; the kernels return it from
  // the same pass. As in join, refined pairs are covered by both
  // inputs' components, so the raw row spans are valid.
  std::size_t Count = 0;
  if (BinN == 0 && R.P.isWhole()) {
    // Dense fast path: with no thresholds the unary and binary rules
    // coincide, so the whole packed buffer is a single span (a whole
    // refined partition means both inputs' buffers are fully
    // meaningful).
    Count = Kern.WidenSpanCount(R.M.data(), Old.M.data(), New.M.data(),
                                R.M.size(), nullptr, 0);
  } else {
    std::vector<VarRun> Runs;
    for (std::size_t C = 0, E = R.P.numComponents(); C != E; ++C) {
      const std::vector<unsigned> &Vars = R.P.component(C);
      componentRuns(Vars, Runs);
      walkComponentSpansSplit(
          Vars, Runs,
          [&](unsigned I, unsigned J0, unsigned Len) {
            Count += Kern.WidenSpanCount(R.M.row(I) + J0, Old.M.row(I) + J0,
                                         New.M.row(I) + J0, Len, BinThr, BinN);
          },
          [&](unsigned I, unsigned J0) {
            Count += Kern.WidenSpanCount(R.M.row(I) + J0, Old.M.row(I) + J0,
                                         New.M.row(I) + J0, 2, UnThr, UnN);
          });
    }
  }
  R.FullyInit = R.P.isWhole();
  R.NniExplicit = Count;
  R.Closed = false;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  if (R.Kind == DbmKind::Top)
    R.Closed = true;
  return R;
}

Octagon Octagon::narrow(const Octagon &OldIn, const Octagon &New) {
  assert(OldIn.numVars() == New.numVars() && "dimension mismatch");
  unsigned N = OldIn.numVars();
  const Octagon &Old = closedOperand(OldIn, 0);
  if (Old.Empty || New.Empty)
    return makeBottom(N);

  Octagon R(N, PrivateTag{});
  R.P = Partition::unionMerge(Old.P, New.P);
  const SpanKernels &Kern = activeSpanKernels();

  // Standard narrowing: refine only the unbounded entries.
  if (Old.FullyInit && New.FullyInit && R.P.isWhole()) {
    // Both buffers fully meaningful and one component covering every
    // variable: one flat select over the packed storage materializes
    // the result and counts it in the same pass.
    R.NniExplicit = Kern.NarrowSpanCount(R.M.data(), Old.M.data(),
                                         New.M.data(), R.M.size());
    R.FullyInit = true;
  } else {
    R.NniExplicit =
        batchedEntryPass(Kern.NarrowSpanCount, R.P, R.M, Old.M, Old.P,
                         Old.FullyInit, New.M, New.P, New.FullyInit);
    R.FullyInit = R.P.isWhole();
  }
  R.Closed = false;
  R.Kind = R.P.empty()    ? DbmKind::Top
           : R.P.isWhole() ? DbmKind::Dense
                           : DbmKind::Decomposed;
  if (R.Kind == DbmKind::Top)
    R.Closed = true;
  return R;
}

bool Octagon::leq(const Octagon &Other) const {
  assert(numVars() == Other.numVars() && "dimension mismatch");
  const Octagon &A = closedOperand(*this, 0);
  if (A.Empty)
    return true;
  if (Other.Empty)
    return false;
  // gamma(this) ⊆ gamma(Other) iff every bound of Other is implied:
  // this*(i,j) <= Other(i,j). Entries of Other outside its components
  // are +inf and need no check, so only Other's submatrices are read.
  // (Other is deliberately not closed: the test is exact either way,
  // and a stored widening iterate must stay unclosed.)
  const SpanKernels &Kern = activeSpanKernels();
  if (A.FullyInit && Other.FullyInit) {
    // Both buffers fully meaningful: one flat early-exit predicate over
    // the packed storage. Other's slots outside its components hold
    // materialized trivial values, which cannot fabricate a violation
    // (anything <= +inf; both diagonals are 0).
    return Kern.SpanLeq(A.M.data(), Other.M.data(), A.M.size());
  }
  BlockScratch &S = blockScratch();
  for (std::size_t C = 0, E = Other.P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = Other.P.component(C);
    // Pack and compare one row pair at a time: this side through
    // entry()'s implicit trivia (the receiver's partition may split
    // Other's component), Other with pure copies (its own component
    // rows are materialized by definition). Flushing per row pair keeps
    // the early exit cheap — a violation in the first rows costs one
    // tiny pack and one kernel call, not a whole-component gather.
    S.ensure(4 * Vars.size());
    for (std::size_t Row = 0, NumV = Vars.size(); Row != NumV; ++Row) {
      std::size_t Len =
          packRowPairEntry(S.A.data(), A.M, A.P, A.FullyInit, Vars, Row);
      packRowPair(S.B.data(), Other.M, Vars, Row);
      if (!Kern.SpanLeq(S.A.data(), S.B.data(), Len))
        return false;
    }
  }
  // When Other is fully materialized but its partition lags behind (it
  // over-approximates), uncovered entries are still genuinely trivial,
  // so the component scan above remains complete.
  return true;
}

bool Octagon::equals(const Octagon &OtherIn) const {
  assert(numVars() == OtherIn.numVars() && "dimension mismatch");
  const Octagon &A = closedOperand(*this, 0);
  const Octagon &B = closedOperand(OtherIn, 1);
  if (A.Empty || B.Empty)
    return A.Empty == B.Empty;
  // The strongly closed form is canonical for non-empty octagons.
  const SpanKernels &Kern = activeSpanKernels();
  if (A.FullyInit && B.FullyInit) {
    // Closure materialized both buffers (including the trivial slots
    // outside their exact partitions), so canonical equality is one
    // flat early-exit compare of the packed storage.
    return Kern.SpanEq(A.M.data(), B.M.data(), A.M.size());
  }
  // Any non-trivial entry of either side lies inside a component of
  // its own partition, so two one-sided sweeps cover every pair that
  // could differ: first all pairs inside B's components (A read
  // through entry()'s implicit trivia), then pairs inside A's
  // components — skipping blocks the first sweep already verified in
  // full because they exist identically in B's partition (the common
  // fixpoint-iterate case). Pairs covered by neither partition are
  // trivial on both sides. No merged partition is materialized, so
  // equality stays allocation-free, and flushing one row pair per
  // kernel call keeps the early exit cheap on unequal inputs.
  BlockScratch &S = blockScratch();
  for (std::size_t C = 0, E = B.P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = B.P.component(C);
    S.ensure(4 * Vars.size());
    for (std::size_t Row = 0, NumV = Vars.size(); Row != NumV; ++Row) {
      std::size_t Len =
          packRowPairEntry(S.A.data(), A.M, A.P, A.FullyInit, Vars, Row);
      packRowPair(S.B.data(), B.M, Vars, Row);
      if (!Kern.SpanEq(S.A.data(), S.B.data(), Len))
        return false;
    }
  }
  for (std::size_t C = 0, E = A.P.numComponents(); C != E; ++C) {
    const std::vector<unsigned> &Vars = A.P.component(C);
    int CB = B.P.componentOf(Vars[0]);
    if (CB >= 0 && B.P.component(static_cast<std::size_t>(CB)) == Vars)
      continue;
    S.ensure(4 * Vars.size());
    for (std::size_t Row = 0, NumV = Vars.size(); Row != NumV; ++Row) {
      std::size_t Len = packRowPair(S.A.data(), A.M, Vars, Row);
      packRowPairEntry(S.B.data(), B.M, B.P, B.FullyInit, Vars, Row);
      if (!Kern.SpanEq(S.A.data(), S.B.data(), Len))
        return false;
    }
  }
  return true;
}
