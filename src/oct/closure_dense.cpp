//===- oct/closure_dense.cpp - Optimized dense closure (Algorithm 3) -----===//

#include "oct/closure_dense.h"

#include "oct/simd_dispatch.h"
#include "support/budget.h"
#include "support/faultinject.h"

using namespace optoct;

void optoct::shortestPathDense(HalfDbm &M, ClosureScratch &Scratch) {
  unsigned D = M.dim();
  if (D == 0)
    return;
  Scratch.ensure(D);
  double *ColK = Scratch.ColK.data();
  double *ColK1 = Scratch.ColK1.data();
  double *RowK = Scratch.RowK.data();
  double *RowK1 = Scratch.RowK1.data();
  const SpanKernels &Kern = activeSpanKernels();

  for (unsigned K = 0, N = M.numVars(); K != N; ++K) {
    // O(n) work per pivot pair; one budget poll here is noise, yet it
    // bounds the time to notice a deadline/cancel by one pivot.
    support::pollBudget();
    support::faultPoint("closure.pivot");
    unsigned KK = 2 * K, KK1 = 2 * K + 1;
    // The in-block operands: O(2k, 2k+1) and O(2k+1, 2k). Both live in
    // the 2x2 diagonal block of the lower triangle and do not change
    // during this iteration.
    double OkK1 = M.at(KK, KK1);
    double Ok1K = M.at(KK1, KK);

    // Step 1: update the pivot columns (and, via coherence, the pivot
    // rows). For every i outside the pivot pair:
    //   O(i,2k+1) = min(O(i,2k+1), O(i,2k)   + O(2k,2k+1))   [pivot 2k]
    //   O(i,2k)   = min(O(i,2k),   O(i,2k+1) + O(2k+1,2k))   [pivot 2k+1]
    // The second update must see the first one's result. All operands
    // are reachable within the lower triangle, so no asymmetry issue
    // arises. The final values are gathered into contiguous arrays.
    //
    // The adds here would want boundAdd (oct/value.h): a column entry
    // can be +inf while the in-block operand is negative. But both
    // in-block operands are loop-invariant, so the saturation test is
    // hoisted: a +inf operand makes boundAdd return +inf, which never
    // wins the min, so that update is skipped wholesale; for a finite
    // operand plain + IS boundAdd, since stored bounds live in
    // R ∪ {+inf} (-inf and NaN are sanitized out at addConstraints /
    // assign). Keeping the inner loop free of per-iteration saturation
    // tests is worth several percent of closure throughput.
    const bool FinK1 = isFinite(OkK1), FinK = isFinite(Ok1K);
    for (unsigned I = 0; I != D; ++I) {
      if (I == KK || I == KK1) {
        ColK[I] = I == KK ? 0.0 : Ok1K;
        ColK1[I] = I == KK ? OkK1 : 0.0;
        continue;
      }
      double Vk = M.get(I, KK);
      double Vk1 = M.get(I, KK1);
      if (FinK1) {
        double T1 = Vk + OkK1;
        if (T1 < Vk1)
          Vk1 = T1;
      }
      if (FinK) {
        double T0 = Vk1 + Ok1K;
        if (T0 < Vk)
          Vk = T0;
      }
      M.set(I, KK, Vk);
      M.set(I, KK1, Vk1);
      ColK[I] = Vk;
      ColK1[I] = Vk1;
    }

    // Pivot row buffers by coherence: O(2k,j) = O(j^1,2k+1) and
    // O(2k+1,j) = O(j^1,2k).
    for (unsigned J = 0; J != D; ++J) {
      RowK[J] = ColK1[J ^ 1u];
      RowK1[J] = ColK[J ^ 1u];
    }

    // Step 2: remaining entries, two min operations each, vectorized.
    // Rows 2k and 2k+1 and the pivot-column entries are included — the
    // extra updates are derivations along valid paths and hence
    // harmless no-ops — which keeps the inner loop branch-free.
    for (unsigned I = 0; I != D; ++I) {
      double C1 = ColK[I];
      double C2 = ColK1[I];
      Kern.MinPlusRow2(M.row(I), RowK, C1, RowK1, C2, (I | 1u) + 1);
    }
  }
}

void optoct::strengthenDense(HalfDbm &M, ClosureScratch &Scratch) {
  unsigned D = M.dim();
  if (D == 0)
    return;
  Scratch.ensure(D);
  double *T = Scratch.T.data();

  // Gather the diagonal operands contiguously: T[j] = O(j^1, j); the row
  // operand d_i = O(i, i^1) is then T[i^1] (Section 5.2).
  for (unsigned J = 0; J != D; ++J)
    T[J] = M.get(J ^ 1u, J);

  const SpanKernels &Kern = activeSpanKernels();
  for (unsigned I = 0; I != D; ++I)
    Kern.StrengthenRow(M.row(I), T, T[I ^ 1u], (I | 1u) + 1);
}

bool optoct::closureDense(HalfDbm &M, ClosureScratch &Scratch) {
  shortestPathDense(M, Scratch);
  strengthenDense(M, Scratch);

  unsigned D = M.dim();
  for (unsigned I = 0; I != D; ++I)
    if (M.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != D; ++I)
    M.at(I, I) = 0.0;
  return true;
}
