//===- oct/closure_incremental.cpp - Incremental closure -----------------===//

#include "oct/closure_incremental.h"

#include "oct/closure_dense.h"
#include "oct/simd_dispatch.h"
#include "support/budget.h"
#include "support/faultinject.h"

using namespace optoct;

void optoct::incrementalPivotPass(HalfDbm &M, unsigned K,
                                  ClosureScratch &Scratch) {
  support::pollBudget();
  support::faultPoint("closure.pivot");
  unsigned D = M.dim();
  Scratch.ensure(D);
  double *ColK = Scratch.ColK.data();
  double *ColK1 = Scratch.ColK1.data();
  double *RowK = Scratch.RowK.data();
  double *RowK1 = Scratch.RowK1.data();
  unsigned KK = 2 * K, KK1 = 2 * K + 1;
  double OkK1 = M.at(KK, KK1);
  double Ok1K = M.at(KK1, KK);

  // Saturation hoisted out of the loop as in shortestPathDense: a +inf
  // in-block operand can never win the min, and for finite operands
  // plain + equals boundAdd on the stored R ∪ {+inf} bounds.
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
  for (unsigned J = 0; J != D; ++J) {
    RowK[J] = ColK1[J ^ 1u];
    RowK1[J] = ColK[J ^ 1u];
  }
  const SpanKernels &Kern = activeSpanKernels();
  for (unsigned I = 0; I != D; ++I)
    Kern.MinPlusRow2(M.row(I), RowK, ColK[I], RowK1, ColK1[I], (I | 1u) + 1);
}

bool optoct::incrementalClosureDense(HalfDbm &M, const unsigned *Touched,
                                     unsigned NumTouched,
                                     ClosureScratch &Scratch) {
  unsigned D = M.dim();
  if (D == 0)
    return true;
  for (unsigned T = 0; T != NumTouched; ++T)
    incrementalPivotPass(M, Touched[T], Scratch);
  strengthenDense(M, Scratch);

  for (unsigned I = 0; I != D; ++I)
    if (M.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != D; ++I)
    M.at(I, I) = 0.0;
  return true;
}
