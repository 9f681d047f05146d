//===- oct/closure_incremental.cpp - Incremental closure -----------------===//

#include "oct/closure_incremental.h"

#include "oct/closure_dense.h"
#include "oct/closure_sparse.h"
#include "oct/simd_dispatch.h"
#include "support/budget.h"
#include "support/faultinject.h"

using namespace optoct;

namespace {

/// One fused pivot-pair iteration (variable \p K) of Algorithm 3 over
/// the whole matrix, vectorized.
void pivotPassDense(HalfDbm &M, unsigned K, ClosureScratch &Scratch) {
  unsigned D = M.dim();
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

} // namespace

bool optoct::incrementalClosureDense(HalfDbm &M,
                                     const std::vector<unsigned> &Touched,
                                     ClosureScratch &Scratch) {
  unsigned D = M.dim();
  if (D == 0)
    return true;
  Scratch.ensure(D);
  for (unsigned K : Touched) {
    support::pollBudget();
    support::faultPoint("closure.pivot");
    pivotPassDense(M, K, Scratch);
  }
  strengthenDense(M, Scratch);

  for (unsigned I = 0; I != D; ++I)
    if (M.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != D; ++I)
    M.at(I, I) = 0.0;
  return true;
}

std::size_t optoct::incrementalClosureRestricted(
    HalfDbm &M, const std::vector<unsigned> &Vars,
    const std::vector<unsigned> &Touched, ClosureScratch &Scratch) {
  if (Vars.empty())
    return 0;
  Scratch.ensure(M.dim());
  double *ColK = Scratch.ColK.data();
  double *ColK1 = Scratch.ColK1.data();
  double *RowK = Scratch.RowK.data();
  double *RowK1 = Scratch.RowK1.data();

  std::vector<unsigned> EVars;
  EVars.reserve(2 * Vars.size());
  for (unsigned V : Vars) {
    EVars.push_back(2 * V);
    EVars.push_back(2 * V + 1);
  }

  std::size_t Fresh = 0;
  for (unsigned K : Touched) {
    support::pollBudget();
    support::faultPoint("closure.pivot");
    unsigned KK = 2 * K, KK1 = 2 * K + 1;
    double OkK1 = M.at(KK, KK1);
    double Ok1K = M.at(KK1, KK);

    // Same hoisted-saturation pattern as the dense pivot pass above.
    const bool FinK1 = isFinite(OkK1), FinK = isFinite(Ok1K);
    for (unsigned I : EVars) {
      if (I == KK || I == KK1) {
        ColK[I] = I == KK ? 0.0 : Ok1K;
        ColK1[I] = I == KK ? OkK1 : 0.0;
        continue;
      }
      double Vk = M.get(I, KK);
      double Vk1 = M.get(I, KK1);
      const bool WasFinK = isFinite(Vk), WasFinK1 = isFinite(Vk1);
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
      Fresh += (!WasFinK && isFinite(Vk)) + (!WasFinK1 && isFinite(Vk1));
      M.set(I, KK, Vk);
      M.set(I, KK1, Vk1);
      ColK[I] = Vk;
      ColK1[I] = Vk1;
    }
    for (unsigned J : EVars) {
      RowK[J] = ColK1[J ^ 1u];
      RowK1[J] = ColK[J ^ 1u];
    }
    for (unsigned I : EVars) {
      double C1 = ColK[I];
      double C2 = ColK1[I];
      bool F1 = isFinite(C1), F2 = isFinite(C2);
      if (!F1 && !F2)
        continue;
      double *Row = M.row(I);
      unsigned Limit = I | 1u;
      for (unsigned J : EVars) {
        if (J > Limit)
          break;
        double T1 = C1 + RowK[J];
        double T2 = C2 + RowK1[J];
        double T = T1 < T2 ? T1 : T2;
        if (T < Row[J]) {
          Fresh += !isFinite(Row[J]);
          Row[J] = T;
        }
      }
    }
  }
  return Fresh + strengthenSparseRestricted(M, Vars, Scratch);
}
