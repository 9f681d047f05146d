//===- oct/closure_sparse.cpp - Index-driven sparse closure --------------===//

#include "oct/closure_sparse.h"

#include "support/budget.h"
#include "support/faultinject.h"

#include <numeric>

using namespace optoct;

void optoct::shortestPathSparse(HalfDbm &M, ClosureScratch &Scratch) {
  unsigned D = M.dim();
  if (D == 0)
    return;
  Scratch.ensure(D);
  double *ColK = Scratch.ColK.data();
  double *ColK1 = Scratch.ColK1.data();
  double *RowK = Scratch.RowK.data();
  double *RowK1 = Scratch.RowK1.data();

  for (unsigned K = 0, N = M.numVars(); K != N; ++K) {
    support::pollBudget();
    support::faultPoint("closure.pivot");
    unsigned KK = 2 * K, KK1 = 2 * K + 1;
    double OkK1 = M.at(KK, KK1);
    double Ok1K = M.at(KK1, KK);

    // Update the pivot columns (linear scan over the matrix — this is
    // the quadratic part of the complexity) and gather their values.
    //
    // The adds would want boundAdd (Vk/Vk1 can be +inf while the
    // in-block operand is negative), but the in-block operands are
    // loop-invariant, so the saturation test hoists out of the loop: a
    // +inf operand can never win the min, and for a finite one plain +
    // IS boundAdd, since stored bounds live in R ∪ {+inf} (-inf/NaN
    // sanitized at the domain boundary). The sparse inner loops below
    // are safe as-is — their index lists admit only finite operands.
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

    // Index the finite row operands. By coherence O(2k,j) = ColK1[j^1]
    // and O(2k+1,j) = ColK[j^1]; scanning j in order yields sorted index
    // lists.
    Scratch.IdxRowK.clear();
    Scratch.IdxRowK1.clear();
    for (unsigned J = 0; J != D; ++J) {
      double Rk = ColK1[J ^ 1u];
      double Rk1 = ColK[J ^ 1u];
      RowK[J] = Rk;
      RowK1[J] = Rk1;
      if (isFinite(Rk))
        Scratch.IdxRowK.push_back(J);
      if (isFinite(Rk1))
        Scratch.IdxRowK1.push_back(J);
    }

    // Remaining entries: update (i,j) only when both operands are
    // finite. The index lists are sorted, so "j <= (i|1)" is a prefix.
    for (unsigned I = 0; I != D; ++I) {
      double C1 = ColK[I];
      double C2 = ColK1[I];
      unsigned Limit = I | 1u;
      if (isFinite(C1)) {
        double *Row = M.row(I);
        for (unsigned J : Scratch.IdxRowK) {
          if (J > Limit)
            break;
          double T = C1 + RowK[J];
          if (T < Row[J])
            Row[J] = T;
        }
      }
      if (isFinite(C2)) {
        double *Row = M.row(I);
        for (unsigned J : Scratch.IdxRowK1) {
          if (J > Limit)
            break;
          double T = C2 + RowK1[J];
          if (T < Row[J])
            Row[J] = T;
        }
      }
    }
  }
}

void optoct::strengthenSparseRestricted(HalfDbm &M,
                                        const std::vector<unsigned> &Vars,
                                        ClosureScratch &Scratch) {
  if (Vars.empty())
    return;
  Scratch.ensure(M.dim());
  double *T = Scratch.T.data();
  std::vector<unsigned> &EVars = Scratch.EVars;
  EVars.clear();
  for (unsigned V : Vars) {
    EVars.push_back(2 * V);
    EVars.push_back(2 * V + 1);
  }

  // Index the finite diagonal operands T[j] = O(j^1, j).
  Scratch.IdxT.clear();
  for (unsigned J : EVars) {
    T[J] = M.get(J ^ 1u, J);
    if (isFinite(T[J]))
      Scratch.IdxT.push_back(J);
  }

  for (unsigned I : EVars) {
    double Di = T[I ^ 1u];
    if (!isFinite(Di))
      continue;
    double *Row = M.row(I);
    unsigned Limit = I | 1u;
    for (unsigned J : Scratch.IdxT) {
      if (J > Limit)
        break;
      double S = (Di + T[J]) * 0.5;
      if (S < Row[J])
        Row[J] = S;
    }
  }
}

bool optoct::closureSparse(HalfDbm &M, ClosureScratch &Scratch,
                           std::size_t &NniOut) {
  shortestPathSparse(M, Scratch);
  std::vector<unsigned> AllVars(M.numVars());
  std::iota(AllVars.begin(), AllVars.end(), 0u);
  strengthenSparseRestricted(M, AllVars, Scratch);

  unsigned D = M.dim();
  for (unsigned I = 0; I != D; ++I)
    if (M.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != D; ++I)
    M.at(I, I) = 0.0;
  NniOut = M.countFinite();
  return true;
}
