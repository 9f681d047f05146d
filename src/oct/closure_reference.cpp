//===- oct/closure_reference.cpp - Full-DBM closure baselines ------------===//

#include "oct/closure_reference.h"

#include "oct/simd_dispatch.h"

using namespace optoct;

FullDbm::FullDbm(const HalfDbm &Half) : FullDbm(Half.numVars()) {
  for (unsigned I = 0, D = dim(); I != D; ++I)
    for (unsigned J = 0; J != D; ++J)
      at(I, J) = Half.get(I, J);
}

void FullDbm::toHalf(HalfDbm &Out) const {
  assert(Out.numVars() == N && "dimension mismatch");
  for (unsigned I = 0, D = dim(); I != D; ++I)
    for (unsigned J = 0; J <= (I | 1u) && J != D; ++J)
      Out.at(I, J) = at(I, J);
}

bool FullDbm::isCoherent() const {
  for (unsigned I = 0, D = dim(); I != D; ++I)
    for (unsigned J = 0; J != D; ++J)
      if (at(I, J) != at(J ^ 1u, I ^ 1u))
        return false;
  return true;
}

void optoct::shortestPathFullReference(FullDbm &O) {
  unsigned D = O.dim();
  for (unsigned K = 0; K != D; ++K)
    for (unsigned I = 0; I != D; ++I)
      for (unsigned J = 0; J != D; ++J) {
        double Path = O.at(I, K) + O.at(K, J);
        if (Path < O.at(I, J))
          O.at(I, J) = Path;
      }
}

bool optoct::closureFullReference(FullDbm &O) {
  unsigned D = O.dim();
  shortestPathFullReference(O);

  // Strengthening: O(i,j) = min(O(i,j), (O(i,i^1) + O(j^1,j)) / 2).
  for (unsigned I = 0; I != D; ++I)
    for (unsigned J = 0; J != D; ++J) {
      double S = (O.at(I, I ^ 1u) + O.at(J ^ 1u, J)) * 0.5;
      if (S < O.at(I, J))
        O.at(I, J) = S;
    }

  // Emptiness: a negative diagonal entry witnesses an infeasible cycle.
  for (unsigned I = 0; I != D; ++I)
    if (O.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != D; ++I)
    O.at(I, I) = 0.0;
  return true;
}

bool optoct::closureFullVectorized(FullDbm &O) {
  unsigned D = O.dim();
  const SpanKernels &Kern = activeSpanKernels();

  // Floyd-Warshall with scalar replacement of the column operand and a
  // vectorized row update (the pivot row is already contiguous in the
  // full representation, so no gather buffer is needed).
  for (unsigned K = 0; K != D; ++K) {
    const double *RowK = O.row(K);
    for (unsigned I = 0; I != D; ++I) {
      // No finiteness short-circuit: the Fig. 6(a) baseline keeps the
      // full operation count and gains only from vectorization,
      // locality, and scalar replacement.
      double Cik = O.at(I, K);
      Kern.MinPlusRow1(O.row(I), RowK, Cik, D);
    }
  }

  // Vectorized strengthening: gather the diagonal operands T[j] =
  // O(j^1, j) into a contiguous array first (Section 5.2).
  AlignedBuffer<double> T(D);
  for (unsigned J = 0; J != D; ++J)
    T[J] = O.at(J ^ 1u, J);
  for (unsigned I = 0; I != D; ++I)
    Kern.StrengthenRow(O.row(I), T.data(), T[I ^ 1u], D);

  for (unsigned I = 0; I != D; ++I)
    if (O.at(I, I) < 0.0)
      return false;
  for (unsigned I = 0; I != D; ++I)
    O.at(I, I) = 0.0;
  return true;
}
