//===- oct/simd_kernels_scalar.cpp - Pinned-scalar kernel tier -----------===//
///
/// \file
/// The scalar tier of the runtime-dispatched kernel table. These are the
/// scalar fallback loops the AVX kernels shipped with, verbatim, pinned
/// against compiler auto-vectorization (OPTOCT_SCALAR_KERNEL): this tier
/// is simultaneously the portable fallback for CPUs without AVX2, the
/// OPTOCT_SIMD=scalar override target, and the honest baseline the
/// ablation benchmarks (simdForceTier(SimdTier::Scalar)) measure against.
///
/// Bitwise contract with the AVX tiers: ties resolve to the second
/// operand (like MAXPD/MINPD), widening's threshold jump is
/// std::lower_bound on the sorted table, and finite counts use
/// `!= +inf` (NaN and -inf count as finite, matching isFinite).
///
//===----------------------------------------------------------------------===//

#include "oct/simd_kernels.h"
#include "oct/value.h"

#include <algorithm>

namespace optoct {
namespace {

OPTOCT_SCALAR_KERNEL
void maxSpanScalar(double *Dst, const double *A, const double *B,
                   std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double VA = A[J], VB = B[J];
    // VB on ties, like MAXPD, so scalar and vector agree bitwise.
    Dst[J] = VA > VB ? VA : VB;
  }
}

OPTOCT_SCALAR_KERNEL
void minSpanScalar(double *Dst, const double *A, const double *B,
                   std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double VA = A[J], VB = B[J];
    Dst[J] = VA < VB ? VA : VB;
  }
}

OPTOCT_SCALAR_KERNEL
std::size_t maxSpanCountScalar(double *Dst, const double *A, const double *B,
                               std::size_t Len) {
  std::size_t Count = 0;
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double VA = A[J], VB = B[J];
    double V = VA > VB ? VA : VB;
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_SCALAR_KERNEL
std::size_t minSpanCountScalar(double *Dst, const double *A, const double *B,
                               std::size_t Len) {
  std::size_t Count = 0;
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double VA = A[J], VB = B[J];
    double V = VA < VB ? VA : VB;
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_SCALAR_KERNEL
std::size_t narrowSpanCountScalar(double *Dst, const double *OldS,
                                  const double *NewS, std::size_t Len) {
  std::size_t Count = 0;
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double VO = OldS[J];
    double V = isFinite(VO) ? VO : NewS[J];
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_SCALAR_KERNEL
std::size_t widenSpanCountScalar(double *Dst, const double *OldS,
                                 const double *NewS, std::size_t Len,
                                 const double *Thr, std::size_t ThrN) {
  std::size_t Count = 0;
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double VO = OldS[J], VN = NewS[J];
    double V;
    if (VN <= VO) {
      V = VO;
    } else if (ThrN == 0) {
      V = Infinity;
    } else {
      const double *It = std::lower_bound(Thr, Thr + ThrN, VN);
      V = It == Thr + ThrN ? Infinity : *It;
    }
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_SCALAR_KERNEL
bool spanLeqScalar(const double *A, const double *B, std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J)
    if (A[J] > B[J])
      return false;
  return true;
}

OPTOCT_SCALAR_KERNEL
bool spanEqScalar(const double *A, const double *B, std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J)
    if (A[J] != B[J])
      return false;
  return true;
}

OPTOCT_SCALAR_KERNEL
void minPlusRow2Scalar(double *Dst, const double *RowA, double A,
                       const double *RowB, double B, std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double T1 = A + RowA[J];
    double T2 = B + RowB[J];
    double T = T1 < T2 ? T1 : T2;
    if (T < Dst[J])
      Dst[J] = T;
  }
}

OPTOCT_SCALAR_KERNEL
void minPlusRow1Scalar(double *Dst, const double *RowA, double A,
                       std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double T = A + RowA[J];
    if (T < Dst[J])
      Dst[J] = T;
  }
}

OPTOCT_SCALAR_KERNEL
void strengthenRowScalar(double *Dst, const double *T, double Di,
                         std::size_t Len) {
  OPTOCT_SCALAR_LOOP
  for (std::size_t J = 0; J != Len; ++J) {
    double S = (Di + T[J]) * 0.5;
    if (S < Dst[J])
      Dst[J] = S;
  }
}

} // namespace

const SpanKernels SpanKernelsScalar = {
    "scalar",
    maxSpanScalar,
    minSpanScalar,
    maxSpanCountScalar,
    minSpanCountScalar,
    narrowSpanCountScalar,
    widenSpanCountScalar,
    spanLeqScalar,
    spanEqScalar,
    minPlusRow2Scalar,
    minPlusRow1Scalar,
    strengthenRowScalar,
};

} // namespace optoct
