//===- oct/simd_kernels_avx2.cpp - 256-bit AVX2 kernel tier --------------===//
///
/// \file
/// The AVX2 tier of the runtime-dispatched kernel table: the 256-bit
/// intrinsic bodies of the oct/simd_kernels.h table, compiled
/// with function target attributes instead of a global -mavx2, so a
/// portable (OPTOCT_NATIVE=OFF) build still carries them and
/// simd_dispatch.cpp can select them at startup on any AVX2 machine.
///
/// The widening kernel replaces the old per-lane std::lower_bound
/// resolution with a branchless descending blend over the (small,
/// sorted) threshold table: iterating thresholds from largest to
/// smallest and overwriting the accumulator whenever Thr[t] >= New
/// leaves exactly the smallest dominating threshold — the
/// std::lower_bound result — in every lane, with no per-lane branches.
/// This is what lifts dense widen_thr from ~1.8x to >3x (EXPERIMENTS.md,
/// "Closing the decomposed gap").
///
//===----------------------------------------------------------------------===//

#include "oct/simd_kernels.h"
#include "oct/value.h"

#if OPTOCT_SIMD_X86

#include <algorithm>
#include <immintrin.h>

#define OPTOCT_TARGET_AVX2 __attribute__((target("avx2")))

namespace optoct {
namespace {

/// Above this threshold-table size the O(ThrN) branchless scan loses to
/// a per-lane binary search. Analysis threshold sets are tiny (the
/// bench uses 6); this is a safety valve, not a tuning knob.
constexpr std::size_t BranchlessThrMax = 32;

/// Number of lanes of \p V holding a finite bound (!= +inf; matches
/// isFinite, which deliberately counts -inf and NaN as "finite").
OPTOCT_TARGET_AVX2
inline int finiteLanes(__m256d V) {
  __m256d Inf = _mm256_set1_pd(Infinity);
  return __builtin_popcount(
      _mm256_movemask_pd(_mm256_cmp_pd(V, Inf, _CMP_NEQ_UQ)));
}

OPTOCT_TARGET_AVX2
std::size_t maxSpanCountAvx2(double *Dst, const double *A, const double *B,
                             std::size_t Len) {
  std::size_t J = 0, Count = 0;
  for (; J + 4 <= Len; J += 4) {
    __m256d VA = _mm256_loadu_pd(A + J);
    __m256d VB = _mm256_loadu_pd(B + J);
    __m256d D = _mm256_max_pd(VA, VB);
    _mm256_storeu_pd(Dst + J, D);
    Count += finiteLanes(D);
  }
  for (; J != Len; ++J) {
    double VA = A[J], VB = B[J];
    // VB on ties, like MAXPD, so tail and vector body agree bitwise.
    double V = VA > VB ? VA : VB;
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_TARGET_AVX2
std::size_t minSpanCountAvx2(double *Dst, const double *A, const double *B,
                             std::size_t Len) {
  std::size_t J = 0, Count = 0;
  for (; J + 4 <= Len; J += 4) {
    __m256d VA = _mm256_loadu_pd(A + J);
    __m256d VB = _mm256_loadu_pd(B + J);
    __m256d D = _mm256_min_pd(VA, VB);
    _mm256_storeu_pd(Dst + J, D);
    Count += finiteLanes(D);
  }
  for (; J != Len; ++J) {
    double VA = A[J], VB = B[J];
    double V = VA < VB ? VA : VB;
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_TARGET_AVX2
std::size_t narrowSpanCountAvx2(double *Dst, const double *OldS,
                                const double *NewS, std::size_t Len) {
  std::size_t J = 0, Count = 0;
  __m256d Inf = _mm256_set1_pd(Infinity);
  for (; J + 4 <= Len; J += 4) {
    __m256d VO = _mm256_loadu_pd(OldS + J);
    __m256d VN = _mm256_loadu_pd(NewS + J);
    __m256d FiniteOld = _mm256_cmp_pd(VO, Inf, _CMP_NEQ_UQ);
    __m256d D = _mm256_blendv_pd(VN, VO, FiniteOld);
    _mm256_storeu_pd(Dst + J, D);
    Count += finiteLanes(D);
  }
  for (; J != Len; ++J) {
    double VO = OldS[J];
    double V = isFinite(VO) ? VO : NewS[J];
    Dst[J] = V;
    Count += isFinite(V);
  }
  return Count;
}

OPTOCT_TARGET_AVX2
std::size_t widenSpanCountAvx2(double *Dst, const double *OldS,
                               const double *NewS, std::size_t Len,
                               const double *Thr, std::size_t ThrN) {
  std::size_t J = 0, Count = 0;
  __m256d Inf = _mm256_set1_pd(Infinity);
  for (; J + 4 <= Len; J += 4) {
    __m256d VO = _mm256_loadu_pd(OldS + J);
    __m256d VN = _mm256_loadu_pd(NewS + J);
    __m256d Stable = _mm256_cmp_pd(VN, VO, _CMP_LE_OQ);
    __m256d D;
    if (ThrN == 0 || _mm256_movemask_pd(Stable) == 0xF) {
      D = _mm256_blendv_pd(Inf, VO, Stable);
    } else if (ThrN <= BranchlessThrMax) {
      // Branchless smallest-dominating-threshold: scan the sorted table
      // from largest to smallest, overwriting wherever Thr[T] >= New.
      // The last write per lane is the smallest such threshold — the
      // std::lower_bound result, bitwise — and lanes no threshold
      // dominates keep +inf.
      __m256d Acc = Inf;
      for (std::size_t T = ThrN; T-- != 0;) {
        __m256d Tv = _mm256_set1_pd(Thr[T]);
        Acc = _mm256_blendv_pd(Acc, Tv, _mm256_cmp_pd(Tv, VN, _CMP_GE_OQ));
      }
      D = _mm256_blendv_pd(Acc, VO, Stable);
    } else {
      // Oversized threshold table: resolve the block's lanes with the
      // scalar rule (identical to the tail below).
      for (std::size_t K = 0; K != 4; ++K) {
        double VOk = OldS[J + K], VNk = NewS[J + K];
        double V;
        if (VNk <= VOk) {
          V = VOk;
        } else {
          const double *It = std::lower_bound(Thr, Thr + ThrN, VNk);
          V = It == Thr + ThrN ? Infinity : *It;
        }
        Dst[J + K] = V;
        Count += isFinite(V);
      }
      continue;
    }
    _mm256_storeu_pd(Dst + J, D);
    Count += finiteLanes(D);
  }
  for (; J != Len; ++J) {
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

OPTOCT_TARGET_AVX2
bool spanLeqAvx2(const double *A, const double *B, std::size_t Len) {
  std::size_t J = 0;
  for (; J + 4 <= Len; J += 4) {
    __m256d VA = _mm256_loadu_pd(A + J);
    __m256d VB = _mm256_loadu_pd(B + J);
    if (_mm256_movemask_pd(_mm256_cmp_pd(VA, VB, _CMP_GT_OQ)) != 0)
      return false;
  }
  for (; J != Len; ++J)
    if (A[J] > B[J])
      return false;
  return true;
}

OPTOCT_TARGET_AVX2
bool spanEqAvx2(const double *A, const double *B, std::size_t Len) {
  std::size_t J = 0;
  for (; J + 4 <= Len; J += 4) {
    __m256d VA = _mm256_loadu_pd(A + J);
    __m256d VB = _mm256_loadu_pd(B + J);
    if (_mm256_movemask_pd(_mm256_cmp_pd(VA, VB, _CMP_NEQ_UQ)) != 0)
      return false;
  }
  for (; J != Len; ++J)
    if (A[J] != B[J])
      return false;
  return true;
}

OPTOCT_TARGET_AVX2
void minPlusRow2Avx2(double *Dst, const double *RowA, double A,
                     const double *RowB, double B, std::size_t Len) {
  std::size_t J = 0;
  __m256d VA = _mm256_set1_pd(A);
  __m256d VB = _mm256_set1_pd(B);
  for (; J + 4 <= Len; J += 4) {
    __m256d D = _mm256_loadu_pd(Dst + J);
    __m256d TA = _mm256_add_pd(VA, _mm256_loadu_pd(RowA + J));
    __m256d TB = _mm256_add_pd(VB, _mm256_loadu_pd(RowB + J));
    D = _mm256_min_pd(D, _mm256_min_pd(TA, TB));
    _mm256_storeu_pd(Dst + J, D);
  }
  for (; J != Len; ++J) {
    double T1 = A + RowA[J];
    double T2 = B + RowB[J];
    double T = T1 < T2 ? T1 : T2;
    if (T < Dst[J])
      Dst[J] = T;
  }
}

OPTOCT_TARGET_AVX2
void minPlusRow1Avx2(double *Dst, const double *RowA, double A,
                     std::size_t Len) {
  std::size_t J = 0;
  __m256d VA = _mm256_set1_pd(A);
  for (; J + 4 <= Len; J += 4) {
    __m256d D = _mm256_loadu_pd(Dst + J);
    __m256d T = _mm256_add_pd(VA, _mm256_loadu_pd(RowA + J));
    _mm256_storeu_pd(Dst + J, _mm256_min_pd(D, T));
  }
  for (; J != Len; ++J) {
    double T = A + RowA[J];
    if (T < Dst[J])
      Dst[J] = T;
  }
}

OPTOCT_TARGET_AVX2
void strengthenRowAvx2(double *Dst, const double *T, double Di,
                       std::size_t Len) {
  std::size_t J = 0;
  __m256d VD = _mm256_set1_pd(Di);
  __m256d Half = _mm256_set1_pd(0.5);
  for (; J + 4 <= Len; J += 4) {
    __m256d S = _mm256_mul_pd(_mm256_add_pd(VD, _mm256_loadu_pd(T + J)), Half);
    __m256d D = _mm256_loadu_pd(Dst + J);
    _mm256_storeu_pd(Dst + J, _mm256_min_pd(D, S));
  }
  for (; J != Len; ++J) {
    double S = (Di + T[J]) * 0.5;
    if (S < Dst[J])
      Dst[J] = S;
  }
}

} // namespace

const SpanKernels SpanKernelsAvx2 = {
    "avx2",
    maxSpanCountAvx2,
    minSpanCountAvx2,
    narrowSpanCountAvx2,
    widenSpanCountAvx2,
    spanLeqAvx2,
    spanEqAvx2,
    minPlusRow2Avx2,
    minPlusRow1Avx2,
    strengthenRowAvx2,
};

} // namespace optoct

#endif // OPTOCT_SIMD_X86
