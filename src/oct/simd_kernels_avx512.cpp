//===- oct/simd_kernels_avx512.cpp - 512-bit AVX-512 kernel tier ---------===//
///
/// \file
/// The AVX-512 tier of the runtime-dispatched kernel table: 8-lane
/// variants of every kernel, with masked loads/stores for the span
/// tails so no scalar epilogue is needed. Compiled with function target
/// attributes (avx512f/dq/bw/vl) so the portable binary carries this
/// tier too; simd_dispatch.cpp only selects it when the CPU *and* OS
/// support the full feature set.
///
/// Bitwise contract: VMAXPD/VMINPD/compare semantics at 512 bits are
/// identical to the 256-bit forms (second operand on ties / NaN), the
/// widening threshold scan is the same descending masked-blend as the
/// AVX2 tier, and there is no FMA contraction — so this tier's outputs
/// and finite counts match the scalar tier exactly
/// (tests/test_simd_dispatch.cpp sweeps all tiers on the same inputs).
///
/// Masked-tail rule: loads are maskz (masked-out lanes read +0.0), every
/// predicate/count is taken *through the tail mask*, and stores are
/// masked — so garbage lanes can neither fabricate a violation nor leak
/// into Dst or the counts.
///
//===----------------------------------------------------------------------===//

#include "oct/simd_kernels.h"
#include "oct/value.h"

#if OPTOCT_SIMD_X86

#include <algorithm>
#include <immintrin.h>

#define OPTOCT_TARGET_AVX512                                                   \
  __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl")))

namespace optoct {
namespace {

constexpr std::size_t BranchlessThrMax = 32; // see simd_kernels_avx2.cpp

OPTOCT_TARGET_AVX512
inline __mmask8 tailMask(std::size_t Rem) {
  return static_cast<__mmask8>((1u << Rem) - 1u);
}

OPTOCT_TARGET_AVX512
inline int finiteLanes512(__m512d V, __mmask8 M) {
  __m512d Inf = _mm512_set1_pd(Infinity);
  return __builtin_popcount(M & _mm512_cmp_pd_mask(V, Inf, _CMP_NEQ_UQ));
}

OPTOCT_TARGET_AVX512
std::size_t maxSpanCountAvx512(double *Dst, const double *A, const double *B,
                               std::size_t Len) {
  std::size_t J = 0, Count = 0;
  for (; J + 8 <= Len; J += 8) {
    __m512d D = _mm512_max_pd(_mm512_loadu_pd(A + J), _mm512_loadu_pd(B + J));
    _mm512_storeu_pd(Dst + J, D);
    Count += finiteLanes512(D, 0xFF);
  }
  if (J != Len) {
    __mmask8 M = tailMask(Len - J);
    __m512d D = _mm512_max_pd(_mm512_maskz_loadu_pd(M, A + J),
                              _mm512_maskz_loadu_pd(M, B + J));
    _mm512_mask_storeu_pd(Dst + J, M, D);
    Count += finiteLanes512(D, M);
  }
  return Count;
}

OPTOCT_TARGET_AVX512
std::size_t minSpanCountAvx512(double *Dst, const double *A, const double *B,
                               std::size_t Len) {
  std::size_t J = 0, Count = 0;
  for (; J + 8 <= Len; J += 8) {
    __m512d D = _mm512_min_pd(_mm512_loadu_pd(A + J), _mm512_loadu_pd(B + J));
    _mm512_storeu_pd(Dst + J, D);
    Count += finiteLanes512(D, 0xFF);
  }
  if (J != Len) {
    __mmask8 M = tailMask(Len - J);
    __m512d D = _mm512_min_pd(_mm512_maskz_loadu_pd(M, A + J),
                              _mm512_maskz_loadu_pd(M, B + J));
    _mm512_mask_storeu_pd(Dst + J, M, D);
    Count += finiteLanes512(D, M);
  }
  return Count;
}

OPTOCT_TARGET_AVX512
std::size_t narrowSpanCountAvx512(double *Dst, const double *OldS,
                                  const double *NewS, std::size_t Len) {
  std::size_t J = 0, Count = 0;
  __m512d Inf = _mm512_set1_pd(Infinity);
  for (; J + 8 <= Len; J += 8) {
    __m512d VO = _mm512_loadu_pd(OldS + J);
    __m512d VN = _mm512_loadu_pd(NewS + J);
    __mmask8 FiniteOld = _mm512_cmp_pd_mask(VO, Inf, _CMP_NEQ_UQ);
    __m512d D = _mm512_mask_blend_pd(FiniteOld, VN, VO);
    _mm512_storeu_pd(Dst + J, D);
    Count += finiteLanes512(D, 0xFF);
  }
  if (J != Len) {
    __mmask8 M = tailMask(Len - J);
    __m512d VO = _mm512_maskz_loadu_pd(M, OldS + J);
    __m512d VN = _mm512_maskz_loadu_pd(M, NewS + J);
    __mmask8 FiniteOld = _mm512_cmp_pd_mask(VO, Inf, _CMP_NEQ_UQ);
    __m512d D = _mm512_mask_blend_pd(FiniteOld, VN, VO);
    _mm512_mask_storeu_pd(Dst + J, M, D);
    Count += finiteLanes512(D, M);
  }
  return Count;
}

OPTOCT_TARGET_AVX512
std::size_t widenSpanCountAvx512(double *Dst, const double *OldS,
                                 const double *NewS, std::size_t Len,
                                 const double *Thr, std::size_t ThrN) {
  std::size_t J = 0, Count = 0;
  __m512d Inf = _mm512_set1_pd(Infinity);
  while (J != Len) {
    std::size_t Rem = Len - J;
    __mmask8 M = Rem >= 8 ? static_cast<__mmask8>(0xFF) : tailMask(Rem);
    __m512d VO = _mm512_maskz_loadu_pd(M, OldS + J);
    __m512d VN = _mm512_maskz_loadu_pd(M, NewS + J);
    // Masked-out lanes read +0.0 on both sides and therefore register as
    // stable; every later step is taken through M anyway.
    __mmask8 Stable = _mm512_cmp_pd_mask(VN, VO, _CMP_LE_OQ);
    __m512d D;
    if (ThrN == 0 || (Stable & M) == M) {
      D = _mm512_mask_blend_pd(Stable, Inf, VO);
    } else if (ThrN <= BranchlessThrMax) {
      // Same descending branchless scan as the AVX2 tier: the last
      // overwrite per lane is the smallest Thr[T] >= New — bitwise the
      // std::lower_bound result.
      __m512d Acc = Inf;
      for (std::size_t T = ThrN; T-- != 0;) {
        __m512d Tv = _mm512_set1_pd(Thr[T]);
        Acc = _mm512_mask_blend_pd(_mm512_cmp_pd_mask(Tv, VN, _CMP_GE_OQ),
                                   Acc, Tv);
      }
      D = _mm512_mask_blend_pd(Stable, Acc, VO);
    } else {
      // Oversized threshold table: per-lane scalar rule.
      double Tmp[8];
      for (std::size_t K = 0; K != 8; ++K) {
        if (!(M & (1u << K))) {
          Tmp[K] = Infinity;
          continue;
        }
        double VOk = OldS[J + K], VNk = NewS[J + K];
        if (VNk <= VOk) {
          Tmp[K] = VOk;
        } else {
          const double *It = std::lower_bound(Thr, Thr + ThrN, VNk);
          Tmp[K] = It == Thr + ThrN ? Infinity : *It;
        }
      }
      D = _mm512_loadu_pd(Tmp);
    }
    _mm512_mask_storeu_pd(Dst + J, M, D);
    Count += finiteLanes512(D, M);
    J += Rem >= 8 ? 8 : Rem;
  }
  return Count;
}

OPTOCT_TARGET_AVX512
bool spanLeqAvx512(const double *A, const double *B, std::size_t Len) {
  std::size_t J = 0;
  for (; J + 8 <= Len; J += 8) {
    __m512d VA = _mm512_loadu_pd(A + J);
    __m512d VB = _mm512_loadu_pd(B + J);
    if (_mm512_cmp_pd_mask(VA, VB, _CMP_GT_OQ) != 0)
      return false;
  }
  if (J != Len) {
    __mmask8 M = tailMask(Len - J);
    __m512d VA = _mm512_maskz_loadu_pd(M, A + J);
    __m512d VB = _mm512_maskz_loadu_pd(M, B + J);
    if (_mm512_mask_cmp_pd_mask(M, VA, VB, _CMP_GT_OQ) != 0)
      return false;
  }
  return true;
}

OPTOCT_TARGET_AVX512
bool spanEqAvx512(const double *A, const double *B, std::size_t Len) {
  std::size_t J = 0;
  for (; J + 8 <= Len; J += 8) {
    __m512d VA = _mm512_loadu_pd(A + J);
    __m512d VB = _mm512_loadu_pd(B + J);
    if (_mm512_cmp_pd_mask(VA, VB, _CMP_NEQ_UQ) != 0)
      return false;
  }
  if (J != Len) {
    __mmask8 M = tailMask(Len - J);
    __m512d VA = _mm512_maskz_loadu_pd(M, A + J);
    __m512d VB = _mm512_maskz_loadu_pd(M, B + J);
    if (_mm512_mask_cmp_pd_mask(M, VA, VB, _CMP_NEQ_UQ) != 0)
      return false;
  }
  return true;
}

OPTOCT_TARGET_AVX512
void minPlusRow2Avx512(double *Dst, const double *RowA, double A,
                       const double *RowB, double B, std::size_t Len) {
  std::size_t J = 0;
  __m512d VA = _mm512_set1_pd(A);
  __m512d VB = _mm512_set1_pd(B);
  for (; J + 8 <= Len; J += 8) {
    __m512d D = _mm512_loadu_pd(Dst + J);
    __m512d TA = _mm512_add_pd(VA, _mm512_loadu_pd(RowA + J));
    __m512d TB = _mm512_add_pd(VB, _mm512_loadu_pd(RowB + J));
    D = _mm512_min_pd(D, _mm512_min_pd(TA, TB));
    _mm512_storeu_pd(Dst + J, D);
  }
  for (; J != Len; ++J) {
    double T1 = A + RowA[J];
    double T2 = B + RowB[J];
    double T = T1 < T2 ? T1 : T2;
    if (T < Dst[J])
      Dst[J] = T;
  }
}

OPTOCT_TARGET_AVX512
void minPlusRow1Avx512(double *Dst, const double *RowA, double A,
                       std::size_t Len) {
  std::size_t J = 0;
  __m512d VA = _mm512_set1_pd(A);
  for (; J + 8 <= Len; J += 8) {
    __m512d D = _mm512_loadu_pd(Dst + J);
    __m512d T = _mm512_add_pd(VA, _mm512_loadu_pd(RowA + J));
    _mm512_storeu_pd(Dst + J, _mm512_min_pd(D, T));
  }
  for (; J != Len; ++J) {
    double T = A + RowA[J];
    if (T < Dst[J])
      Dst[J] = T;
  }
}

OPTOCT_TARGET_AVX512
void strengthenRowAvx512(double *Dst, const double *T, double Di,
                         std::size_t Len) {
  std::size_t J = 0;
  __m512d VD = _mm512_set1_pd(Di);
  __m512d Half = _mm512_set1_pd(0.5);
  for (; J + 8 <= Len; J += 8) {
    __m512d S = _mm512_mul_pd(_mm512_add_pd(VD, _mm512_loadu_pd(T + J)), Half);
    __m512d D = _mm512_loadu_pd(Dst + J);
    _mm512_storeu_pd(Dst + J, _mm512_min_pd(D, S));
  }
  for (; J != Len; ++J) {
    double S = (Di + T[J]) * 0.5;
    if (S < Dst[J])
      Dst[J] = S;
  }
}

} // namespace

const SpanKernels SpanKernelsAvx512 = {
    "avx512",
    maxSpanCountAvx512,
    minSpanCountAvx512,
    narrowSpanCountAvx512,
    widenSpanCountAvx512,
    spanLeqAvx512,
    spanEqAvx512,
    minPlusRow2Avx512,
    minPlusRow1Avx512,
    strengthenRowAvx512,
};

} // namespace optoct

#endif // OPTOCT_SIMD_X86
