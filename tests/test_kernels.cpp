//===- tests/test_kernels.cpp - SIMD kernel table tests -------------------===//
///
/// \file
/// Per-tier parity for every entry of the kernel table
/// (oct/simd_kernels.h): each kernel runs under every SIMD tier this
/// machine supports (forced through simdForceTier) on random data with
/// infinities, across lengths that exercise the 4-wide (AVX2) and
/// 8-wide (AVX-512) bodies and their tails, and must produce outputs,
/// early-exit verdicts and finite counts bitwise identical to the
/// pinned-scalar table SpanKernelsScalar. The scalar table is in turn
/// checked against the direct definition of each kernel.
///
/// KernelTest covers the closure/strengthening min-plus family,
/// SpanKernelTest the lattice-operator span kernels. The operators
/// built on them are checked against the APRON-style baseline under
/// every tier in tests/test_differential.cpp.
///
//===----------------------------------------------------------------------===//

#include "oct_test_util.h"

#include "oct/simd_kernels.h"
#include "oct/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace optoct;
using optoct::test::forEachSimdTier;

namespace {

std::vector<double> randomSpan(Rng &R, std::size_t Len, double InfProb) {
  std::vector<double> S(Len);
  for (double &V : S)
    V = R.chance(InfProb) ? Infinity : R.intIn(-20, 20);
  return S;
}

std::size_t countFinite(const std::vector<double> &S) {
  std::size_t N = 0;
  for (double V : S)
    N += isFinite(V);
  return N;
}

//===----------------------------------------------------------------------===//
// Closure/strengthening min-plus kernels.
//===----------------------------------------------------------------------===//

class KernelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelTest, MinPlusRow2MatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 7 + 1);
  std::vector<double> Dst = randomSpan(R, Len, 0.3);
  std::vector<double> RowA = randomSpan(R, Len, 0.3);
  std::vector<double> RowB = randomSpan(R, Len, 0.3);
  double A = R.chance(0.2) ? Infinity : R.intIn(-10, 10);
  double B = R.chance(0.2) ? Infinity : R.intIn(-10, 10);

  std::vector<double> ScalarOut = Dst;
  SpanKernelsScalar.MinPlusRow2(ScalarOut.data(), RowA.data(), A, RowB.data(),
                                B, Len);
  for (std::size_t I = 0; I != Len; ++I)
    EXPECT_EQ(ScalarOut[I], std::min({Dst[I], A + RowA[I], B + RowB[I]}));
  forEachSimdTier([&](SimdTier Tier) {
    std::vector<double> Out = Dst;
    activeSpanKernels().MinPlusRow2(Out.data(), RowA.data(), A, RowB.data(),
                                    B, Len);
    EXPECT_EQ(Out, ScalarOut) << simdTierName(Tier);
  });
}

TEST_P(KernelTest, MinPlusRow1MatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 7 + 2);
  std::vector<double> Dst = randomSpan(R, Len, 0.3);
  std::vector<double> RowA = randomSpan(R, Len, 0.3);
  double A = R.intIn(-10, 10);

  std::vector<double> ScalarOut = Dst;
  SpanKernelsScalar.MinPlusRow1(ScalarOut.data(), RowA.data(), A, Len);
  for (std::size_t I = 0; I != Len; ++I)
    EXPECT_EQ(ScalarOut[I], std::min(Dst[I], A + RowA[I]));
  forEachSimdTier([&](SimdTier Tier) {
    std::vector<double> Out = Dst;
    activeSpanKernels().MinPlusRow1(Out.data(), RowA.data(), A, Len);
    EXPECT_EQ(Out, ScalarOut) << simdTierName(Tier);
  });
}

TEST_P(KernelTest, StrengthenRowMatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 7 + 3);
  std::vector<double> Dst = randomSpan(R, Len, 0.3);
  std::vector<double> T = randomSpan(R, Len, 0.4);
  double Di = R.chance(0.3) ? Infinity : R.intIn(-10, 10);

  std::vector<double> ScalarOut = Dst;
  SpanKernelsScalar.StrengthenRow(ScalarOut.data(), T.data(), Di, Len);
  for (std::size_t I = 0; I != Len; ++I)
    EXPECT_EQ(ScalarOut[I], std::min(Dst[I], (Di + T[I]) * 0.5));
  forEachSimdTier([&](SimdTier Tier) {
    std::vector<double> Out = Dst;
    activeSpanKernels().StrengthenRow(Out.data(), T.data(), Di, Len);
    EXPECT_EQ(Out, ScalarOut) << simdTierName(Tier);
  });
}

// Lengths straddling the vector bodies: empty, sub-vector, exact
// multiples, and multiples plus remainders.
INSTANTIATE_TEST_SUITE_P(Lengths, KernelTest,
                         ::testing::Values(0u, 1u, 3u, 4u, 5u, 8u, 15u, 16u,
                                           17u, 64u, 127u));

//===----------------------------------------------------------------------===//
// Lattice-operator span kernels.
//===----------------------------------------------------------------------===//

class SpanKernelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpanKernelTest, MaxMinSpanMatchScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 1);
  std::vector<double> A = randomSpan(R, Len, 0.3);
  std::vector<double> B = randomSpan(R, Len, 0.3);

  std::vector<double> ScalarMax(Len), ScalarMin(Len);
  SpanKernelsScalar.MaxSpan(ScalarMax.data(), A.data(), B.data(), Len);
  SpanKernelsScalar.MinSpan(ScalarMin.data(), A.data(), B.data(), Len);
  for (std::size_t I = 0; I != Len; ++I) {
    EXPECT_EQ(ScalarMax[I], std::max(A[I], B[I]));
    EXPECT_EQ(ScalarMin[I], std::min(A[I], B[I]));
  }
  forEachSimdTier([&](SimdTier Tier) {
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> Max(Len), Min(Len);
    K.MaxSpan(Max.data(), A.data(), B.data(), Len);
    K.MinSpan(Min.data(), A.data(), B.data(), Len);
    EXPECT_EQ(Max, ScalarMax) << simdTierName(Tier);
    EXPECT_EQ(Min, ScalarMin) << simdTierName(Tier);
  });
}

TEST_P(SpanKernelTest, MaxMinSpanCountMatchScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 2);
  std::vector<double> A = randomSpan(R, Len, 0.4);
  std::vector<double> B = randomSpan(R, Len, 0.4);

  std::vector<double> ScalarMax(Len), ScalarMin(Len);
  std::size_t ScalarMaxN =
      SpanKernelsScalar.MaxSpanCount(ScalarMax.data(), A.data(), B.data(), Len);
  std::size_t ScalarMinN =
      SpanKernelsScalar.MinSpanCount(ScalarMin.data(), A.data(), B.data(), Len);
  EXPECT_EQ(ScalarMaxN, countFinite(ScalarMax));
  EXPECT_EQ(ScalarMinN, countFinite(ScalarMin));
  forEachSimdTier([&](SimdTier Tier) {
    const SpanKernels &K = activeSpanKernels();
    std::vector<double> Max(Len), Min(Len);
    EXPECT_EQ(K.MaxSpanCount(Max.data(), A.data(), B.data(), Len), ScalarMaxN)
        << simdTierName(Tier);
    EXPECT_EQ(K.MinSpanCount(Min.data(), A.data(), B.data(), Len), ScalarMinN)
        << simdTierName(Tier);
    EXPECT_EQ(Max, ScalarMax) << simdTierName(Tier);
    EXPECT_EQ(Min, ScalarMin) << simdTierName(Tier);
  });
}

TEST_P(SpanKernelTest, NarrowSpanCountMatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 3);
  // High infinity probability in Old so the select actually picks from
  // New on many lanes.
  std::vector<double> Old = randomSpan(R, Len, 0.6);
  std::vector<double> New = randomSpan(R, Len, 0.3);

  std::vector<double> ScalarOut(Len);
  std::size_t ScalarN = SpanKernelsScalar.NarrowSpanCount(
      ScalarOut.data(), Old.data(), New.data(), Len);
  for (std::size_t I = 0; I != Len; ++I)
    EXPECT_EQ(ScalarOut[I], isFinite(Old[I]) ? Old[I] : New[I]);
  EXPECT_EQ(ScalarN, countFinite(ScalarOut));
  forEachSimdTier([&](SimdTier Tier) {
    std::vector<double> Out(Len);
    EXPECT_EQ(activeSpanKernels().NarrowSpanCount(Out.data(), Old.data(),
                                                  New.data(), Len),
              ScalarN)
        << simdTierName(Tier);
    EXPECT_EQ(Out, ScalarOut) << simdTierName(Tier);
  });
}

/// Widening against \p Thresholds: the scalar table must match the
/// std::lower_bound definition, and every tier the scalar table.
void checkWidenSpan(std::size_t Len, Rng &R,
                    const std::vector<double> &Thresholds, std::size_t ThrN) {
  std::vector<double> Old = randomSpan(R, Len, 0.3);
  std::vector<double> New = randomSpan(R, Len, 0.3);

  std::vector<double> ScalarOut(Len);
  std::size_t ScalarN =
      SpanKernelsScalar.WidenSpanCount(ScalarOut.data(), Old.data(), New.data(),
                                       Len, Thresholds.data(), ThrN);
  for (std::size_t I = 0; I != Len; ++I) {
    double Expect = Old[I];
    if (New[I] > Old[I]) {
      auto It = std::lower_bound(Thresholds.begin(),
                                 Thresholds.begin() + ThrN, New[I]);
      Expect = It == Thresholds.begin() + ThrN ? Infinity : *It;
    }
    EXPECT_EQ(ScalarOut[I], Expect) << "ThrN=" << ThrN << " at " << I;
  }
  EXPECT_EQ(ScalarN, countFinite(ScalarOut));
  forEachSimdTier([&](SimdTier Tier) {
    std::vector<double> Out(Len);
    EXPECT_EQ(activeSpanKernels().WidenSpanCount(Out.data(), Old.data(),
                                                 New.data(), Len,
                                                 Thresholds.data(), ThrN),
              ScalarN)
        << simdTierName(Tier) << " ThrN=" << ThrN;
    EXPECT_EQ(Out, ScalarOut) << simdTierName(Tier) << " ThrN=" << ThrN;
  });
}

TEST_P(SpanKernelTest, WidenSpanCountMatchesScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 4);
  // Bounds in [-20, 20]; thresholds interleaved so lower_bound exercises
  // hits, in-between values, and past-the-end (-> +inf).
  const std::vector<double> Thresholds = {-8.0, -2.0, 0.0, 3.0, 7.0, 15.0};
  checkWidenSpan(Len, R, Thresholds, 0);
  checkWidenSpan(Len, R, Thresholds, Thresholds.size());
}

/// Wide threshold tables (> BranchlessThrMax = 32 entries) push the
/// vector tiers off the branchless blend scan onto their per-lane
/// lower_bound fallback; both flavors must agree with scalar bitwise.
TEST_P(SpanKernelTest, WidenSpanCountWideThresholdTable) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 6);
  std::vector<double> Thresholds;
  for (int T = -40; T <= 40; T += 2) // 41 sorted entries > 32.
    Thresholds.push_back(T);
  checkWidenSpan(Len, R, Thresholds, Thresholds.size());
}

TEST_P(SpanKernelTest, LeqEqPredicatesMatchScalar) {
  std::size_t Len = GetParam();
  Rng R(Len * 13 + 5);
  std::vector<double> A = randomSpan(R, Len, 0.3);

  // Candidate comparands: equal; pointwise >= (leq holds); a violation
  // planted at the front, the middle, and the back of the span.
  std::vector<std::vector<double>> Others;
  Others.push_back(A);
  std::vector<double> Dominating = A;
  for (double &V : Dominating)
    if (isFinite(V) && R.chance(0.5))
      V += R.intIn(0, 5);
  Others.push_back(Dominating);
  for (std::size_t Pos : {std::size_t{0}, Len / 2, Len - 1}) {
    if (Len == 0)
      break;
    std::vector<double> Violating = Dominating;
    Violating[Pos] = isFinite(A[Pos]) ? A[Pos] - 1 : 100;
    Others.push_back(Violating);
  }

  for (const std::vector<double> &B : Others) {
    bool ScalarLeq = SpanKernelsScalar.SpanLeq(A.data(), B.data(), Len);
    bool ScalarEq = SpanKernelsScalar.SpanEq(A.data(), B.data(), Len);
    // Semantic cross-check against the direct definition.
    bool RefLeq = true, RefEq = true;
    for (std::size_t I = 0; I != Len; ++I) {
      RefLeq &= !(A[I] > B[I]);
      RefEq &= A[I] == B[I];
    }
    EXPECT_EQ(ScalarLeq, RefLeq);
    EXPECT_EQ(ScalarEq, RefEq);
    forEachSimdTier([&](SimdTier Tier) {
      const SpanKernels &K = activeSpanKernels();
      EXPECT_EQ(K.SpanLeq(A.data(), B.data(), Len), ScalarLeq)
          << simdTierName(Tier);
      EXPECT_EQ(K.SpanEq(A.data(), B.data(), Len), ScalarEq)
          << simdTierName(Tier);
    });
  }
}

// Lengths straddling both the 4-wide (AVX2) and 8-wide (AVX-512) vector
// bodies: empty, sub-vector, exact multiples, and multiples plus
// remainders.
INSTANTIATE_TEST_SUITE_P(Lengths, SpanKernelTest,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u,
                                           15u, 16u, 31u, 33u, 64u, 130u));

} // namespace
