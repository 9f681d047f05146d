//===- tests/test_simd_dispatch.cpp - Runtime SIMD tier selection ---------===//
///
/// \file
/// Covers the startup tier-selection policy of oct/simd_dispatch.h:
/// name round-trips, OPTOCT_SIMD parsing, the downgrade path for
/// unsupported requests (with its diagnostic line), the force/reset
/// hooks, and — the acceptance property for portable release builds —
/// that a binary compiled without -march=native still dispatches to a
/// vector tier at runtime on vector-capable hardware.
///
//===----------------------------------------------------------------------===//

#include "oct/simd_dispatch.h"

#include "gtest/gtest.h"

#include <string>

using namespace optoct;

namespace {

/// Restores whatever tier was active before each test, so forcing
/// tiers here can't leak into other test groups in the same process.
class SimdDispatchTest : public ::testing::Test {
protected:
  void SetUp() override { Saved = activeSimdTier(); }
  void TearDown() override { simdForceTier(Saved); }
  SimdTier Saved;
};

TEST_F(SimdDispatchTest, TierNamesRoundTrip) {
  for (SimdTier Tier :
       {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512}) {
    SimdTier Parsed = SimdTier::Scalar;
    ASSERT_TRUE(simdParseTier(simdTierName(Tier), Parsed))
        << simdTierName(Tier);
    EXPECT_EQ(Parsed, Tier);
  }
}

TEST_F(SimdDispatchTest, ParseRejectsJunk) {
  SimdTier Tier = SimdTier::Avx2;
  EXPECT_FALSE(simdParseTier("", Tier));
  EXPECT_FALSE(simdParseTier("AVX2", Tier)); // Case-sensitive, like the docs.
  EXPECT_FALSE(simdParseTier("avx", Tier));
  EXPECT_FALSE(simdParseTier("sse", Tier));
  EXPECT_FALSE(simdParseTier("avx5122", Tier));
  EXPECT_EQ(Tier, SimdTier::Avx2); // Left untouched on failure.
}

TEST_F(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(simdTierSupported(SimdTier::Scalar));
}

TEST_F(SimdDispatchTest, TiersAreMonotone) {
  // A higher tier being supported implies every lower one is: AVX-512
  // machines run the AVX2 kernels too.
  if (simdTierSupported(SimdTier::Avx512)) {
    EXPECT_TRUE(simdTierSupported(SimdTier::Avx2));
  }
  EXPECT_TRUE(simdTierSupported(simdBestTier()));
}

TEST_F(SimdDispatchTest, AutoSelectionPicksBestTier) {
  // Null and empty OPTOCT_SIMD mean "auto": the best supported tier,
  // silently.
  std::string Log;
  EXPECT_EQ(simdSelectTier(nullptr, &Log), simdBestTier());
  EXPECT_TRUE(Log.empty()) << Log;
  EXPECT_EQ(simdSelectTier("", &Log), simdBestTier());
  EXPECT_TRUE(Log.empty()) << Log;
}

TEST_F(SimdDispatchTest, ExplicitSupportedRequestIsHonoredSilently) {
  for (SimdTier Tier :
       {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512}) {
    if (!simdTierSupported(Tier))
      continue;
    std::string Log;
    EXPECT_EQ(simdSelectTier(simdTierName(Tier), &Log), Tier);
    EXPECT_TRUE(Log.empty()) << Log;
  }
}

TEST_F(SimdDispatchTest, UnsupportedRequestDowngradesAndLogs) {
  // On machines without AVX-512 an explicit avx512 request must degrade
  // to the best supported tier and say so; on AVX-512 machines the
  // request is simply honored. Either way the policy never selects an
  // unsupported tier.
  std::string Log;
  SimdTier Got = simdSelectTier("avx512", &Log);
  EXPECT_TRUE(simdTierSupported(Got));
  if (simdTierSupported(SimdTier::Avx512)) {
    EXPECT_EQ(Got, SimdTier::Avx512);
    EXPECT_TRUE(Log.empty()) << Log;
  } else {
    EXPECT_EQ(Got, simdBestTier());
    EXPECT_NE(Log.find("OPTOCT_SIMD=avx512 not supported"), std::string::npos)
        << Log;
    EXPECT_NE(Log.find(simdTierName(Got)), std::string::npos) << Log;
  }
}

TEST_F(SimdDispatchTest, UnknownValueFallsBackToAutoAndLogs) {
  std::string Log;
  EXPECT_EQ(simdSelectTier("turbo", &Log), simdBestTier());
  EXPECT_NE(Log.find("ignoring unknown OPTOCT_SIMD value"), std::string::npos)
      << Log;
}

TEST_F(SimdDispatchTest, ForceTierInstallsAndClamps) {
  for (SimdTier Tier :
       {SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512}) {
    SimdTier Got = simdForceTier(Tier);
    EXPECT_TRUE(simdTierSupported(Got));
    if (simdTierSupported(Tier)) {
      EXPECT_EQ(Got, Tier);
    }
    EXPECT_EQ(activeSimdTier(), Got);
    // The installed table must agree with the tier it claims to be.
    EXPECT_STREQ(activeSpanKernels().Name, simdTierName(Got));
  }
}

TEST_F(SimdDispatchTest, ResetReappliesStartupPolicy) {
  // Force scalar, then reset: with OPTOCT_SIMD unset in the test
  // environment this must reinstall the best tier; with it set, the
  // value it names. Either way reset == simdSelectTier(getenv(...)).
  simdForceTier(SimdTier::Scalar);
  SimdTier Got = simdResetTier();
  EXPECT_EQ(Got, activeSimdTier());
  EXPECT_TRUE(simdTierSupported(Got));
}

TEST_F(SimdDispatchTest, PortableBuildDispatchesVectorTierAtRuntime) {
  // The point of runtime dispatch: even a build without -march=native
  // (OPTOCT_NATIVE=OFF) must run vector kernels on vector-capable
  // hardware unless OPTOCT_SIMD=scalar explicitly pins it down. CI's
  // runtime-dispatch leg runs this test in exactly that configuration.
  if (simdBestTier() == SimdTier::Scalar)
    GTEST_SKIP() << "no vector ISA on this machine";
  SimdTier Got = simdResetTier();
  const char *Env = std::getenv("OPTOCT_SIMD");
  if (Env && std::string(Env) == "scalar")
    EXPECT_EQ(Got, SimdTier::Scalar);
  else
    EXPECT_NE(Got, SimdTier::Scalar);
}

TEST_F(SimdDispatchTest, AllTierTablesAreFullyPopulated) {
  // A null function pointer in a tier table would only surface when
  // that kernel first runs on matching hardware; check all slots of
  // every table up front.
  auto CheckTable = [](const SpanKernels &K) {
    EXPECT_NE(K.Name, nullptr);
    EXPECT_NE(K.MaxSpan, nullptr) << K.Name;
    EXPECT_NE(K.MinSpan, nullptr) << K.Name;
    EXPECT_NE(K.MaxSpanCount, nullptr) << K.Name;
    EXPECT_NE(K.MinSpanCount, nullptr) << K.Name;
    EXPECT_NE(K.NarrowSpanCount, nullptr) << K.Name;
    EXPECT_NE(K.WidenSpanCount, nullptr) << K.Name;
    EXPECT_NE(K.SpanLeq, nullptr) << K.Name;
    EXPECT_NE(K.SpanEq, nullptr) << K.Name;
    EXPECT_NE(K.MinPlusRow2, nullptr) << K.Name;
    EXPECT_NE(K.MinPlusRow1, nullptr) << K.Name;
    EXPECT_NE(K.StrengthenRow, nullptr) << K.Name;
  };
  CheckTable(SpanKernelsScalar);
#if OPTOCT_SIMD_X86
  CheckTable(SpanKernelsAvx2);
  CheckTable(SpanKernelsAvx512);
#endif
}

} // namespace
