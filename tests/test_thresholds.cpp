//===- tests/test_thresholds.cpp - Threshold widening tests ----------------===//

#include "oct_test_util.h"

#include "analysis/engine.h"

#include "baseline/apron_octagon.h"
#include "itv/interval_domain.h"
#include "lang/parser.h"
#include "oct/octagon.h"

#include <gtest/gtest.h>

using namespace optoct;
using optoct::test::forEachSimdTier;

namespace {

TEST(ThresholdWidening, OctagonLandsOnThreshold) {
  Octagon A(1);
  A.addConstraint(OctCons::upper(0, 2.0));
  A.addConstraint(OctCons::lower(0, 0.0));
  Octagon B(1);
  B.addConstraint(OctCons::upper(0, 5.0));
  B.addConstraint(OctCons::lower(0, 0.0));
  Octagon W = Octagon::widenWithThresholds(A, B, {10.0, 100.0});
  EXPECT_EQ(W.bounds(0).Hi, 10.0); // lands on 10, not +inf
  EXPECT_EQ(W.bounds(0).Lo, 0.0);
  // A value beyond every threshold still widens to infinity.
  Octagon C(1);
  C.addConstraint(OctCons::upper(0, 500.0));
  Octagon W2 = Octagon::widenWithThresholds(A, C, {10.0, 100.0});
  EXPECT_EQ(W2.bounds(0).Hi, Infinity);
}

TEST(ThresholdWidening, EmptyThresholdsIsPlainWidening) {
  Octagon A(1), B(1);
  A.addConstraint(OctCons::upper(0, 2.0));
  B.addConstraint(OctCons::upper(0, 5.0));
  Octagon W1 = Octagon::widenWithThresholds(A, B, {});
  Octagon A2(1), B2(1);
  A2.addConstraint(OctCons::upper(0, 2.0));
  B2.addConstraint(OctCons::upper(0, 5.0));
  Octagon W2 = Octagon::widen(A2, B2);
  EXPECT_TRUE(W1.equals(W2));
}

TEST(ThresholdWidening, BinaryEntriesUseThresholdToo) {
  Octagon A(2), B(2);
  A.addConstraint(OctCons::diff(0, 1, 1.0));
  B.addConstraint(OctCons::diff(0, 1, 4.0));
  Octagon W = Octagon::widenWithThresholds(A, B, {8.0});
  EXPECT_EQ(W.boundOf(OctCons::diff(0, 1, 0)), 8.0);
}

TEST(ThresholdWidening, IntervalDomainBothEnds) {
  itv::IntervalDomain A(1), B(1);
  A.addConstraint(OctCons::upper(0, 1.0));
  A.addConstraint(OctCons::lower(0, 1.0)); // v0 >= -1
  B.addConstraint(OctCons::upper(0, 7.0));
  B.addConstraint(OctCons::lower(0, 7.0)); // v0 >= -7
  itv::IntervalDomain W =
      itv::IntervalDomain::widenWithThresholds(A, B, {10.0, 50.0});
  EXPECT_EQ(W.bounds(0).Hi, 10.0);
  EXPECT_EQ(W.bounds(0).Lo, -10.0);
}

TEST(ThresholdWidening, RecoversLoopBoundWithoutNarrowing) {
  const char *Source = "var x;\n"
                       "x = 0;\n"
                       "while (x < 100) {\n"
                       "  x = x + 1;\n"
                       "}\n"
                       "assert(x <= 100);\n";
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);

  analysis::AnalysisOptions NoHelp;
  NoHelp.NarrowingPasses = 0;
  auto Plain = analysis::analyze<Octagon>(G, NoHelp);
  EXPECT_EQ(Plain.assertsProven(), 0u); // widened to +inf, no narrowing

  analysis::AnalysisOptions WithThresholds = NoHelp;
  WithThresholds.WideningThresholds = {100.0, 1000.0};
  auto Helped = analysis::analyze<Octagon>(G, WithThresholds);
  EXPECT_EQ(Helped.assertsProven(), 1u); // lands on 100 and stabilizes
}

TEST(ThresholdWidening, LibrariesAgreeUnderThresholds) {
  const char *Source = "var x, y;\n"
                       "x = 0; y = 0;\n"
                       "while (x < 37) { x = x + 1; y = y + 1; }\n"
                       "assert(x == y);\n"
                       "assert(x <= 64);\n";
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);
  analysis::AnalysisOptions Opts;
  Opts.NarrowingPasses = 0;
  Opts.WideningThresholds = {64.0};
  auto Opt = analysis::analyze<Octagon>(G, Opts);
  auto Ref = analysis::analyze<baseline::ApronOctagon>(G, Opts);
  ASSERT_EQ(Opt.Asserts.size(), Ref.Asserts.size());
  for (std::size_t I = 0; I != Opt.Asserts.size(); ++I)
    EXPECT_EQ(Opt.Asserts[I].Proven, Ref.Asserts[I].Proven);
  EXPECT_EQ(Opt.assertsProven(), 2u);
}

TEST(ThresholdWidening, StillTerminatesOnDivergentLoops) {
  // The loop grows without bound; thresholds are exhausted and the
  // bound must reach +inf in finitely many steps.
  const char *Source = "var x;\n"
                       "x = 0;\n"
                       "while (*) { x = x + 3; }\n"
                       "assert(x >= 0);\n";
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);
  analysis::AnalysisOptions Opts;
  Opts.WideningThresholds = {1.0, 2.0, 4.0, 8.0, 16.0};
  auto R = analysis::analyze<Octagon>(G, Opts);
  EXPECT_EQ(R.assertsProven(), 1u);
  EXPECT_LT(R.BlockVisits, 100u);
}

//===----------------------------------------------------------------------===//
// Entry-level semantics, under every SIMD tier.
//===----------------------------------------------------------------------===//

TEST(WidenThresholdsSemantics, UnaryBoundsUseDoubledThresholds) {
  forEachSimdTier([](SimdTier Tier) {
    unsigned N = 2;
    Octagon Old(N), New(N);
    Old.addConstraint(OctCons::upper(0, 5));
    New.addConstraint(OctCons::upper(0, 7));
    // Variable-level thresholds {6, 10}: x0's bound grew 5 -> 7, so it
    // jumps to the smallest dominating threshold 10. The DBM entry
    // encodes 2x the bound, so the kernel must search the *doubled* set
    // {12, 20} with the raw entry 14 — searching the undoubled set
    // would wrongly return 6 at entry level (bound 3, unsound).
    Octagon W = Octagon::widenWithThresholds(Old, New, {6.0, 10.0});
    EXPECT_EQ(W.boundOf(OctCons::upper(0, 0)), 20.0) << simdTierName(Tier);
  });
}

TEST(WidenThresholdsSemantics, BinaryBoundsUseRawThresholds) {
  forEachSimdTier([](SimdTier Tier) {
    unsigned N = 2;
    Octagon Old(N), New(N);
    Old.addConstraint(OctCons::diff(0, 1, 3));
    New.addConstraint(OctCons::diff(0, 1, 4));
    // x0 - x1 grew 3 -> 4: jumps to threshold 6 (raw, not doubled).
    Octagon W = Octagon::widenWithThresholds(Old, New, {6.0, 10.0});
    EXPECT_EQ(W.boundOf(OctCons::diff(0, 1, 0)), 6.0) << simdTierName(Tier);

    // Stable bounds survive unchanged even with thresholds present.
    Octagon Old2(N), New2(N);
    Old2.addConstraint(OctCons::diff(0, 1, 4));
    New2.addConstraint(OctCons::diff(0, 1, 3));
    Octagon W2 = Octagon::widenWithThresholds(Old2, New2, {6.0, 10.0});
    EXPECT_EQ(W2.boundOf(OctCons::diff(0, 1, 0)), 4.0) << simdTierName(Tier);
  });
}

} // namespace
