//===- tests/test_workloads.cpp - Workload generator tests -----------------===//

#include "workloads/workload.h"

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "cfg/cfg.h"
#include "lang/parser.h"
#include "oct/octagon.h"
#include "workloads/harness.h"

#include <gtest/gtest.h>

using namespace optoct;
using namespace optoct::workloads;

namespace {

TEST(Workloads, SeventeenBenchmarks) {
  const auto &All = paperBenchmarks();
  ASSERT_EQ(All.size(), 17u);
  // Names and paper stats are the Table 2 rows.
  EXPECT_EQ(All.front().Name, "Prob6_00_f");
  EXPECT_EQ(All.back().Name, "firefox");
  const WorkloadSpec *Crypt = findBenchmark("crypt");
  ASSERT_NE(Crypt, nullptr);
  EXPECT_EQ(Crypt->PaperClosures, 861u);
  EXPECT_EQ(Crypt->PaperNMax, 237u);
  EXPECT_EQ(findBenchmark("no_such_benchmark"), nullptr);
}

TEST(Workloads, GenerationIsDeterministic) {
  const WorkloadSpec *S = findBenchmark("series");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(generateProgram(*S), generateProgram(*S));
}

TEST(Workloads, AllBenchmarksParseAndBuild) {
  for (const WorkloadSpec &Spec : paperBenchmarks()) {
    std::string Source = generateProgram(Spec);
    std::string Error;
    auto P = lang::parseProgram(Source, Error);
    ASSERT_TRUE(P) << Spec.Name << ": " << Error;
    EXPECT_EQ(P->MaxSlots, Spec.Groups * Spec.GroupSize + Spec.ScopeVars)
        << Spec.Name;
    cfg::Cfg G = cfg::Cfg::build(*P);
    EXPECT_GT(G.size(), 1u) << Spec.Name;
  }
}

/// Analyzing a small benchmark under both libraries must produce the
/// same invariants — the drop-in-replacement property, end to end on a
/// generated workload.
class WorkloadEquivalence : public ::testing::TestWithParam<const char *> {};

TEST_P(WorkloadEquivalence, LibrariesAgree) {
  const WorkloadSpec *Spec = findBenchmark(GetParam());
  ASSERT_NE(Spec, nullptr);
  std::string Source = generateProgram(*Spec);
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);
  auto Opt = analysis::analyze<Octagon>(G);
  auto Ref = analysis::analyze<baseline::ApronOctagon>(G);
  ASSERT_EQ(Opt.Asserts.size(), Ref.Asserts.size());
  for (std::size_t I = 0; I != Opt.Asserts.size(); ++I)
    EXPECT_EQ(Opt.Asserts[I].Proven, Ref.Asserts[I].Proven);
  for (unsigned B = 0; B != G.size(); ++B) {
    ASSERT_EQ(Opt.BlockInvariant[B].has_value(),
              Ref.BlockInvariant[B].has_value())
        << "block " << B;
    if (!Opt.BlockInvariant[B])
      continue;
    Octagon &O = *Opt.BlockInvariant[B];
    baseline::ApronOctagon &A = *Ref.BlockInvariant[B];
    O.close();
    A.close();
    ASSERT_EQ(O.isBottom(), A.isBottom()) << "block " << B;
    if (O.isBottom())
      continue;
    for (unsigned I = 0; I != 2 * O.numVars(); ++I)
      for (unsigned J = 0; J <= (I | 1u); ++J)
        ASSERT_EQ(O.entry(I, J), A.entry(I, J))
            << "block " << B << " (" << I << "," << J << ")";
    EXPECT_EQ(O.str(), A.str()) << "block " << B;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, WorkloadEquivalence,
                         ::testing::Values("series", "matmult", "lufact",
                                           "sor", "firefox"));

TEST(Harness, RunWorkloadCollectsStats) {
  const WorkloadSpec *Spec = findBenchmark("series");
  ASSERT_NE(Spec, nullptr);
  RunResult R = runWorkload(*Spec, Library::OptOctagon, true);
  EXPECT_GT(R.NumClosures, 0u);
  EXPECT_GT(R.ClosureCycles, 0u);
  EXPECT_GE(R.OctagonCycles, R.ClosureCycles / 2); // closures included
  EXPECT_EQ(R.Trace.size(), R.NumClosures);
  EXPECT_GE(R.NMax, R.NMin);
  EXPECT_EQ(R.NMin, Spec->Groups * Spec->GroupSize);
  EXPECT_EQ(R.NMax, Spec->Groups * Spec->GroupSize + Spec->ScopeVars);
}

TEST(Harness, ApronAndFWAgreeOnAsserts) {
  const WorkloadSpec *Spec = findBenchmark("matmult");
  ASSERT_NE(Spec, nullptr);
  RunResult A = runWorkload(*Spec, Library::Apron);
  RunResult F = runWorkload(*Spec, Library::ApronFW);
  RunResult O = runWorkload(*Spec, Library::OptOctagon);
  EXPECT_EQ(A.AssertsProven, F.AssertsProven);
  EXPECT_EQ(A.AssertsProven, O.AssertsProven);
  EXPECT_EQ(A.AssertsTotal, O.AssertsTotal);
}

TEST(Harness, EndToEndPercentagesAreConsistent) {
  const WorkloadSpec *Spec = findBenchmark("series");
  ASSERT_NE(Spec, nullptr);
  EndToEndResult E = runEndToEnd(*Spec, Library::OptOctagon, 2);
  EXPECT_GT(E.TotalSeconds, 0.0);
  EXPECT_GE(E.TotalSeconds, E.OctSeconds);
  EXPECT_GE(E.PctOct, 0.0);
  EXPECT_LE(E.PctOct, 100.0);
}

} // namespace
