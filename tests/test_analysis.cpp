//===- tests/test_analysis.cpp - Abstract interpreter tests ---------------===//
///
/// \file
/// Fixpoint-engine tests on hand-written programs with known invariants,
/// plus the end-to-end precision theorem: the analyzer instantiated with
/// OptOctagon proves exactly the same assertions and computes the same
/// invariants as with the APRON-style baseline.
///
//===----------------------------------------------------------------------===//

#include "oct_test_util.h"

#include "analysis/engine.h"

#include "baseline/apron_octagon.h"
#include "lang/parser.h"
#include "oct/config.h"
#include "oct/octagon.h"

#include <gtest/gtest.h>

using namespace optoct;
using namespace optoct::analysis;

namespace {

struct Analyzed {
  lang::Program Prog;
  cfg::Cfg Graph;
  AnalysisResult<Octagon> Opt;
  AnalysisResult<baseline::ApronOctagon> Ref;
};

Analyzed analyzeSource(const char *Source, AnalysisOptions Opts = {}) {
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  EXPECT_TRUE(P) << Error;
  Analyzed A{std::move(*P), cfg::Cfg(), {}, {}};
  A.Graph = cfg::Cfg::build(A.Prog);
  A.Opt = analyze<Octagon>(A.Graph, Opts);
  A.Ref = analyze<baseline::ApronOctagon>(A.Graph, Opts);
  return A;
}

/// Checks that both domains produced identical invariants everywhere.
void expectSameInvariants(Analyzed &A) {
  for (unsigned B = 0; B != A.Graph.size(); ++B) {
    auto &O = A.Opt.BlockInvariant[B];
    auto &R = A.Ref.BlockInvariant[B];
    ASSERT_EQ(O.has_value(), R.has_value()) << "block " << B;
    if (!O)
      continue;
    O->close();
    R->close();
    ASSERT_EQ(O->isBottom(), R->isBottom()) << "block " << B;
    if (O->isBottom())
      continue;
    ASSERT_EQ(O->numVars(), R->numVars()) << "block " << B;
    for (unsigned I = 0; I != 2 * O->numVars(); ++I)
      for (unsigned J = 0; J <= (I | 1u); ++J)
        ASSERT_EQ(O->entry(I, J), R->entry(I, J))
            << "block " << B << " entry (" << I << "," << J << ")";
    // Both libraries print an invariant with the same renderer, in the
    // same order, whatever the optimized element's representation.
    EXPECT_EQ(O->str(), R->str()) << "block " << B;
  }
  ASSERT_EQ(A.Opt.Asserts.size(), A.Ref.Asserts.size());
  for (std::size_t I = 0; I != A.Opt.Asserts.size(); ++I)
    EXPECT_EQ(A.Opt.Asserts[I].Proven, A.Ref.Asserts[I].Proven)
        << "assert at line " << A.Opt.Asserts[I].Line;
}

TEST(Analysis, PaperExampleLoop) {
  // The running example of Fig. 2.
  Analyzed A = analyzeSource("var x, y, m;\n"
                             "x = 1;\n"
                             "y = x;\n"
                             "while (x <= m) {\n"
                             "  x = x + 1;\n"
                             "  y = y + x;\n"
                             "}\n"
                             "assert(y >= 1);\n"
                             "assert(x >= 1);\n");
  ASSERT_EQ(A.Opt.Asserts.size(), 2u);
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  EXPECT_TRUE(A.Opt.Asserts[1].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, ConstantPropagationThroughBranch) {
  Analyzed A = analyzeSource("var x, y;\n"
                             "x = 3;\n"
                             "if (x <= 10) { y = x; } else { y = 0; }\n"
                             "assert(y == 3);\n");
  ASSERT_EQ(A.Opt.Asserts.size(), 1u);
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, DeadElseBranch) {
  Analyzed A = analyzeSource("var x, y;\n"
                             "x = 3;\n"
                             "if (x >= 10) { y = 0; assert(1 <= 0); }\n"
                             "assert(x == 3);\n");
  // The else-assert is vacuously true (unreachable), the final one real.
  for (const AssertOutcome &R : A.Opt.Asserts)
    EXPECT_TRUE(R.Proven);
  expectSameInvariants(A);
}

TEST(Analysis, LoopInvariantWithWidening) {
  // x counts 0..99; widening must find x >= 0 and the exit x == 100...
  // with plain widening (no threshold), the exit gives x >= 100.
  Analyzed A = analyzeSource("var x;\n"
                             "x = 0;\n"
                             "while (x < 100) {\n"
                             "  x = x + 1;\n"
                             "}\n"
                             "assert(x >= 100);\n"
                             "assert(x >= 0);\n");
  ASSERT_EQ(A.Opt.Asserts.size(), 2u);
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  EXPECT_TRUE(A.Opt.Asserts[1].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, NarrowingRecoversUpperBound) {
  // After widening the loop bound is lost; the narrowing sweep should
  // recover x <= 100 at the exit.
  AnalysisOptions Opts;
  Opts.NarrowingPasses = 1;
  Analyzed A = analyzeSource("var x;\n"
                             "x = 0;\n"
                             "while (x < 100) {\n"
                             "  x = x + 1;\n"
                             "}\n"
                             "assert(x == 100);\n",
                             Opts);
  ASSERT_EQ(A.Opt.Asserts.size(), 1u);
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, RelationalLoopInvariant) {
  // y = x maintained through a lockstep loop: provable only
  // relationally (intervals cannot).
  Analyzed A = analyzeSource("var x, y, n;\n"
                             "x = 0; y = 0;\n"
                             "assume(n >= 0);\n"
                             "while (x < n) {\n"
                             "  x = x + 1;\n"
                             "  y = y + 1;\n"
                             "}\n"
                             "assert(x == y);\n"
                             "assert(x - y <= 0);\n");
  for (const AssertOutcome &R : A.Opt.Asserts)
    EXPECT_TRUE(R.Proven) << "line " << R.Line;
  expectSameInvariants(A);
}

TEST(Analysis, NondeterministicLoop) {
  Analyzed A = analyzeSource("var x;\n"
                             "x = 0;\n"
                             "while (*) {\n"
                             "  x = x + 2;\n"
                             "}\n"
                             "assert(x >= 0);\n");
  ASSERT_EQ(A.Opt.Asserts.size(), 1u);
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, HavocLosesOnlyTarget) {
  Analyzed A = analyzeSource("var x, y;\n"
                             "x = 1; y = 2;\n"
                             "x = havoc();\n"
                             "assert(y == 2);\n");
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, ScopedVariablesAndDimensionChange) {
  Analyzed A = analyzeSource("var a;\n"
                             "a = 5;\n"
                             "{\n"
                             "  var b;\n"
                             "  b = a + 1;\n"
                             "  assert(b == 6);\n"
                             "}\n"
                             "{\n"
                             "  var c, d;\n"
                             "  c = a; d = c - a;\n"
                             "  assert(d == 0);\n"
                             "}\n"
                             "assert(a == 5);\n");
  for (const AssertOutcome &R : A.Opt.Asserts)
    EXPECT_TRUE(R.Proven) << "line " << R.Line;
  expectSameInvariants(A);
}

TEST(Analysis, UnprovenAssertionReported) {
  Analyzed A = analyzeSource("var x;\n"
                             "x = havoc();\n"
                             "assert(x >= 0);\n");
  ASSERT_EQ(A.Opt.Asserts.size(), 1u);
  EXPECT_FALSE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, ConjunctiveGuards) {
  Analyzed A = analyzeSource("var x, y;\n"
                             "x = havoc(); y = havoc();\n"
                             "assume(x >= 0 && x <= 10 && y == x);\n"
                             "assert(y >= 0 && y <= 10);\n");
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, IndependentGroupsDecompose) {
  // Two disjoint variable groups: OptOctagon should keep them in
  // separate components at the exit (bounds widen away, leaving pure
  // relations).
  Analyzed A = analyzeSource("var a, b, c, d;\n"
                             "a = havoc(); c = havoc();\n"
                             "b = a; d = c;\n"
                             "while (*) {\n"
                             "  a = a + 1; b = b + 1;\n"
                             "  c = c - 1; d = d - 1;\n"
                             "}\n"
                             "assert(a == b);\n"
                             "assert(c == d);\n");
  for (const AssertOutcome &R : A.Opt.Asserts)
    EXPECT_TRUE(R.Proven) << "line " << R.Line;
  expectSameInvariants(A);
  // Inspect the exit invariant's partition.
  auto &Inv = A.Opt.BlockInvariant[A.Graph.exit()];
  ASSERT_TRUE(Inv.has_value());
  Inv->close();
  if (Inv->partition().numComponents() >= 2) {
    EXPECT_EQ(Inv->partition().componentOf(0), Inv->partition().componentOf(1));
    EXPECT_EQ(Inv->partition().componentOf(2), Inv->partition().componentOf(3));
    EXPECT_NE(Inv->partition().componentOf(0), Inv->partition().componentOf(2));
  }
}

TEST(Analysis, NestedLoops) {
  Analyzed A = analyzeSource("var i, j, n;\n"
                             "assume(n >= 0);\n"
                             "i = 0;\n"
                             "while (i < n) {\n"
                             "  j = 0;\n"
                             "  while (j < i) {\n"
                             "    j = j + 1;\n"
                             "  }\n"
                             "  i = i + 1;\n"
                             "}\n"
                             "assert(i >= 0);\n");
  EXPECT_TRUE(A.Opt.Asserts[0].Proven);
  expectSameInvariants(A);
}

TEST(Analysis, AblationConfigsAgreeOnPrograms) {
  // The same program analyzed under every optimization configuration
  // must yield identical assertion verdicts.
  const char *Source = "var x, y, z;\n"
                       "x = 0; y = 0; z = havoc();\n"
                       "assume(z >= 0 && z <= 100);\n"
                       "while (x < z) {\n"
                       "  x = x + 1;\n"
                       "  y = y + 1;\n"
                       "}\n"
                       "assert(x == y);\n"
                       "assert(x >= 0);\n";
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);

  OctConfig Saved = octConfig();
  std::vector<unsigned> ProvenCounts;
  for (bool Decomp : {true, false})
    for (bool Sparse : {true, false}) {
      octConfig().EnableDecomposition = Decomp;
      octConfig().EnableSparse = Sparse;
      test::forEachSimdTier([&](SimdTier) {
        auto R = analyze<Octagon>(G);
        ProvenCounts.push_back(R.assertsProven());
      });
    }
  octConfig() = Saved;
  for (unsigned C : ProvenCounts)
    EXPECT_EQ(C, ProvenCounts[0]);
  EXPECT_EQ(ProvenCounts[0], 2u);
}

} // namespace
