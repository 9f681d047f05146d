//===- tests/test_interval.cpp - Interval domain tests ---------------------===//

#include "itv/interval_domain.h"

#include "analysis/engine.h"
#include "lang/parser.h"
#include "oct/octagon.h"

#include <gtest/gtest.h>

using namespace optoct;
using namespace optoct::itv;

namespace {

TEST(IntervalDomain, TopBottomLattice) {
  IntervalDomain T = IntervalDomain::makeTop(3);
  IntervalDomain B = IntervalDomain::makeBottom(3);
  EXPECT_TRUE(T.isTop());
  EXPECT_FALSE(T.isBottom());
  EXPECT_TRUE(B.isBottom());
  EXPECT_TRUE(B.leq(T));
  EXPECT_FALSE(T.leq(B));
  EXPECT_TRUE(T.equals(T));
}

TEST(IntervalDomain, ConstraintsRefineBounds) {
  IntervalDomain D(2);
  D.addConstraint(OctCons::upper(0, 7.0));
  D.addConstraint(OctCons::lower(0, -2.0)); // v0 >= 2
  Interval B = D.bounds(0);
  EXPECT_EQ(B.Lo, 2.0);
  EXPECT_EQ(B.Hi, 7.0);
}

TEST(IntervalDomain, BinaryConstraintPropagatesThroughPartner) {
  IntervalDomain D(2);
  D.addConstraint(OctCons::upper(1, 10.0));
  D.addConstraint(OctCons::lower(1, 0.0));
  D.addConstraint(OctCons::diff(0, 1, 2.0)); // v0 <= v1 + 2 <= 12
  EXPECT_EQ(D.bounds(0).Hi, 12.0);
  // But the relation itself is *not* remembered (intervals are
  // non-relational): tightening v1 later does not re-tighten v0.
  D.addConstraint(OctCons::upper(1, 1.0));
  EXPECT_EQ(D.bounds(0).Hi, 12.0);
}

TEST(IntervalDomain, ContradictionIsBottom) {
  IntervalDomain D(1);
  D.addConstraint(OctCons::upper(0, 1.0));
  D.addConstraint(OctCons::lower(0, -5.0)); // v0 >= 5
  EXPECT_TRUE(D.isBottom());
}

TEST(IntervalDomain, AssignAndHavoc) {
  IntervalDomain D(2);
  LinExpr E = LinExpr::constant(4.0);
  D.assign(0, E);
  LinExpr Twice;
  Twice.Terms = {{2, 0u}};
  Twice.Const = 1.0;
  D.assign(1, Twice); // v1 = 2*v0 + 1 = 9
  EXPECT_EQ(D.bounds(1).Lo, 9.0);
  EXPECT_EQ(D.bounds(1).Hi, 9.0);
  D.havoc(0);
  EXPECT_TRUE(D.bounds(0).isTop());
  EXPECT_EQ(D.bounds(1).Hi, 9.0);
}

TEST(IntervalDomain, JoinWidenNarrow) {
  IntervalDomain A(1), B(1);
  A.addConstraint(OctCons::upper(0, 1.0));
  A.addConstraint(OctCons::lower(0, 0.0));
  B.addConstraint(OctCons::upper(0, 5.0));
  B.addConstraint(OctCons::lower(0, 0.0));
  IntervalDomain J = IntervalDomain::join(A, B);
  EXPECT_EQ(J.bounds(0).Hi, 5.0);
  IntervalDomain W = IntervalDomain::widen(A, B);
  EXPECT_EQ(W.bounds(0).Hi, Infinity);
  EXPECT_EQ(W.bounds(0).Lo, 0.0); // stable side kept
  IntervalDomain N = IntervalDomain::narrow(W, B);
  EXPECT_EQ(N.bounds(0).Hi, 5.0);
}

TEST(IntervalDomain, BoundOfOctagonalConstraints) {
  IntervalDomain D(2);
  D.addConstraint(OctCons::upper(0, 3.0));
  D.addConstraint(OctCons::lower(0, 0.0));
  D.addConstraint(OctCons::upper(1, 4.0));
  D.addConstraint(OctCons::lower(1, -1.0)); // v1 >= 1
  EXPECT_EQ(D.boundOf(OctCons::upper(0, 0)), 6.0);       // 2*v0 <= 6
  EXPECT_EQ(D.boundOf(OctCons::sum(0, 1, 0)), 7.0);      // v0+v1 <= 7
  EXPECT_EQ(D.boundOf(OctCons::diff(0, 1, 0)), 2.0);     // v0-v1 <= 3-1
  EXPECT_EQ(D.boundOf(OctCons::negSum(0, 1, 0)), -1.0);  // -v0-v1 <= -1
}

TEST(IntervalDomain, DimensionManagement) {
  IntervalDomain D(2);
  D.addConstraint(OctCons::upper(0, 1.0));
  D.addVars(2);
  EXPECT_EQ(D.numVars(), 4u);
  EXPECT_TRUE(D.bounds(3).isTop());
  D.removeTrailingVars(3);
  EXPECT_EQ(D.numVars(), 1u);
  EXPECT_EQ(D.bounds(0).Hi, 1.0);
}

//===--------------------------------------------------------------------===//
// Precision comparison: the analyzer over intervals vs. octagons.
//===--------------------------------------------------------------------===//

struct TwoAnalyses {
  lang::Program Prog;
  cfg::Cfg Graph;
  analysis::AnalysisResult<Octagon> Oct;
  analysis::AnalysisResult<IntervalDomain> Itv;
};

TwoAnalyses analyzeBoth(const char *Source) {
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  EXPECT_TRUE(P) << Error;
  TwoAnalyses R{std::move(*P), cfg::Cfg(), {}, {}};
  R.Graph = cfg::Cfg::build(R.Prog);
  R.Oct = analysis::analyze<Octagon>(R.Graph);
  R.Itv = analysis::analyze<IntervalDomain>(R.Graph);
  return R;
}

TEST(IntervalVsOctagon, RelationalInvariantNeedsOctagons) {
  // The paper's motivation: x == y through a lockstep loop is provable
  // relationally but not with boxes.
  TwoAnalyses R = analyzeBoth("var x, y, n;\n"
                              "n = havoc();\n"
                              "assume(n >= 0);\n"
                              "x = 0; y = 0;\n"
                              "while (x < n) { x = x + 1; y = y + 1; }\n"
                              "assert(x == y);\n");
  ASSERT_EQ(R.Oct.Asserts.size(), 1u);
  ASSERT_EQ(R.Itv.Asserts.size(), 1u);
  EXPECT_TRUE(R.Oct.Asserts[0].Proven);
  EXPECT_FALSE(R.Itv.Asserts[0].Proven);
}

TEST(IntervalVsOctagon, PureBoundsProvableByBoth) {
  TwoAnalyses R = analyzeBoth("var x;\n"
                              "x = 3;\n"
                              "if (x <= 10) { x = x + 1; }\n"
                              "assert(x >= 3);\n"
                              "assert(x <= 4);\n");
  EXPECT_EQ(R.Oct.assertsProven(), 2u);
  EXPECT_EQ(R.Itv.assertsProven(), 2u);
}

TEST(IntervalVsOctagon, OctagonNeverProvesFewer) {
  // On a battery of small programs, every assertion intervals prove is
  // also proven by octagons.
  const char *Programs[] = {
      "var a, b; a = 1; b = a + 1; assert(b == 2); assert(a < b);",
      "var i; i = 0; while (i < 8) { i = i + 1; } assert(i == 8);",
      "var x, y; x = havoc(); assume(x >= 0 && x <= 4); y = x;\n"
      "assert(y <= 4); assert(x - y == 0);",
      "var s, k; s = 0; k = 0;\n"
      "while (*) { s = s + 1; k = k + 1; }\n"
      "assert(s >= 0); assert(s == k);",
  };
  for (const char *Source : Programs) {
    TwoAnalyses R = analyzeBoth(Source);
    ASSERT_EQ(R.Oct.Asserts.size(), R.Itv.Asserts.size());
    for (std::size_t I = 0; I != R.Oct.Asserts.size(); ++I)
      EXPECT_TRUE(R.Oct.Asserts[I].Proven || !R.Itv.Asserts[I].Proven)
          << Source << " line " << R.Oct.Asserts[I].Line;
  }
}

//===--------------------------------------------------------------------===//
// The precision ladder: interval ⊑ octagon on the analyzer. Octagons
// subsume zones (difference-bound matrices), so a difference invariant
// is the weakest relation the upper rung must keep.
//===--------------------------------------------------------------------===//

struct LadderResult {
  unsigned Itv, Oct, Total;
};

LadderResult analyzeLadder(const char *Source) {
  TwoAnalyses R = analyzeBoth(Source);
  EXPECT_EQ(R.Itv.Asserts.size(), R.Oct.Asserts.size());
  return {R.Itv.assertsProven(), R.Oct.assertsProven(),
          static_cast<unsigned>(R.Oct.Asserts.size())};
}

TEST(PrecisionLadder, DifferenceInvariantNeedsZones) {
  // y - x stays constant: a difference bound, which octagons keep and
  // intervals do not.
  LadderResult R = analyzeLadder("var x, y;\n"
                                 "x = 0; y = 5;\n"
                                 "while (*) { x = x + 1; y = y + 1; }\n"
                                 "assert(y - x == 5);\n");
  EXPECT_EQ(R.Itv, 0u);
  EXPECT_EQ(R.Oct, 1u);
}

TEST(PrecisionLadder, SumInvariantNeedsOctagons) {
  // x + y stays constant under transfer: only octagons track sums.
  LadderResult R = analyzeLadder("var x, y;\n"
                                 "x = 0; y = 10;\n"
                                 "while (*) { x = x + 1; y = y - 1; }\n"
                                 "assert(x + y == 10);\n");
  EXPECT_EQ(R.Itv, 0u);
  EXPECT_EQ(R.Oct, 1u);
}

TEST(PrecisionLadder, MonotoneOnBattery) {
  const char *Programs[] = {
      "var i; i = 0; while (i < 9) { i = i + 1; } assert(i == 9);",
      "var a, b; a = havoc(); assume(a >= 0 && a <= 5); b = a;\n"
      "assert(b - a == 0); assert(b <= 5);",
      "var p, q; p = 1; q = -1;\n"
      "while (*) { p = p + 2; q = q - 2; }\n"
      "assert(p >= 1); assert(p + q <= 0);",
  };
  for (const char *Source : Programs) {
    LadderResult R = analyzeLadder(Source);
    EXPECT_LE(R.Itv, R.Oct) << Source;
    EXPECT_LE(R.Oct, R.Total) << Source;
  }
}

} // namespace
