//===- tests/test_programs.cpp - Classic verification programs -------------===//
///
/// \file
/// A battery of small classic verification programs (folklore examples
/// from the abstract-interpretation literature), each analyzed with
/// OptOctagon and the baseline. Checks the expected verdicts and that
/// the two libraries agree.
///
//===----------------------------------------------------------------------===//

#include "analysis/engine.h"
#include "baseline/apron_octagon.h"
#include "lang/parser.h"
#include "oct/octagon.h"
#include "reference_engine.h"

#include <gtest/gtest.h>

using namespace optoct;
using namespace optoct::analysis;

namespace {

struct ProgramCase {
  const char *Name;
  const char *Source;
  unsigned ExpectProven;
  unsigned ExpectTotal;
};

class ClassicPrograms : public ::testing::TestWithParam<ProgramCase> {};

void PrintTo(const ProgramCase &C, std::ostream *OS) { *OS << C.Name; }

TEST_P(ClassicPrograms, ExpectedVerdictsAndLibraryAgreement) {
  const ProgramCase &C = GetParam();
  std::string Error;
  auto P = lang::parseProgram(C.Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);
  auto Opt = analyze<Octagon>(G);
  auto Ref = analyze<baseline::ApronOctagon>(G);

  EXPECT_EQ(Opt.Asserts.size(), C.ExpectTotal);
  EXPECT_EQ(Opt.assertsProven(), C.ExpectProven);
  ASSERT_EQ(Opt.Asserts.size(), Ref.Asserts.size());
  for (std::size_t I = 0; I != Opt.Asserts.size(); ++I)
    EXPECT_EQ(Opt.Asserts[I].Proven, Ref.Asserts[I].Proven)
        << "line " << Opt.Asserts[I].Line;
}

// The copy-free fixpoint step against the copying step it replaced
// (tests/reference_engine.h), with both libraries.
TEST_P(ClassicPrograms, CopyFreeStepMatchesReferenceStep) {
  const ProgramCase &C = GetParam();
  std::string Error;
  auto P = lang::parseProgram(C.Source, Error);
  ASSERT_TRUE(P) << Error;
  cfg::Cfg G = cfg::Cfg::build(*P);
  optoct::testing::expectMatchesReference<Octagon>(G, {}, C.Name);
  optoct::testing::expectMatchesReference<baseline::ApronOctagon>(G, {},
                                                                  C.Name);
}

const ProgramCase Cases[] = {
    {"swap-preserves-sum",
     "var a, b, t;\n"
     "a = havoc(); b = havoc();\n"
     "assume(a + b <= 10 && a + b >= 10);\n"
     "t = a; a = b; b = t;\n"
     "assert(a + b == 10);\n",
     1, 1},

    // Note: with a symbolic n, "i + d == n" is a three-variable
    // relation — beyond octagons (needs polyhedra). With the constant
    // bound it is the octagonal sum i + d == 1000.
    {"count-up-down",
     "var i, d;\n"
     "i = 0; d = 1000;\n"
     "while (i < 1000) { i = i + 1; d = d - 1; }\n"
     "assert(i + d == 1000);\n"
     "assert(d >= 0);\n",
     2, 2},

    {"half",
     "var n, i, k;\n"
     "n = havoc(); assume(n >= 0 && n <= 500);\n"
     "i = 0; k = 0;\n"
     "while (i < n) {\n"
     "  if (k <= i) { k = k + 1; }\n"
     "  i = i + 1;\n"
     "}\n"
     "assert(k <= n);\n",
     1, 1},

    {"bounded-phases",
     "var x;\n"
     "x = 0;\n"
     "while (x < 10) { x = x + 1; }\n"
     "while (x > 0) { x = x - 1; }\n"
     "assert(x == 0);\n",
     1, 1},

    {"max-of-two",
     "var a, b, m;\n"
     "a = havoc(); b = havoc();\n"
     "if (a >= b) { m = a; } else { m = b; }\n"
     "assert(m >= a);\n"
     "assert(m >= b);\n",
     2, 2},

    {"abs-value",
     "var x, y;\n"
     "x = havoc();\n"
     "if (x >= 0) { y = x; } else { y = -x; }\n"
     "assert(y >= 0);\n"
     "assert(y >= x);\n",
     2, 2},

    {"two-counters-offset",
     "var i, j;\n"
     "i = 0; j = 5;\n"
     "while (*) { i = i + 1; j = j + 1; }\n"
     "assert(j - i == 5);\n"
     "assert(j >= 5);\n",
     2, 2},

    {"nested-loop-sum",
     "var i, j, n;\n"
     "n = havoc(); assume(n >= 1 && n <= 100);\n"
     "i = 0;\n"
     "while (i < n) {\n"
     "  j = i;\n"
     "  while (j < n) { j = j + 1; }\n"
     "  assert(j == n);\n"
     "  i = i + 1;\n"
     "}\n"
     "assert(i == n);\n",
     2, 2},

    {"scope-stack",
     "var total;\n"
     "total = 0;\n"
     "{\n"
     "  var a;\n"
     "  a = 3;\n"
     "  total = total + a;\n"
     "}\n"
     "{\n"
     "  var b, c;\n"
     "  b = 2; c = b;\n"
     "  total = total + c;\n"
     "}\n"
     "assert(total == 5);\n",
     1, 1},

    {"unprovable-disjunction",
     "var x;\n"
     "x = havoc();\n"
     "assume(x != 0);\n" // dropped (disjunction): no refinement
     "assert(x != 0);\n",
     0, 1},

    {"dead-code-vacuous",
     "var x;\n"
     "x = 1;\n"
     "if (x > 5) {\n"
     "  assert(1 <= 0);\n" // unreachable: vacuously proven
     "}\n"
     "assert(x == 1);\n",
     2, 2},

    {"loop-with-guard-exit",
     "var x, limit;\n"
     "limit = havoc(); assume(limit >= 0 && limit <= 50);\n"
     "x = 0;\n"
     "while (x < limit) { x = x + 1; }\n"
     "assert(x >= limit);\n"
     "assert(x <= 50);\n",
     2, 2},

    {"infinite-loop-makes-tail-unreachable",
     "var x;\n"
     "x = 0;\n"
     "while (0 <= 1) { x = x + 1; }\n"
     "assert(1 <= 0);\n", // after a provably non-terminating loop
     1, 1},

    {"assume-false-kills-path",
     "var x;\n"
     "x = havoc();\n"
     "if (x >= 0) {\n"
     "  assume(1 <= 0);\n"
     "  assert(x <= -100);\n" // vacuous: the branch is dead
     "}\n"
     "assert(x >= 0);\n", // NOT provable: only the else path survives...
     1, 2},               // ...so x < 0 at the merge; first assert vacuous

    {"contradictory-guards-bottom-in-loop",
     "var x, y;\n"
     "x = havoc(); y = havoc();\n"
     "while (*) {\n"
     "  assume(x - y >= 1 && y - x >= 1);\n" // x>y and y>x: empty
     "  assert(1 <= 0);\n"                   // vacuous inside dead body
     "}\n"
     "assert(x - x <= 0);\n",
     2, 2},

    {"triangle-inequality-chain",
     "var a, b, c;\n"
     "a = havoc(); b = havoc(); c = havoc();\n"
     "assume(a - b <= 2 && b - c <= 3);\n"
     "assert(a - c <= 5);\n" // needs the shortest-path closure
     "assert(a - c <= 4);\n",
     1, 2},

    {"strengthening-sum",
     "var x, y;\n"
     "x = havoc(); y = havoc();\n"
     "assume(x <= 3 && y <= 4);\n"
     "assert(x + y <= 7);\n" // needs the strengthening step
     "assert(x + y <= 6);\n",
     1, 2},
};

INSTANTIATE_TEST_SUITE_P(Battery, ClassicPrograms,
                         ::testing::ValuesIn(Cases));

} // namespace
