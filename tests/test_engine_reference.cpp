//===- tests/test_engine_reference.cpp - Copy-free step vs reference -----===//
///
/// The fixpoint step in analysis/engine.h against the copying step it
/// replaced (tests/reference_engine.h), for both octagon libraries: the
/// paper's 17 generated rows at small seeds and seeded random programs
/// under varied engine options must give the same invariants, assertion
/// outcomes and block visits, with no more closures. The classic
/// programs of tests/test_programs.cpp run the same check there.
///
/// Also the operand contract the step relies on: every lattice operator
/// leaves both operands bitwise as they were — buffer, partition and
/// Closed flag — including an unclosed widening iterate.
///
//===----------------------------------------------------------------------===//

#include "reference_engine.h"

#include "lang/parser.h"
#include "support/random.h"
#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

using namespace optoct;
using namespace optoct::testing;

namespace {

/// Parses \p Source into \p Keep (the CFG points into it) and builds
/// its CFG; false on a parse error.
bool buildCfg(const std::string &Source, std::optional<lang::Program> &Keep,
              std::optional<cfg::Cfg> &G) {
  std::string Error;
  Keep = lang::parseProgram(Source, Error);
  EXPECT_TRUE(Keep) << Error;
  if (!Keep)
    return false;
  G.emplace(cfg::Cfg::build(*Keep));
  return true;
}

/// Each of the 17 rows keeps its shape (probabilities, relational
/// second half, cross links) but is cut to at most 4 groups of 4
/// variables and 4 phases, so both libraries and both engines run it in
/// well under a second. The rows at full size are compared through
/// their canonical records (tests/test_canonical_golden.cpp).
TEST(ReferenceStep, GeneratedRowsMatchForBothLibraries) {
  for (const workloads::WorkloadSpec &Base : workloads::paperBenchmarks()) {
    for (unsigned Seed : {1u, 2u}) {
      workloads::WorkloadSpec S = Base;
      S.Seed = Seed;
      S.Groups = std::min(S.Groups, 4u);
      S.GroupSize = std::min(S.GroupSize, 4u);
      S.ScopeVars = std::min(S.ScopeVars, 2u);
      S.Phases = std::min(S.Phases, 4u);
      std::optional<lang::Program> P;
      std::optional<cfg::Cfg> G;
      if (!buildCfg(workloads::generateProgram(S), P, G))
        continue;
      std::string What = S.Name + " seed " + std::to_string(Seed);
      expectMatchesReference<Octagon>(*G, {}, What);
      expectMatchesReference<baseline::ApronOctagon>(*G, {}, What);
    }
  }
}

/// Random shapes of the generator, small enough that both libraries run
/// each one in milliseconds, under random engine options (widening
/// delay, narrowing passes, thresholds, guard linearization).
TEST(ReferenceStep, SeededRandomProgramsMatchForBothLibraries) {
  for (unsigned Seed = 1; Seed <= 100; ++Seed) {
    Rng R(Seed);
    workloads::WorkloadSpec S;
    S.Name = "random";
    S.Seed = Seed;
    S.Groups = static_cast<unsigned>(R.intIn(1, 3));
    S.GroupSize = static_cast<unsigned>(R.intIn(2, 4));
    S.ScopeVars = static_cast<unsigned>(R.intIn(0, 3));
    S.Phases = static_cast<unsigned>(R.intIn(1, 4));
    S.StmtsPerLoop = static_cast<unsigned>(R.intIn(1, 5));
    S.BoundedFrac = R.doubleIn(0, 1);
    S.RelationalFrac = R.doubleIn(0, 1);
    S.CrossLinkProb = R.doubleIn(0, 0.5);
    S.HavocProb = R.doubleIn(0, 0.3);
    S.RelationalSecondHalf = R.chance(0.3);
    S.BranchProb = R.doubleIn(0, 1);
    analysis::AnalysisOptions Opts;
    Opts.WideningDelay = static_cast<unsigned>(R.intIn(0, 3));
    Opts.NarrowingPasses = static_cast<unsigned>(R.intIn(0, 2));
    Opts.LinearizeGuards = R.chance(0.8);
    if (R.chance(0.3))
      Opts.WideningThresholds = {0, 1, 10, 100};
    std::optional<lang::Program> P;
    std::optional<cfg::Cfg> G;
    if (!buildCfg(workloads::generateProgram(S), P, G))
      continue;
    std::string What = "random seed " + std::to_string(Seed);
    expectMatchesReference<Octagon>(*G, Opts, What);
    expectMatchesReference<baseline::ApronOctagon>(*G, Opts, What);
  }
}

// --- Const operands ---------------------------------------------------------

/// Every bit an operator could disturb: the whole stored buffer, the
/// partition, the kind and the Closed flag.
struct OctSnapshot {
  std::vector<unsigned char> Buffer;
  Partition P;
  DbmKind Kind;
  bool Closed;

  explicit OctSnapshot(const Octagon &O)
      : Buffer(reinterpret_cast<const unsigned char *>(O.dbm().data()),
               reinterpret_cast<const unsigned char *>(O.dbm().data() +
                                                       O.dbm().size())),
        P(O.partition()), Kind(O.kind()), Closed(O.isClosed()) {}
  bool operator==(const OctSnapshot &Other) const {
    return Buffer == Other.Buffer && P == Other.P && Kind == Other.Kind &&
           Closed == Other.Closed;
  }
};

struct ApronSnapshot {
  std::vector<double> Entries;
  bool Closed;

  explicit ApronSnapshot(const baseline::ApronOctagon &O)
      : Closed(O.isClosed()) {
    for (unsigned I = 0; I != 2 * O.numVars(); ++I)
      for (unsigned J = 0; J != 2 * O.numVars(); ++J)
        Entries.push_back(O.entry(I, J));
  }
  bool operator==(const ApronSnapshot &Other) const {
    return Closed == Other.Closed &&
           std::memcmp(Entries.data(), Other.Entries.data(),
                       Entries.size() * sizeof(double)) == 0 &&
           Entries.size() == Other.Entries.size();
  }
};

OctSnapshot snapshotOf(const Octagon &O) { return OctSnapshot(O); }
ApronSnapshot snapshotOf(const baseline::ApronOctagon &O) {
  return ApronSnapshot(O);
}

/// Random constraints over the variables of two groups, so the Octagon
/// side is decomposed more often than not.
std::vector<OctCons> randomConstraints(Rng &R, unsigned N, unsigned Count) {
  std::vector<OctCons> Cs;
  for (unsigned K = 0; K != Count; ++K) {
    unsigned Half = N / 2;
    unsigned Lo = R.chance(0.5) ? 0 : Half;
    unsigned Hi = Lo == 0 ? Half : N;
    unsigned I = Lo + static_cast<unsigned>(R.indexBelow(Hi - Lo));
    unsigned J = Lo + static_cast<unsigned>(R.indexBelow(Hi - Lo));
    double C = R.intIn(-6, 12);
    switch (R.intIn(0, 4)) {
    case 0:
      Cs.push_back(OctCons::upper(I, C));
      break;
    case 1:
      Cs.push_back(OctCons::lower(I, -C));
      break;
    case 2:
      if (I != J)
        Cs.push_back(OctCons::diff(I, J, C));
      break;
    case 3:
      if (I != J)
        Cs.push_back(OctCons::sum(I, J, C + 6));
      break;
    default:
      if (I != J)
        Cs.push_back(OctCons::negSum(I, J, C + 6));
      break;
    }
  }
  return Cs;
}

/// Operands of every closure state the engine hands the operators: a
/// closed element, an unclosed meet, an unclosed widening iterate, top
/// and bottom.
template <typename DomainT> std::vector<DomainT> operandZoo(unsigned Seed) {
  Rng R(Seed);
  const unsigned N = 8;
  // A relation in each group that both share keeps the joined and
  // widened partitions non-empty, so the iterate is not Top (which
  // counts as closed).
  const std::vector<OctCons> Shared = {OctCons::diff(0, 1, 5),
                                       OctCons::diff(N / 2, N / 2 + 1, 5)};
  auto element = [&] {
    for (;;) { // redraw contradictory constraint sets
      DomainT E = DomainT::makeTop(N);
      E.addConstraints(Shared);
      E.addConstraints(randomConstraints(R, N, 6));
      if (!E.isBottom())
        return E;
    }
  };
  DomainT A = element(), B = element();
  DomainT Met = DomainT::meet(A, B);
  DomainT Grown = DomainT::join(A, B);
  DomainT Iterate = DomainT::widen(A, Grown);
  std::vector<DomainT> Zoo = {A, B, Met, Iterate, DomainT::makeTop(N),
                              DomainT::makeBottom(N)};
  return Zoo;
}

template <typename DomainT> void expectOperatorsLeaveOperandsAlone() {
  static const std::vector<double> Thresholds = {0, 5, 50};
  for (unsigned Seed = 1; Seed <= 12; ++Seed) {
    std::vector<DomainT> Zoo = operandZoo<DomainT>(Seed);
    bool SawUnclosedIterate = false;
    for (std::size_t X = 0; X != Zoo.size(); ++X)
      for (std::size_t Y = 0; Y != Zoo.size(); ++Y) {
        const DomainT &L = Zoo[X], &Rt = Zoo[Y];
        SawUnclosedIterate |= !L.isClosed();
        auto BeforeL = snapshotOf(L), BeforeR = snapshotOf(Rt);
        auto Check = [&](const char *Op) {
          EXPECT_TRUE(snapshotOf(L) == BeforeL)
              << Op << " changed its left operand (seed " << Seed << ", "
              << X << "," << Y << ")";
          EXPECT_TRUE(snapshotOf(Rt) == BeforeR)
              << Op << " changed its right operand (seed " << Seed << ", "
              << X << "," << Y << ")";
        };
        (void)DomainT::join(L, Rt);
        Check("join");
        (void)DomainT::widen(L, Rt);
        Check("widen");
        (void)DomainT::widenWithThresholds(L, Rt, Thresholds);
        Check("widenWithThresholds");
        (void)DomainT::narrow(L, Rt);
        Check("narrow");
        (void)DomainT::meet(L, Rt);
        Check("meet");
        (void)L.leq(Rt);
        Check("leq");
        (void)L.equals(Rt);
        Check("equals");
      }
    EXPECT_TRUE(SawUnclosedIterate);
  }
}

TEST(ConstOperands, OctagonOperatorsLeaveOperandsBitwiseUnchanged) {
  expectOperatorsLeaveOperandsAlone<Octagon>();
}

TEST(ConstOperands, ApronOperatorsLeaveOperandsBitwiseUnchanged) {
  expectOperatorsLeaveOperandsAlone<baseline::ApronOctagon>();
}

/// Reading an unclosed operand closed, in scratch, gives what closing
/// it in place gives.
TEST(ConstOperands, ScratchClosureMatchesClosingInPlace) {
  for (unsigned Seed = 1; Seed <= 12; ++Seed) {
    std::vector<Octagon> Zoo = operandZoo<Octagon>(Seed);
    for (std::size_t X = 0; X != Zoo.size(); ++X)
      for (std::size_t Y = 0; Y != Zoo.size(); ++Y) {
        Octagon CL = Zoo[X], CR = Zoo[Y];
        CL.close();
        CR.close();
        Octagon Const = Octagon::join(Zoo[X], Zoo[Y]);
        Octagon InPlace = Octagon::join(CL, CR);
        EXPECT_TRUE(Const.equals(InPlace)) << Seed << " " << X << "," << Y;
        EXPECT_EQ(Zoo[X].leq(Zoo[Y]), CL.leq(Zoo[Y]));
        EXPECT_EQ(Zoo[X].equals(Zoo[Y]), CL.equals(CR));
        Octagon W = Octagon::widen(Zoo[X], Zoo[Y]);
        Octagon WIn = Octagon::widen(Zoo[X], CR);
        EXPECT_EQ(W.str(), WIn.str());
      }
  }
}

} // namespace
