//===- tests/test_budget.cpp - Budgets, degradation, fault injection ------===//
///
/// \file
/// The robustness layer end to end: cancellation-token semantics,
/// graceful engine degradation (sound Top invariants instead of a
/// crash), saturating bound arithmetic, non-finite constraint
/// sanitization, and the batch runtime's fault isolation — injected
/// crashes retried with backoff, injected hangs flagged by the
/// watchdog, statuses deterministic across worker counts.
///
//===----------------------------------------------------------------------===//

#include "analysis/engine.h"
#include "lang/parser.h"
#include "oct/constraint.h"
#include "oct/octagon.h"
#include "oct/value.h"
#include "runtime/batch.h"
#include "support/budget.h"
#include "support/faultinject.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

using namespace optoct;

namespace {

const char *LoopProgram = "var x, y, n;\n"
                          "n = havoc(); assume(n >= 0 && n <= 40);\n"
                          "x = 0; y = 0;\n"
                          "while (x < n) {\n"
                          "  x = x + 1;\n"
                          "  if (y < x) { y = y + 1; }\n"
                          "}\n"
                          "assert(y <= x);\n"
                          "assert(x <= 40);\n";

cfg::Cfg buildCfg(const char *Source, lang::Program &Storage) {
  std::string Error;
  auto P = lang::parseProgram(Source, Error);
  EXPECT_TRUE(P) << Error;
  Storage = std::move(*P);
  return cfg::Cfg::build(Storage);
}

//===----------------------------------------------------------------------===//
// Saturating bound arithmetic
//===----------------------------------------------------------------------===//

TEST(BoundAdd, FiniteOperandsAddExactly) {
  EXPECT_EQ(boundAdd(2.0, 3.0), 5.0);
  EXPECT_EQ(boundAdd(-7.5, 7.5), 0.0);
}

TEST(BoundAdd, PlusInfinityAbsorbs) {
  EXPECT_EQ(boundAdd(Infinity, 3.0), Infinity);
  EXPECT_EQ(boundAdd(3.0, Infinity), Infinity);
  EXPECT_EQ(boundAdd(Infinity, Infinity), Infinity);
}

TEST(BoundAdd, MixedInfinitiesSaturateInsteadOfNaN) {
  // Plain + would give NaN here and poison every min() downstream.
  EXPECT_EQ(boundAdd(Infinity, -Infinity), Infinity);
  EXPECT_EQ(boundAdd(-Infinity, Infinity), Infinity);
  EXPECT_EQ(boundAdd(-Infinity, 3.0), -Infinity);
}

//===----------------------------------------------------------------------===//
// Cancellation-token semantics
//===----------------------------------------------------------------------===//

TEST(Budget, UnbudgetedPollIsANoOp) {
  ASSERT_EQ(support::currentBudgetToken(), nullptr);
  for (int I = 0; I != 1000; ++I)
    support::pollBudget(); // Must never throw with no token installed.
  support::chargeDbmCells(1u << 30);
}

TEST(Budget, CancelRequestSurfacesOnNextPoll) {
  support::CancellationToken Token;
  Token.arm({});
  Token.requestCancel();
  try {
    Token.poll();
    FAIL() << "poll did not throw after requestCancel";
  } catch (const support::BudgetExceeded &E) {
    EXPECT_EQ(E.reason(), support::BudgetReason::Cancelled);
  }
}

TEST(Budget, WatchdogFlagReportsDeadlineReason) {
  support::CancellationToken Token;
  Token.arm({});
  Token.requestCancel(support::BudgetReason::Deadline);
  try {
    Token.poll();
    FAIL() << "poll did not throw after watchdog flag";
  } catch (const support::BudgetExceeded &E) {
    EXPECT_EQ(E.reason(), support::BudgetReason::Deadline);
  }
}

TEST(Budget, DeadlinePassesAndClears) {
  support::CancellationToken Token;
  support::AnalysisBudget B;
  B.DeadlineMs = 1;
  Token.arm(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(Token.deadlinePassed());
  Token.clearDeadline();
  EXPECT_FALSE(Token.deadlinePassed());

  B.DeadlineMs = 0; // Zero = no deadline; never passes.
  Token.arm(B);
  EXPECT_FALSE(Token.deadlinePassed());
}

TEST(Budget, ExpiredDeadlineTripsASampledPoll) {
  support::CancellationToken Token;
  support::AnalysisBudget B;
  B.DeadlineMs = 1;
  Token.arm(B);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // The clock is sampled every 64th poll, so 64 polls must suffice.
  try {
    for (int I = 0; I != 64; ++I)
      Token.poll();
    FAIL() << "64 polls past the deadline did not throw";
  } catch (const support::BudgetExceeded &E) {
    EXPECT_EQ(E.reason(), support::BudgetReason::Deadline);
  }
}

TEST(Budget, CellFuelChargesAndTrips) {
  support::CancellationToken Token;
  support::AnalysisBudget B;
  B.MaxDbmCells = 100;
  Token.arm(B);
  Token.chargeCells(60);
  EXPECT_EQ(Token.cellsUsed(), 60u);
  try {
    Token.chargeCells(60);
    FAIL() << "charging past the cap did not throw";
  } catch (const support::BudgetExceeded &E) {
    EXPECT_EQ(E.reason(), support::BudgetReason::DbmCells);
  }
}

//===----------------------------------------------------------------------===//
// Graceful engine degradation
//===----------------------------------------------------------------------===//

TEST(Budget, VisitFuelExhaustionDegradesToSoundTop) {
  lang::Program Prog;
  cfg::Cfg Graph = buildCfg(LoopProgram, Prog);

  auto Full = analysis::analyze<Octagon>(Graph);
  ASSERT_EQ(Full.Status, analysis::RunStatus::Ok);

  analysis::AnalysisOptions Tiny;
  Tiny.MaxBlockVisits = 2;
  auto Degraded = analysis::analyze<Octagon>(Graph, Tiny);
  EXPECT_EQ(Degraded.Status, analysis::RunStatus::Degraded);
  EXPECT_EQ(Degraded.DegradedBy, support::BudgetReason::BlockVisits);
  EXPECT_FALSE(Degraded.StatusDetail.empty());

  // Same assertion set, and the degraded invariants are pointwise
  // weaker-or-equal: Top everywhere the converged run has a state.
  EXPECT_EQ(Degraded.Asserts.size(), Full.Asserts.size());
  for (unsigned B = 0; B != Graph.size(); ++B) {
    ASSERT_TRUE(Degraded.BlockInvariant[B]);
    EXPECT_TRUE(Degraded.BlockInvariant[B]->isTop()) << "block " << B;
    if (Full.BlockInvariant[B]) {
      Octagon Converged = *Full.BlockInvariant[B];
      Octagon Weak = *Degraded.BlockInvariant[B];
      EXPECT_TRUE(Converged.leq(Weak)) << "block " << B;
    }
  }
}

/// An Octagon that counts widenings and, once the engine has degraded
/// (the degrade stores makeTop in every block; the first makeTop is the
/// entry state), notes whether each state it is copied from is Top. The
/// final pass copies every block's state, so after a degrade it must
/// copy only Top — never a closed copy of an iterate made before the
/// budget tripped.
struct CopySpy : Octagon {
  static inline unsigned TopsMade = 0;
  static inline unsigned Widenings = 0;
  static inline std::vector<bool> SourcesAfterDegrade;

  explicit CopySpy(Octagon O) : Octagon(std::move(O)) {}
  CopySpy(const CopySpy &O) : Octagon(O) {
    if (TopsMade > 1)
      SourcesAfterDegrade.push_back(O.isTop());
  }
  CopySpy(CopySpy &&) = default;
  CopySpy &operator=(const CopySpy &) = default;
  CopySpy &operator=(CopySpy &&) = default;

  static CopySpy makeTop(unsigned N) {
    ++TopsMade;
    return CopySpy(Octagon::makeTop(N));
  }
  static CopySpy makeBottom(unsigned N) {
    return CopySpy(Octagon::makeBottom(N));
  }
  static CopySpy join(const CopySpy &A, const CopySpy &B) {
    return CopySpy(Octagon::join(A, B));
  }
  static CopySpy widen(const CopySpy &Old, const CopySpy &New) {
    ++Widenings;
    return CopySpy(Octagon::widen(Old, New));
  }
  static CopySpy widenWithThresholds(const CopySpy &Old, const CopySpy &New,
                                     const std::vector<double> &T) {
    ++Widenings;
    return CopySpy(Octagon::widenWithThresholds(Old, New, T));
  }
  static CopySpy narrow(const CopySpy &Old, const CopySpy &New) {
    return CopySpy(Octagon::narrow(Old, New));
  }
};

// The engine keeps a closed copy of a loop head's widening iterate
// beside it. A budget that trips after the loop head has widened
// degrades every block to Top, and the final pass must then read those
// Top states, not a closed copy left from before the trip.
TEST(Budget, TripAfterWideningFinalPassReadsTop) {
  lang::Program Prog;
  cfg::Cfg Graph = buildCfg(LoopProgram, Prog);

  unsigned Checked = 0;
  for (unsigned Visits = 1; Visits != 200; ++Visits) {
    CopySpy::TopsMade = 0;
    CopySpy::Widenings = 0;
    CopySpy::SourcesAfterDegrade.clear();
    analysis::AnalysisOptions Opts;
    Opts.MaxBlockVisits = Visits;
    auto R = analysis::analyze<CopySpy>(Graph, Opts);
    if (R.Status != analysis::RunStatus::Degraded)
      break; // converged within the budget
    if (CopySpy::Widenings == 0)
      continue; // tripped before the loop head widened
    ++Checked;
    SCOPED_TRACE("max block visits " + std::to_string(Visits));
    EXPECT_GT(CopySpy::TopsMade, 1u);
    ASSERT_FALSE(CopySpy::SourcesAfterDegrade.empty());
    for (bool SourceWasTop : CopySpy::SourcesAfterDegrade)
      EXPECT_TRUE(SourceWasTop);
    for (unsigned B = 0; B != Graph.size(); ++B) {
      ASSERT_TRUE(R.BlockInvariant[B]);
      EXPECT_TRUE(R.BlockInvariant[B]->isTop()) << "block " << B;
    }
    // Under Top neither assertion is provable.
    EXPECT_EQ(R.assertsProven(), 0u);
  }
  EXPECT_GT(Checked, 0u);
}

TEST(Budget, CancelledTokenDegradesTheRun) {
  lang::Program Prog;
  cfg::Cfg Graph = buildCfg(LoopProgram, Prog);

  support::CancellationToken Token;
  Token.arm({});
  Token.requestCancel();
  support::BudgetScope Scope(&Token);
  auto R = analysis::analyze<Octagon>(Graph);
  EXPECT_EQ(R.Status, analysis::RunStatus::Degraded);
  EXPECT_EQ(R.DegradedBy, support::BudgetReason::Cancelled);
}

TEST(Budget, CellFuelExhaustionDegradesTheRun) {
  lang::Program Prog;
  cfg::Cfg Graph = buildCfg(LoopProgram, Prog);

  support::CancellationToken Token;
  support::AnalysisBudget B;
  B.MaxDbmCells = 64; // One 3-variable DBM is 2n(n+1) = 24 cells.
  Token.arm(B);
  support::BudgetScope Scope(&Token);
  auto R = analysis::analyze<Octagon>(Graph);
  EXPECT_EQ(R.Status, analysis::RunStatus::Degraded);
  EXPECT_EQ(R.DegradedBy, support::BudgetReason::DbmCells);
  for (unsigned Blk = 0; Blk != Graph.size(); ++Blk) {
    if (R.BlockInvariant[Blk]) {
      EXPECT_TRUE(R.BlockInvariant[Blk]->isTop());
    }
  }
}

//===----------------------------------------------------------------------===//
// Non-finite constraint sanitization
//===----------------------------------------------------------------------===//

TEST(Robustness, NaNBoundConstraintIsDropped) {
  Octagon O(2);
  O.addConstraints({OctCons::upper(0, std::nan(""))});
  EXPECT_TRUE(O.isTop()); // Unordered bound: soundly ignored.
  EXPECT_FALSE(O.isBottom());
}

TEST(Robustness, MinusInfinityBoundMeansBottom) {
  Octagon O(2);
  O.addConstraints({OctCons::upper(0, -Infinity)});
  EXPECT_TRUE(O.isBottom()); // v0 <= -inf is unsatisfiable.
}

TEST(Robustness, NonFiniteAssignmentHavocsTheTarget) {
  Octagon O(2);
  O.assign(0, LinExpr::constant(5.0));
  O.assign(1, LinExpr::constant(std::nan("")));
  Interval B0 = O.bounds(0);
  EXPECT_EQ(B0.Lo, 5.0);
  EXPECT_EQ(B0.Hi, 5.0); // Neighbour unharmed.
  Interval B1 = O.bounds(1);
  EXPECT_EQ(B1.Hi, Infinity); // Target soundly forgotten.
}

TEST(Robustness, HugeIntegerLiteralIsAParseError) {
  std::string Error;
  auto P = lang::parseProgram("var x; x = 99999999999999999999999999;", Error);
  EXPECT_FALSE(P);
  EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
}

//===----------------------------------------------------------------------===//
// Batch fault isolation: injection, retry, watchdog, determinism
//===----------------------------------------------------------------------===//

/// Clears the process-global fault plan around every test so no rule
/// leaks into unrelated suites.
class BatchFaults : public ::testing::Test {
protected:
  void SetUp() override { support::FaultPlan::global().clear(); }
  void TearDown() override { support::FaultPlan::global().clear(); }
};

runtime::BatchJob loopJob(const char *Name) { return {Name, LoopProgram}; }

TEST_F(BatchFaults, InjectedAllocFailureIsRetriedAndSucceeds) {
  support::FaultRule Rule;
  Rule.Site = "oct.alloc";
  Rule.Kind = support::FaultKind::AllocFail;
  Rule.JobPattern = "flaky";
  Rule.Hits = 1; // First attempt fails, the retry runs clean.
  support::FaultPlan::global().addRule(Rule);

  runtime::BatchOptions Opts;
  Opts.MaxAttempts = 2;
  Opts.BackoffBaseMs = 1;
  runtime::BatchReport R =
      runtime::runBatch({loopJob("flaky"), loopJob("steady")}, Opts);

  ASSERT_EQ(R.Results.size(), 2u);
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Ok);
  EXPECT_TRUE(R.Results[0].Ok);
  EXPECT_EQ(R.Results[0].Attempts, 2u);
  ASSERT_EQ(R.Results[0].FailureLog.size(), 1u);
  EXPECT_NE(R.Results[0].FailureLog[0].find("attempt 1"), std::string::npos);
  EXPECT_EQ(R.Results[0].AssertsProven, 2u);

  EXPECT_EQ(R.Results[1].Status, runtime::JobStatus::Ok);
  EXPECT_EQ(R.Results[1].Attempts, 1u);
  EXPECT_EQ(R.JobsOk, 2u);
  EXPECT_EQ(R.Retries, 1u);
}

TEST_F(BatchFaults, PersistentFailureExhaustsAttempts) {
  support::FaultRule Rule;
  Rule.Site = "batch.job";
  Rule.Kind = support::FaultKind::AllocFail;
  Rule.Hits = 100; // Never burns out.
  support::FaultPlan::global().addRule(Rule);

  runtime::BatchOptions Opts;
  Opts.MaxAttempts = 3;
  Opts.BackoffBaseMs = 1;
  runtime::BatchReport R = runtime::runBatch({loopJob("doomed")}, Opts);

  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Failed);
  EXPECT_FALSE(R.Results[0].Ok);
  EXPECT_EQ(R.Results[0].Attempts, 3u);
  EXPECT_EQ(R.Results[0].FailureLog.size(), 3u);
  EXPECT_EQ(R.JobsFailed, 1u);
  EXPECT_EQ(R.Retries, 2u);
}

TEST_F(BatchFaults, ParseErrorIsNotRetried) {
  runtime::BatchOptions Opts;
  Opts.MaxAttempts = 3;
  runtime::BatchReport R =
      runtime::runBatch({{"bad", "var x; x = ;"}}, Opts);
  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Failed);
  // A parse error recurs deterministically; retrying it is pure waste.
  EXPECT_EQ(R.Results[0].Attempts, 1u);
  EXPECT_EQ(R.Retries, 0u);
}

TEST_F(BatchFaults, InjectedTimeoutMapsToTimeoutAndIsTerminal) {
  support::FaultRule Rule;
  Rule.Site = "engine.visit";
  Rule.Kind = support::FaultKind::Timeout;
  support::FaultPlan::global().addRule(Rule);

  runtime::BatchOptions Opts;
  Opts.MaxAttempts = 3;
  runtime::BatchReport R = runtime::runBatch({loopJob("stuck")}, Opts);

  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Timeout);
  // The engine degraded soundly, so results (Top invariants) exist.
  EXPECT_TRUE(R.Results[0].Ok);
  // Budget trips recur deterministically: no retry.
  EXPECT_EQ(R.Results[0].Attempts, 1u);
  EXPECT_EQ(R.JobsTimedOut, 1u);
}

TEST_F(BatchFaults, WatchdogFlagsAJobSleepingPastItsDeadline) {
  support::FaultRule Rule;
  Rule.Site = "engine.visit";
  Rule.Kind = support::FaultKind::Slow;
  Rule.SlowMs = 250;
  Rule.Hits = 1;
  support::FaultPlan::global().addRule(Rule);

  runtime::BatchOptions Opts;
  Opts.Budget.DeadlineMs = 30;
  Opts.WatchdogPollMs = 5;
  runtime::BatchReport R = runtime::runBatch({loopJob("sleeper")}, Opts);

  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Timeout);
  EXPECT_TRUE(R.Results[0].Ok); // Degraded-but-sound Top invariants.
  EXPECT_EQ(R.JobsTimedOut, 1u);
}

TEST_F(BatchFaults, PoisonedBoundsDegradePrecisionNotSoundness) {
  support::FaultRule Rule;
  Rule.Site = "oct.constraint";
  Rule.Kind = support::FaultKind::PoisonBound;
  Rule.Hits = 1000000; // Poison every constraint the job meets.
  support::FaultPlan::global().addRule(Rule);

  runtime::BatchReport R = runtime::runBatch({loopJob("poisoned")}, {});
  ASSERT_EQ(R.Results.size(), 1u);
  // NaN bounds are dropped at the boundary: the job completes with
  // weaker invariants (it can no longer prove the asserts), it does
  // not crash or report nonsense.
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Ok);
  EXPECT_EQ(R.Results[0].AssertsTotal, 2u);
  EXPECT_LE(R.Results[0].AssertsProven, 2u);
}

TEST_F(BatchFaults, StatusesDeterministicAcrossWorkerCounts) {
  support::FaultRule Fail;
  Fail.Site = "oct.alloc";
  Fail.Kind = support::FaultKind::AllocFail;
  Fail.JobPattern = "flaky";
  Fail.Hits = 1;
  support::FaultPlan::global().addRule(Fail);
  support::FaultRule Stuck;
  Stuck.Site = "engine.visit";
  Stuck.Kind = support::FaultKind::Timeout;
  Stuck.JobPattern = "stuck";
  support::FaultPlan::global().addRule(Stuck);
  support::FaultPlan::global().setSeed(42);

  std::vector<runtime::BatchJob> Jobs = {
      loopJob("steady-a"), loopJob("flaky"),        loopJob("stuck"),
      {"bad", "var x = ;"}, loopJob("steady-b")};

  auto statusKey = [](const runtime::BatchReport &R) {
    std::string Key;
    for (const runtime::JobResult &J : R.Results)
      Key += J.Name + ":" + runtime::jobStatusName(J.Status) + ":" +
             std::to_string(J.Attempts) + ";";
    return Key;
  };

  runtime::BatchOptions Opts;
  Opts.MaxAttempts = 2;
  Opts.BackoffBaseMs = 1;

  Opts.Jobs = 1;
  runtime::BatchReport Serial = runtime::runBatch(Jobs, Opts);
  // Hit counters persist across runs: replaying the plan needs a reset.
  support::FaultPlan::global().resetCounters();
  Opts.Jobs = 4;
  runtime::BatchReport Parallel = runtime::runBatch(Jobs, Opts);

  EXPECT_EQ(statusKey(Serial), statusKey(Parallel));
  EXPECT_EQ(Serial.JobsOk, Parallel.JobsOk);
  EXPECT_EQ(Serial.Retries, Parallel.Retries);
}

TEST_F(BatchFaults, RuleSpecParserAcceptsAndRejects) {
  std::string Error;
  EXPECT_TRUE(support::FaultPlan::global().parseRule(
      "site=oct.alloc,kind=alloc,job=x,hits=2,prob=0.5", Error))
      << Error;
  EXPECT_TRUE(support::FaultPlan::global().parseRule(
      "site=engine.visit,kind=slow,ms=5", Error))
      << Error;
  EXPECT_FALSE(
      support::FaultPlan::global().parseRule("kind=alloc", Error)); // No site.
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(support::FaultPlan::global().parseRule(
      "site=x,kind=meteor", Error)); // Unknown kind.
  EXPECT_FALSE(support::FaultPlan::global().parseRule(
      "site=x,kind=alloc,hits=zebra", Error)); // Garbage number.
}

TEST_F(BatchFaults, BudgetedBatchDegradesCellHungryJobs) {
  runtime::BatchOptions Opts;
  Opts.Budget.MaxDbmCells = 64; // Trips on the first few octagon copies.
  runtime::BatchReport R = runtime::runBatch({loopJob("hungry")}, Opts);
  ASSERT_EQ(R.Results.size(), 1u);
  EXPECT_EQ(R.Results[0].Status, runtime::JobStatus::Degraded);
  EXPECT_TRUE(R.Results[0].Ok);
  EXPECT_NE(R.Results[0].Detail.find("DBM-cell"), std::string::npos)
      << R.Results[0].Detail;
  EXPECT_EQ(R.JobsDegraded, 1u);
}

} // namespace
