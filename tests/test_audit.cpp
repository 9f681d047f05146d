//===- tests/test_audit.cpp - Operator self-audit tests -------------------===//
///
/// Level 1 of the recovery ladder: closure-result validation, sampled
/// cross-checks against the reference closure, and — the load-bearing
/// property — recovery: a poisoned closure result is detected,
/// discarded, and recomputed via the reference path so the analysis
/// finishes with the same sound verdicts it would have produced
/// uncorrupted.

#include "oct/octagon.h"
#include "runtime/batch.h"
#include "support/audit.h"
#include "support/faultinject.h"

#include <gtest/gtest.h>

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

/// Clears both process-global facilities around every test: no fault
/// rule or audit configuration may leak into unrelated suites.
class Audit : public ::testing::Test {
protected:
  void SetUp() override {
    support::FaultPlan::global().clear();
    support::setAuditConfig(support::AuditConfig{});
    support::setAuditLogSink(nullptr);
  }
  void TearDown() override {
    support::FaultPlan::global().clear();
    support::setAuditConfig(support::AuditConfig{});
    support::setAuditLogSink(nullptr);
  }
};

Octagon constrainedOctagon() {
  Octagon O(4);
  O.addConstraint(OctCons::upper(0, 5.0));
  O.addConstraint(OctCons::lower(0, -1.0));
  O.addConstraint(OctCons::diff(1, 0, 2.0));
  O.addConstraint(OctCons::sum(2, 3, 10.0));
  O.addConstraint(OctCons::upper(2, 4.0));
  return O;
}

TEST_F(Audit, DisabledByDefaultAndRecordsNothing) {
  EXPECT_FALSE(support::auditEnabled());
  support::AuditLog Log;
  support::setAuditLogSink(&Log);
  Octagon O = constrainedOctagon();
  O.close();
  EXPECT_EQ(Log.validations(), 0u);
  EXPECT_EQ(Log.incidentCount(), 0u);
}

TEST_F(Audit, ValidatesCleanClosuresWithoutIncidents) {
  support::AuditConfig Cfg;
  Cfg.Enabled = true;
  Cfg.CrossCheckRate = 1.0; // every closure fully cross-checked
  support::AuditConfigScope Scope(Cfg);
  support::AuditLog Log;
  support::setAuditLogSink(&Log);

  Octagon O = constrainedOctagon();
  O.close();
  EXPECT_FALSE(O.isBottom());
  EXPECT_GE(Log.validations(), 1u);
  EXPECT_EQ(Log.crossChecks(), Log.validations());
  EXPECT_EQ(Log.incidentCount(), 0u) << Log.incidents()[0].Detail;
}

TEST_F(Audit, AuditedClosureMatchesUnauditedClosure) {
  Octagon Plain = constrainedOctagon();
  Plain.close();

  support::AuditConfig Cfg;
  Cfg.Enabled = true;
  Cfg.CrossCheckRate = 1.0;
  support::AuditConfigScope Scope(Cfg);
  Octagon Audited = constrainedOctagon();
  Audited.close();

  EXPECT_TRUE(Audited.equals(Plain));
}

TEST_F(Audit, PoisonedResultIsDetectedAndRecovered) {
  // Reference outcome, computed clean.
  Octagon Clean = constrainedOctagon();
  Clean.close();

  // Poison a live cell of every audited closure result (the fault site
  // sits downstream of all boundary sanitization — the silent-bit-flip
  // shape). Validation must catch each one and rebuild via the
  // reference closure.
  support::FaultRule Rule;
  Rule.Site = "closure.result";
  Rule.Kind = support::FaultKind::PoisonBound;
  Rule.Hits = 1000;
  support::FaultPlan::global().addRule(Rule);

  support::AuditConfig Cfg;
  Cfg.Enabled = true;
  Cfg.CrossCheckRate = 0.0; // validation layer alone must catch NaN
  support::AuditConfigScope Scope(Cfg);
  support::AuditLog Log;
  support::setAuditLogSink(&Log);

  Octagon Poisoned = constrainedOctagon();
  Poisoned.close();

  EXPECT_GE(Log.incidentCount(), 1u);
  ASSERT_FALSE(Log.incidents().empty());
  EXPECT_EQ(Log.incidents()[0].Where, "closure.validate");

  // The recovered octagon is *correct*, not merely non-NaN.
  support::FaultPlan::global().clear();
  EXPECT_TRUE(Poisoned.equals(Clean));
}

// An assignment closes through close(), so the audit sees every
// assignment closure: one validation each, and a poisoned result right
// after x := y + c is caught and rebuilt from the reference closure.
TEST_F(Audit, AssignmentClosuresAreAudited) {
  auto Assignments = [](Octagon &O) {
    O.assign(0, LinExpr::constant(3.0)); // x := c
    LinExpr YPlus = LinExpr::variable(0);
    YPlus.Const = 2.0;
    O.assign(1, YPlus); // x := y + c
    LinExpr Sum;
    Sum.Terms = {{1, 0}, {1, 1}};
    O.assign(2, Sum); // the interval fallback
  };
  Octagon Clean(3);
  Assignments(Clean);

  support::AuditConfig Cfg;
  Cfg.Enabled = true;
  Cfg.CrossCheckRate = 1.0;
  support::AuditConfigScope Scope(Cfg);
  support::AuditLog Log;
  support::setAuditLogSink(&Log);

  // Audit rate 1: each closure is validated and cross-checked. The first
  // assignment closes nothing beforehand (Top is closed), and each one
  // leaves its result closed, so the three closures are the three
  // assignments'.
  Octagon Audited(3);
  Assignments(Audited);
  EXPECT_TRUE(Audited.isClosed());
  EXPECT_EQ(Log.validations(), 3u);
  EXPECT_EQ(Log.crossChecks(), 3u);
  EXPECT_EQ(Log.incidentCount(), 0u);
  EXPECT_TRUE(Audited.equals(Clean));

  // Poison the closure that follows x := y + c.
  Octagon Poisoned(3);
  Poisoned.assign(0, LinExpr::constant(3.0));
  support::FaultRule Rule;
  Rule.Site = "closure.result";
  Rule.Kind = support::FaultKind::PoisonBound;
  Rule.Hits = 1;
  support::FaultPlan::global().addRule(Rule);
  LinExpr YPlus = LinExpr::variable(0);
  YPlus.Const = 2.0;
  Poisoned.assign(1, YPlus);
  support::FaultPlan::global().clear();
  ASSERT_EQ(Log.incidentCount(), 1u);
  EXPECT_EQ(Log.incidents()[0].Where, "closure.validate");

  // Recovered to the reference closure of the same input.
  Octagon Reference(3);
  Reference.assign(0, LinExpr::constant(3.0));
  Reference.assign(1, YPlus);
  EXPECT_TRUE(Poisoned.equals(Reference));
  EXPECT_EQ(Poisoned.bounds(1).Lo, 5.0);
  EXPECT_EQ(Poisoned.bounds(1).Hi, 5.0);
}

TEST_F(Audit, CrossCheckRateZeroNeverCrossChecks) {
  support::AuditConfig Cfg;
  Cfg.Enabled = true;
  Cfg.CrossCheckRate = 0.0;
  support::AuditConfigScope Scope(Cfg);
  support::AuditLog Log;
  support::setAuditLogSink(&Log);
  Octagon O = constrainedOctagon();
  O.close();
  EXPECT_GE(Log.validations(), 1u);
  EXPECT_EQ(Log.crossChecks(), 0u);
}

TEST_F(Audit, SamplingIsDeterministicInTheTickSequence) {
  support::AuditConfig Cfg;
  Cfg.Enabled = true;
  Cfg.CrossCheckRate = 0.5;
  Cfg.Seed = 7;
  support::AuditConfigScope Scope(Cfg);

  auto Draw = [] {
    support::AuditLog Log; // fresh log => ticks restart at 0
    support::setAuditLogSink(&Log);
    std::vector<bool> Picks;
    for (int I = 0; I != 64; ++I)
      Picks.push_back(support::auditShouldCrossCheck());
    support::setAuditLogSink(nullptr);
    return Picks;
  };
  std::vector<bool> A = Draw(), B = Draw();
  EXPECT_EQ(A, B);
  // And the rate is honored at least loosely (0.5 +- wide slack).
  int Hits = 0;
  for (bool P : A)
    Hits += P;
  EXPECT_GT(Hits, 8);
  EXPECT_LT(Hits, 56);
}

TEST_F(Audit, BatchRecoversPoisonedJobsWithIdenticalVerdicts) {
  std::vector<runtime::BatchJob> Jobs = {{"clean-a", LoopProgram},
                                         {"clean-b", LoopProgram}};

  runtime::BatchOptions Plain;
  runtime::BatchReport Baseline = runtime::runBatch(Jobs, Plain);
  ASSERT_EQ(Baseline.JobsOk, 2u);

  support::FaultRule Rule;
  Rule.Site = "closure.result";
  Rule.Kind = support::FaultKind::PoisonBound;
  Rule.JobPattern = "clean-a";
  Rule.Hits = 1000;
  support::FaultPlan::global().addRule(Rule);

  runtime::BatchOptions WithAudit;
  WithAudit.Audit.Enabled = true;
  WithAudit.Audit.CrossCheckRate = 0.0;
  runtime::BatchReport Audited = runtime::runBatch(Jobs, WithAudit);

  // The poisoned job finishes ok, with incidents on record, and its
  // verdicts and invariants match the unpoisoned baseline exactly.
  EXPECT_EQ(Audited.JobsOk, 2u);
  EXPECT_GE(Audited.Results[0].AuditIncidentCount, 1u);
  EXPECT_GE(Audited.AuditIncidentTotal, 1u);
  EXPECT_EQ(Audited.Results[0].AssertsProven, Baseline.Results[0].AssertsProven);
  EXPECT_EQ(Audited.Results[0].AssertsTotal, Baseline.Results[0].AssertsTotal);
  EXPECT_EQ(Audited.Results[0].LoopInvariants, Baseline.Results[0].LoopInvariants);
  // The untouched job audited clean.
  EXPECT_EQ(Audited.Results[1].AuditIncidentCount, 0u);
  EXPECT_GE(Audited.Results[1].AuditValidations, 1u);
}

TEST_F(Audit, ConfigScopeRestoresPreviousConfig) {
  EXPECT_FALSE(support::auditEnabled());
  {
    support::AuditConfig Cfg;
    Cfg.Enabled = true;
    support::AuditConfigScope Scope(Cfg);
    EXPECT_TRUE(support::auditEnabled());
  }
  EXPECT_FALSE(support::auditEnabled());
}

TEST_F(Audit, IncidentLogCapsStoredIncidentsButCountsAll) {
  support::AuditLog Log;
  for (int I = 0; I != 200; ++I)
    Log.recordIncident("w", "d");
  EXPECT_EQ(Log.incidentCount(), 200u);
  EXPECT_LE(Log.incidents().size(), 64u);
}

} // namespace
