//===- tests/test_journal.cpp - Crash-safe batch journal tests ------------===//
///
/// Level 2 of the recovery ladder. The load-bearing property, proven
/// deterministically here (and against a real SIGKILL in CI): a batch
/// that dies at a checkpoint and is resumed produces a final report
/// byte-identical (canonical rendering) to an uninterrupted run.

#include "runtime/batch.h"
#include "runtime/journal.h"
#include "support/faultinject.h"
#include "support/fnv.h"
#include "support/textcodec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

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

const char *StraightLineProgram = "var a, b;\n"
                                  "a = 1; b = a + 2;\n"
                                  "assert(b == 3);\n";

const char *BrokenProgram = "var x;\nx = ;\n"; // parse error, fails cleanly

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "optoct_" + Name + "." +
         std::to_string(::getpid());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void spill(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

std::vector<BatchJob> testJobs() {
  return {{"loop-a", LoopProgram},
          {"straight", StraightLineProgram},
          {"loop-b", LoopProgram},
          {"broken", BrokenProgram},
          {"loop-c", LoopProgram}};
}

JobResult sampleResult() {
  JobResult R;
  R.Name = "weird \"name\"\nwith % and \x01 control bytes";
  R.Ok = true;
  R.Status = JobStatus::Degraded;
  R.Attempts = 3;
  R.Detail = "percent: 100%\ttab";
  R.FailureLog = {"attempt 1: boom", "attempt 2: bang\n(with newline)"};
  R.AssertsProven = 7;
  R.AssertsTotal = 9;
  R.UnprovenAssertLines = {12, -1, 40};
  R.LoopInvariants = {"bb2: { x0 <= 4.5 }", "bb5: unreachable"};
  R.NumClosures = 123456789012345ull;
  R.ClosureCycles = 987654321;
  R.OctagonCycles = 55;
  R.BlockVisits = 4242;
  R.NMin = 2;
  R.NMax = 64;
  R.WallSeconds = 0.1234567890123456789;
  R.AuditValidations = 17;
  R.AuditCrossChecks = 3;
  R.AuditIncidentCount = 2;
  R.AuditIncidents = {"closure.validate: NaN at m[3][2]",
                      "closure.crosscheck: optimized m[0][1] = 4 vs 5"};
  return R;
}

void expectEqualResults(const JobResult &A, const JobResult &B) {
  EXPECT_EQ(A.Name, B.Name);
  EXPECT_EQ(A.Ok, B.Ok);
  EXPECT_EQ(A.Status, B.Status);
  EXPECT_EQ(A.Attempts, B.Attempts);
  EXPECT_EQ(A.Error, B.Error);
  EXPECT_EQ(A.Detail, B.Detail);
  EXPECT_EQ(A.FailureLog, B.FailureLog);
  EXPECT_EQ(A.AssertsProven, B.AssertsProven);
  EXPECT_EQ(A.AssertsTotal, B.AssertsTotal);
  EXPECT_EQ(A.UnprovenAssertLines, B.UnprovenAssertLines);
  EXPECT_EQ(A.LoopInvariants, B.LoopInvariants);
  EXPECT_EQ(A.NumClosures, B.NumClosures);
  EXPECT_EQ(A.ClosureCycles, B.ClosureCycles);
  EXPECT_EQ(A.OctagonCycles, B.OctagonCycles);
  EXPECT_EQ(A.BlockVisits, B.BlockVisits);
  EXPECT_EQ(A.NMin, B.NMin);
  EXPECT_EQ(A.NMax, B.NMax);
  EXPECT_EQ(A.WallSeconds, B.WallSeconds); // %.17g: bit-exact
  EXPECT_EQ(A.AuditValidations, B.AuditValidations);
  EXPECT_EQ(A.AuditCrossChecks, B.AuditCrossChecks);
  EXPECT_EQ(A.AuditIncidentCount, B.AuditIncidentCount);
  EXPECT_EQ(A.AuditIncidents, B.AuditIncidents);
}

/// Clears the fault plan around each test (the crash tests arm it).
class Journal : public ::testing::Test {
protected:
  void SetUp() override { support::FaultPlan::global().clear(); }
  void TearDown() override { support::FaultPlan::global().clear(); }
};

TEST_F(Journal, JobResultRoundTripsEveryField) {
  JobResult R = sampleResult();
  std::string Body = serializeJobResult(R);
  JobResult Back;
  std::string Error;
  ASSERT_TRUE(deserializeJobResult(Body, Back, Error)) << Error;
  expectEqualResults(R, Back);
  // Serialization of the round-tripped result is a fixpoint.
  EXPECT_EQ(serializeJobResult(Back), Body);
}

TEST_F(Journal, FailedJobResultRoundTrips) {
  JobResult R;
  R.Name = "broken";
  R.Ok = false;
  R.Status = JobStatus::Failed;
  R.Attempts = 1;
  R.Error = "parse error at line 2";
  std::string Body = serializeJobResult(R);
  JobResult Back;
  std::string Error;
  ASSERT_TRUE(deserializeJobResult(Body, Back, Error)) << Error;
  expectEqualResults(R, Back);
}

TEST_F(Journal, DeserializeRejectsMalformedBodies) {
  JobResult R;
  std::string E;
  EXPECT_FALSE(deserializeJobResult("", R, E));
  EXPECT_FALSE(deserializeJobResult("garbage line\n", R, E));
  EXPECT_FALSE(deserializeJobResult("name x\n", R, E)); // missing status
  EXPECT_FALSE(deserializeJobResult("name x\nstatus sideways\n", R, E));
  EXPECT_FALSE(deserializeJobResult("name bad%zz\nstatus ok\n", R, E));
  EXPECT_FALSE(deserializeJobResult("name x\nstatus ok\nattempts joe\n", R, E));
  EXPECT_FALSE(
      deserializeJobResult("name x\nstatus ok\ncounters 1 2\n", R, E));
  EXPECT_FALSE(deserializeJobResult("name x\nstatus ok\nwall soon\n", R, E));
  EXPECT_FALSE(E.empty());
}

TEST_F(Journal, WriteThenLoadRecoversAllRecords) {
  std::string Path = tempPath("wl");
  JournalWriter W;
  std::string Error;
  ASSERT_TRUE(W.open(Path, 0xabcdef1234567890ull, 3, Error)) << Error;
  JobResult R0 = sampleResult();
  JobResult R2;
  R2.Name = "second";
  R2.Status = JobStatus::Ok;
  R2.Ok = true;
  R2.Attempts = 1;
  EXPECT_TRUE(W.append(0, R0));
  EXPECT_TRUE(W.append(2, R2));
  W.close();

  JournalLoad L = loadJournal(Path);
  EXPECT_TRUE(L.Error.empty()) << L.Error;
  EXPECT_TRUE(L.HeaderOk);
  EXPECT_FALSE(L.TailCorrupt);
  EXPECT_EQ(L.Fingerprint, 0xabcdef1234567890ull);
  EXPECT_EQ(L.JobCount, 3u);
  ASSERT_EQ(L.Records.size(), 2u);
  EXPECT_EQ(L.Records[0].first, 0u);
  EXPECT_EQ(L.Records[1].first, 2u);
  expectEqualResults(L.Records[0].second, R0);
  expectEqualResults(L.Records[1].second, R2);
  std::remove(Path.c_str());
}

TEST_F(Journal, TornTailIsSalvagedNotFatal) {
  std::string Path = tempPath("torn");
  JournalWriter W;
  std::string Error;
  ASSERT_TRUE(W.open(Path, 1, 2, Error)) << Error;
  JobResult R = sampleResult();
  ASSERT_TRUE(W.append(0, R));
  ASSERT_TRUE(W.append(1, R));
  W.close();

  std::string Bytes = slurp(Path);
  // Chop the file mid-final-record, as a crash during write(2) would.
  for (std::size_t Cut = Bytes.size() - 1; Cut > Bytes.size() - 40; --Cut) {
    spill(Path, Bytes.substr(0, Cut));
    JournalLoad L = loadJournal(Path);
    EXPECT_TRUE(L.Error.empty()) << L.Error;
    EXPECT_TRUE(L.HeaderOk);
    EXPECT_TRUE(L.TailCorrupt);
    ASSERT_EQ(L.Records.size(), 1u) << "cut at " << Cut;
    EXPECT_EQ(L.Records[0].first, 0u);
  }
  // Flipped byte inside the last record body: checksum rejects it.
  std::string Flipped = Bytes;
  Flipped[Bytes.size() - 10] ^= 0x20;
  spill(Path, Flipped);
  JournalLoad L = loadJournal(Path);
  EXPECT_TRUE(L.TailCorrupt);
  EXPECT_EQ(L.Records.size(), 1u);
  std::remove(Path.c_str());
}

TEST_F(Journal, LoadReportsMissingFileAndBadMagic) {
  JournalLoad Missing = loadJournal(tempPath("nonexistent"));
  EXPECT_FALSE(Missing.Error.empty());
  std::string Path = tempPath("magic");
  spill(Path, "not a journal\n");
  JournalLoad Bad = loadJournal(Path);
  EXPECT_FALSE(Bad.Error.empty());
  EXPECT_FALSE(Bad.HeaderOk);
  std::remove(Path.c_str());
}

TEST_F(Journal, FingerprintTracksJobsAndResultShapingOptions) {
  std::vector<BatchJob> Jobs = testJobs();
  BatchOptions Opts;
  std::uint64_t Base = jobSetFingerprint(Jobs, Opts);
  EXPECT_EQ(Base, jobSetFingerprint(testJobs(), Opts));

  // Timing-only knobs must not move it: resuming with another worker
  // count or backoff is legal.
  BatchOptions Timing = Opts;
  Timing.Jobs = 8;
  Timing.BackoffBaseMs = 999;
  Timing.WatchdogPollMs = 1;
  EXPECT_EQ(Base, jobSetFingerprint(Jobs, Timing));

  // Result-shaping knobs and the job set itself must move it.
  BatchOptions Widen = Opts;
  Widen.Engine.WideningDelay += 1;
  EXPECT_NE(Base, jobSetFingerprint(Jobs, Widen));
  BatchOptions Cells = Opts;
  Cells.Budget.MaxDbmCells = 12345;
  EXPECT_NE(Base, jobSetFingerprint(Jobs, Cells));
  std::vector<BatchJob> Renamed = testJobs();
  Renamed[0].Name = "loop-a2";
  EXPECT_NE(Base, jobSetFingerprint(Renamed, Opts));
  std::vector<BatchJob> Edited = testJobs();
  Edited[2].Source += " ";
  EXPECT_NE(Base, jobSetFingerprint(Edited, Opts));
}

TEST_F(Journal, ResumedBatchReportIsByteIdenticalCanonical) {
  std::vector<BatchJob> Jobs = testJobs();
  std::string FullPath = tempPath("full");
  std::string PartPath = tempPath("part");

  BatchOptions Opts;
  Opts.JournalPath = FullPath;
  BatchReport Uninterrupted = runBatch(Jobs, Opts);
  std::string Want = reportToJson(Uninterrupted, /*Canonical=*/true);

  // Fabricate the post-crash state: a journal holding only the first
  // two completed records of the full run.
  JournalLoad Full = loadJournal(FullPath);
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  ASSERT_GE(Full.Records.size(), 3u);
  {
    JournalWriter W;
    std::string Error;
    ASSERT_TRUE(W.open(PartPath, Full.Fingerprint, Full.JobCount, Error))
        << Error;
    for (std::size_t I = 0; I != 2; ++I)
      ASSERT_TRUE(W.append(Full.Records[I].first, Full.Records[I].second));
  }

  // Resume from the partial journal, at a *different* worker count.
  BatchOptions ResumeOpts;
  ResumeOpts.JournalPath = PartPath;
  ResumeOpts.Resume = true;
  ResumeOpts.Jobs = 2;
  BatchReport Resumed = runBatch(Jobs, ResumeOpts);
  EXPECT_EQ(Resumed.JobsResumed, 2u);
  EXPECT_EQ(reportToJson(Resumed, /*Canonical=*/true), Want);

  // The replayed journal now holds every job; resuming again runs
  // nothing and still renders identically.
  BatchReport Replayed = runBatch(Jobs, ResumeOpts);
  EXPECT_EQ(Replayed.JobsResumed, Jobs.size());
  EXPECT_EQ(reportToJson(Replayed, /*Canonical=*/true), Want);

  std::remove(FullPath.c_str());
  std::remove(PartPath.c_str());
}

TEST_F(Journal, ResumeRejectsForeignJournal) {
  std::vector<BatchJob> Jobs = testJobs();
  std::string Path = tempPath("foreign");
  BatchOptions Opts;
  Opts.JournalPath = Path;
  runBatch(Jobs, Opts);

  // Same path, different engine options => fingerprint mismatch.
  BatchOptions Mismatch;
  Mismatch.JournalPath = Path;
  Mismatch.Resume = true;
  Mismatch.Engine.WideningDelay += 5;
  EXPECT_THROW(runBatch(Jobs, Mismatch), std::runtime_error);

  // Missing journal file is also a hard resume error.
  BatchOptions Gone;
  Gone.JournalPath = tempPath("gone");
  Gone.Resume = true;
  EXPECT_THROW(runBatch(Jobs, Gone), std::runtime_error);
  std::remove(Path.c_str());
}

// A journal of the FNV-1a 64 format ("optoct-journal v1", written the
// way the writer before CRC32C did) is refused by name on --resume:
// never salvaged, never taken for a foreign job set, and left as it was.
TEST_F(Journal, ResumeRefusesStaleJournalByName) {
  std::vector<BatchJob> Jobs = testJobs();
  std::string FullPath = tempPath("v2full");
  std::string Path = tempPath("v1");
  BatchOptions Opts;
  Opts.JournalPath = FullPath;
  runBatch(Jobs, Opts);
  JournalLoad Full = loadJournal(FullPath);
  ASSERT_TRUE(Full.Error.empty()) << Full.Error;
  EXPECT_EQ(slurp(FullPath).rfind("optoct-journal v2\nmeta ", 0), 0u);

  std::string V1 = "optoct-journal v1\nmeta " +
                   support::hex64(Full.Fingerprint) + " " +
                   std::to_string(Full.JobCount) + "\n";
  for (std::size_t I = 0; I != 2; ++I) {
    std::string Body = serializeJobResult(Full.Records[I].second);
    V1 += "rec " + std::to_string(Full.Records[I].first) + " " +
          std::to_string(Body.size()) + " " +
          support::hex64(support::fnv1a64(Body)) + "\n" + Body + "\n";
  }
  spill(Path, V1);

  JournalLoad L = loadJournal(Path);
  EXPECT_FALSE(L.HeaderOk);
  EXPECT_TRUE(L.Records.empty());
  EXPECT_EQ(L.Error, "stale journal (optoct-journal v1, this build reads "
                     "v2); rerun without --resume");

  BatchOptions Resume;
  Resume.JournalPath = Path;
  Resume.Resume = true;
  for (IsolationMode Mode : {IsolationMode::Thread, IsolationMode::Process}) {
    Resume.Isolation = Mode;
    try {
      runBatch(Jobs, Resume);
      ADD_FAILURE() << "a stale journal was resumed";
    } catch (const std::runtime_error &E) {
      EXPECT_EQ(std::string(E.what()), "journal resume: " + L.Error);
    }
  }
  EXPECT_EQ(slurp(Path), V1);
  std::remove(FullPath.c_str());
  std::remove(Path.c_str());
}

TEST_F(Journal, ResumeWithoutJournalIsRejected) {
  // Nothing to resume from: running a fresh batch instead would hide
  // the caller's mistake, in either isolation tier.
  std::vector<BatchJob> Jobs = testJobs();
  BatchOptions Opts;
  Opts.Resume = true;
  EXPECT_THROW(runBatch(Jobs, Opts), std::invalid_argument);
  Opts.Isolation = IsolationMode::Process;
  EXPECT_THROW(runBatch(Jobs, Opts), std::invalid_argument);
}

TEST_F(Journal, ResumeRejectsMismatchedJobSetFingerprint) {
  // A journal written for one job set must refuse to seed a resume of
  // a *different* job set — silently merging foreign records would
  // attribute one program's invariants to another. Same options, same
  // job count, one source edited: only the fingerprint can tell.
  std::vector<BatchJob> Jobs = testJobs();
  std::string Path = tempPath("jobset");
  BatchOptions Opts;
  Opts.JournalPath = Path;
  runBatch(Jobs, Opts);

  std::vector<BatchJob> Edited = testJobs();
  Edited[1].Source = StraightLineProgram + std::string("assert(a == 1);\n");
  BatchOptions ResumeOpts;
  ResumeOpts.JournalPath = Path;
  ResumeOpts.Resume = true;
  try {
    runBatch(Edited, ResumeOpts);
    FAIL() << "resume accepted a journal from a different job set";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("fingerprint"), std::string::npos)
        << E.what();
  }

  // Renaming a job (same sources otherwise) must be rejected too.
  std::vector<BatchJob> Renamed = testJobs();
  Renamed[0].Name = "loop-renamed";
  EXPECT_THROW(runBatch(Renamed, ResumeOpts), std::runtime_error);

  // The unedited job set still resumes fine against the same journal.
  BatchReport Resumed = runBatch(Jobs, ResumeOpts);
  EXPECT_EQ(Resumed.JobsResumed, Jobs.size());
  std::remove(Path.c_str());
}

TEST_F(Journal, CrashAtCheckpointDiesAfterDurableAppend) {
  // Deterministic stand-in for the CI SIGKILL smoke: the injected
  // crash fires *after* the second append's fsync, so exactly two
  // records must be on disk in the dead process's wake.
  std::string Path = tempPath("crash");
  EXPECT_EXIT(
      {
        support::FaultRule Rule;
        Rule.Site = "journal.append";
        Rule.Kind = support::FaultKind::Crash;
        Rule.After = 1;
        support::FaultPlan::global().addRule(Rule);
        BatchOptions Opts;
        Opts.JournalPath = Path;
        runBatch(testJobs(), Opts);
      },
      ::testing::ExitedWithCode(support::FaultCrashExitCode), "");

  JournalLoad L = loadJournal(Path);
  EXPECT_TRUE(L.Error.empty()) << L.Error;
  EXPECT_FALSE(L.TailCorrupt); // fsync'd frames only — nothing torn
  ASSERT_EQ(L.Records.size(), 2u);

  // And the dead batch resumes to the uninterrupted answer.
  std::vector<BatchJob> Jobs = testJobs();
  BatchReport Baseline = runBatch(Jobs, BatchOptions{});
  BatchOptions ResumeOpts;
  ResumeOpts.JournalPath = Path;
  ResumeOpts.Resume = true;
  BatchReport Resumed = runBatch(Jobs, ResumeOpts);
  EXPECT_EQ(Resumed.JobsResumed, 2u);
  EXPECT_EQ(reportToJson(Resumed, /*Canonical=*/true),
            reportToJson(Baseline, /*Canonical=*/true));
  std::remove(Path.c_str());
}

TEST_F(Journal, WriteFileAtomicReplacesAndLeavesNoTemp) {
  std::string Path = tempPath("atomic");
  std::string Error;
  ASSERT_TRUE(writeFileAtomic(Path, "first\n", Error)) << Error;
  EXPECT_EQ(slurp(Path), "first\n");
  ASSERT_TRUE(writeFileAtomic(Path, "second\n", Error)) << Error;
  EXPECT_EQ(slurp(Path), "second\n");
  std::ifstream Temp(Path + ".tmp." + std::to_string(::getpid()));
  EXPECT_FALSE(Temp.good());
  std::remove(Path.c_str());
}

} // namespace
