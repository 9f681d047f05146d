//===- tests/test_crash_survival.cpp - Crash-surviving batch guarantees ---===//
///
/// The guarantees a batch must keep when a job or the batch process
/// itself dies, checked on the one batch path that survives crashes:
/// process isolation (runtime/supervisor.h) plus the checkpoint journal
/// (runtime/journal.h). The headline property is byte-identity: the
/// canonical JSON of a run that lost workers, or that was resumed from
/// its journal, equals that of a clean serial thread-mode run, up to the
/// retry bookkeeping a lost worker leaves behind.
///
/// The suites keep the names these guarantees were first tested under,
/// by the multi-node shard coordinator that process mode replaced:
/// `Shard.*` for clean runs and option checks, `ShardChaos.*` for
/// injected worker deaths and wedges, `ShardMerge.*` for resuming from a
/// damaged or foreign journal.

#include "runtime/batch.h"
#include "runtime/journal.h"
#include "support/faultinject.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

namespace {

/// Small, fast, loop-carrying program (same shape as the supervisor
/// tests): proves both assertions in milliseconds.
std::string loopProgram(unsigned Bound) {
  std::string B = std::to_string(Bound);
  return "var x, y, n;\n"
         "n = havoc(); assume(n >= 0 && n <= " + B + ");\n"
         "x = 0; y = 0;\n"
         "while (x < n) {\n"
         "  x = x + 1;\n"
         "  if (y < x) { y = y + 1; }\n"
         "}\n"
         "assert(y <= x);\n"
         "assert(x <= " + B + ");\n";
}

std::vector<BatchJob> smallJobs(std::size_t Count) {
  std::vector<BatchJob> Jobs;
  for (std::size_t I = 0; I != Count; ++I) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "job%02zu", I);
    Jobs.push_back({Name, loopProgram(10 + static_cast<unsigned>(I))});
  }
  return Jobs;
}

void injectLethal(const char *Kind, const char *JobPattern,
                  unsigned Hits = 1) {
  std::string Error;
  ASSERT_TRUE(support::FaultPlan::global().parseRule(
      std::string("site=batch.job,kind=") + Kind + ",job=" + JobPattern +
          ",hits=" + std::to_string(Hits),
      Error))
      << Error;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "optoct_survive_" + Name + "." +
         std::to_string(::getpid());
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The byte-identity oracle: a clean serial thread-mode run rendered
/// canonically. Must be taken BEFORE arming any fault rule.
std::string canonicalBaseline(const std::vector<BatchJob> &Jobs) {
  BatchOptions Serial;
  Serial.Jobs = 1;
  return reportToJson(runBatch(Jobs, Serial), /*Canonical=*/true);
}

BatchOptions processOpts(unsigned Workers) {
  BatchOptions Opts;
  Opts.Jobs = Workers;
  Opts.Isolation = IsolationMode::Process;
  return Opts;
}

/// The canonical JSON with the traces of retried attempts scrubbed
/// (per-job attempts and failure logs, the batch retry count): what a
/// run that lost and replaced a worker must share with a clean run.
std::string scrubbedCanonical(BatchReport Report) {
  Report.Retries = 0;
  for (JobResult &R : Report.Results) {
    R.Attempts = 1;
    R.FailureLog.clear();
  }
  return reportToJson(Report, /*Canonical=*/true);
}

class Shard : public ::testing::Test {
protected:
  void SetUp() override { support::FaultPlan::global().clear(); }
  void TearDown() override { support::FaultPlan::global().clear(); }
};

using ShardChaos = Shard;
using ShardMerge = Shard;

// --- Clean runs and option checks ------------------------------------------

// A clean journaled process-mode run renders the thread-mode bytes, and
// its journal holds every job, so a resume replays it without forking.
TEST_F(Shard, CleanRunIsByteIdenticalToSingleNode) {
  std::vector<BatchJob> Jobs = smallJobs(9);
  std::string Base = canonicalBaseline(Jobs);

  std::string Path = tempPath("clean");
  std::remove(Path.c_str());
  BatchOptions Opts = processOpts(3);
  Opts.JournalPath = Path;
  BatchReport Report = runBatch(Jobs, Opts);
  EXPECT_EQ(reportToJson(Report, /*Canonical=*/true), Base);
  EXPECT_GE(Report.Supervisor.WorkersSpawned, 1u);
  EXPECT_EQ(Report.Supervisor.WorkersCrashed, 0u);
  EXPECT_EQ(Report.Supervisor.HardKills, 0u);

  JournalLoad Load = loadJournal(Path);
  ASSERT_TRUE(Load.Error.empty()) << Load.Error;
  EXPECT_FALSE(Load.TailCorrupt);
  EXPECT_EQ(Load.Records.size(), Jobs.size());

  Opts.Resume = true;
  BatchReport Replayed = runBatch(Jobs, Opts);
  EXPECT_EQ(Replayed.JobsResumed, Jobs.size());
  EXPECT_EQ(Replayed.Supervisor.WorkersSpawned, 0u);
  EXPECT_EQ(reportToJson(Replayed, /*Canonical=*/true), Base);
  std::remove(Path.c_str());
}

// Asking for more workers than there are jobs forks no idle worker.
TEST_F(Shard, MoreNodesThanJobsIsHarmless) {
  std::vector<BatchJob> Jobs = smallJobs(2);
  std::string Base = canonicalBaseline(Jobs);
  BatchReport Report = runBatch(Jobs, processOpts(6));
  EXPECT_EQ(reportToJson(Report, /*Canonical=*/true), Base);
  EXPECT_GE(Report.Supervisor.WorkersSpawned, 1u);
  EXPECT_LE(Report.Supervisor.WorkersSpawned, Jobs.size());
  EXPECT_EQ(Report.JobsOk, Jobs.size());
}

// An empty batch forks nothing, journaled or not, and its journal
// resumes to the same empty report.
TEST_F(Shard, EmptyBatchShortCircuits) {
  BatchReport Plain = runBatch({}, processOpts(4));
  EXPECT_TRUE(Plain.Results.empty());
  EXPECT_EQ(Plain.Supervisor.WorkersSpawned, 0u);

  std::string Path = tempPath("empty");
  std::remove(Path.c_str());
  BatchOptions Opts = processOpts(4);
  Opts.JournalPath = Path;
  BatchReport Journaled = runBatch({}, Opts);
  EXPECT_TRUE(Journaled.Results.empty());
  EXPECT_EQ(Journaled.Supervisor.WorkersSpawned, 0u);
  Opts.Resume = true;
  BatchReport Resumed = runBatch({}, Opts);
  EXPECT_EQ(Resumed.Supervisor.WorkersSpawned, 0u);
  EXPECT_EQ(reportToJson(Resumed, /*Canonical=*/true),
            reportToJson(Plain, /*Canonical=*/true));
  std::remove(Path.c_str());
}

// Without a journal a resume would silently run a fresh batch; it is
// refused before any worker is forked, for an empty batch too.
TEST_F(Shard, ResumeWithoutJournalIsRejected) {
  std::vector<BatchJob> Jobs = smallJobs(2);
  BatchOptions Opts = processOpts(2);
  Opts.Resume = true;
  EXPECT_THROW(runBatch(Jobs, Opts), std::invalid_argument);
  EXPECT_THROW(runBatch({}, Opts), std::invalid_argument);
}

// --- Chaos: worker deaths and wedges ---------------------------------------

// SIGSEGV one worker mid-run; the job is retried on a fresh worker, the
// lethal fault burns out on replay, and the report is byte-identical to
// the clean run once the retry bookkeeping is scrubbed.
TEST_F(ShardChaos, NodeDeathReLeaseIsByteIdentical) {
  std::vector<BatchJob> Jobs = smallJobs(10);
  std::string Base = canonicalBaseline(Jobs);

  injectLethal("segv", "job04");
  BatchOptions Opts = processOpts(4);
  Opts.MaxAttempts = 2;
  Opts.BackoffBaseMs = 1;
  BatchReport Report = runBatch(Jobs, Opts);

  EXPECT_GE(Report.Supervisor.WorkersCrashed, 1u) << "the fault never fired";
  EXPECT_EQ(Report.Results[4].Attempts, 2u);
  EXPECT_EQ(Report.Retries, 1u);
  EXPECT_EQ(Report.JobsCrashed, 0u);
  EXPECT_EQ(scrubbedCanonical(Report), Base)
      << "a worker death must not change the canonical report";
}

// A wedged job never polls its cancellation token; the supervisor
// hard-kills its worker and forks a fresh one for the rest of the batch.
// Deadlines recur, so the wedged job itself ends Timeout, not retried.
TEST_F(ShardChaos, LeaseExpiryRecoversWedgedNode) {
  std::vector<BatchJob> Jobs = smallJobs(6);
  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchReport Want = runBatch(Jobs, Serial);

  injectLethal("hang", "job02");
  BatchOptions Opts = processOpts(1); // one worker: the kill must be healed
  Opts.Budget.DeadlineMs = 300;
  Opts.HardKillGraceMs = 200;
  Opts.MaxAttempts = 2;
  BatchReport Report = runBatch(Jobs, Opts);

  const JobResult &Hung = Report.Results[2];
  EXPECT_EQ(Hung.Status, JobStatus::Timeout) << Hung.Error;
  EXPECT_EQ(Hung.Attempts, 1u) << "a hard kill is terminal";
  EXPECT_GE(Report.Supervisor.HardKills, 1u) << "the wedge was never caught";
  EXPECT_GE(Report.Supervisor.WorkersSpawned, 2u)
      << "the killed worker was never replaced";
  for (std::size_t I : {0u, 1u, 3u, 4u, 5u}) {
    EXPECT_EQ(Report.Results[I].Status, JobStatus::Ok) << I;
    EXPECT_EQ(Report.Results[I].AssertsProven, Want.Results[I].AssertsProven);
    EXPECT_EQ(Report.Results[I].LoopInvariants, Want.Results[I].LoopInvariants)
        << I;
  }
  EXPECT_EQ(Report.JobsOk, Jobs.size() - 1);
  EXPECT_EQ(Report.JobsTimedOut, 1u);
}

// A job that kills its worker on every attempt ends Crashed once its
// attempts are spent, without dragging down its batch-mates.
TEST_F(ShardChaos, PoisonJobPastReleaseCapIsLostNotFatal) {
  std::vector<BatchJob> Jobs = smallJobs(6);

  injectLethal("segv", "job03", /*Hits=*/100000);
  BatchOptions Opts = processOpts(2);
  Opts.MaxAttempts = 2;
  Opts.BackoffBaseMs = 1;
  BatchReport Report = runBatch(Jobs, Opts);

  ASSERT_EQ(Report.Results.size(), 6u);
  const JobResult &Poison = Report.Results[3];
  EXPECT_EQ(Poison.Status, JobStatus::Crashed);
  EXPECT_FALSE(Poison.Ok);
  EXPECT_EQ(Poison.Attempts, 2u);
  ASSERT_EQ(Poison.FailureLog.size(), 2u);
  for (const std::string &Line : Poison.FailureLog)
    EXPECT_NE(Line.find("SIGSEGV"), std::string::npos) << Line;
  EXPECT_EQ(Report.JobsCrashed, 1u);
  EXPECT_EQ(Report.JobsOk, 5u) << "batch-mates must survive the poison job";
  EXPECT_GE(Report.Supervisor.WorkersCrashed, 2u);
}

// A job that wedges its worker is caught only by the supervisor's own
// hard kill. Its error must name that kill — one the supervisor sent
// itself — and not blame the kernel's OOM killer.
TEST_F(ShardChaos, HungPoisonJobLossNamesLeaseExpiry) {
  std::vector<BatchJob> Jobs = smallJobs(4);

  injectLethal("hang", "job02", /*Hits=*/100000);
  BatchOptions Opts = processOpts(2);
  Opts.Budget.DeadlineMs = 300;
  Opts.HardKillGraceMs = 200;
  Opts.MaxAttempts = 2;
  BatchReport Report = runBatch(Jobs, Opts);

  const JobResult &Lost = Report.Results[2];
  EXPECT_EQ(Lost.Status, JobStatus::Timeout);
  EXPECT_NE(Lost.Error.find("hard-killed"), std::string::npos) << Lost.Error;
  EXPECT_EQ(Lost.Error.find("OOM"), std::string::npos) << Lost.Error;
  for (const std::string &Line : Lost.FailureLog)
    EXPECT_EQ(Line.find("OOM"), std::string::npos) << Line;
  EXPECT_GE(Report.Supervisor.HardKills, 1u);
  for (std::size_t I : {0u, 1u, 3u})
    EXPECT_TRUE(Report.Results[I].Ok) << I;
}

// --- Resuming from a damaged or foreign journal -----------------------------

// The batch process died mid-append: the journal ends in a torn record.
// A process-mode resume keeps every valid record, reruns only the job
// whose record was torn, and reproduces the clean bytes.
TEST_F(ShardMerge, SalvagesTornTailOnOneNode) {
  std::vector<BatchJob> Jobs = smallJobs(4);
  std::string Base = canonicalBaseline(Jobs);
  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchReport Clean = runBatch(Jobs, Serial);

  std::string Path = tempPath("torn");
  std::remove(Path.c_str());
  std::string Error;
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(Path, jobSetFingerprint(Jobs, Serial), Jobs.size(),
                       Error))
        << Error;
    for (std::size_t I = 0; I != 3; ++I)
      ASSERT_TRUE(W.append(I, Clean.Results[I]));
  }
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::app);
    Out << "rec 3 999 deadbeefdeadbeef\nonly half a bo";
  }
  JournalLoad Load = loadJournal(Path);
  ASSERT_TRUE(Load.Error.empty()) << Load.Error;
  EXPECT_TRUE(Load.TailCorrupt);
  ASSERT_EQ(Load.Records.size(), 3u) << "torn tail must not cost valid records";

  BatchOptions Opts = processOpts(2);
  Opts.JournalPath = Path;
  Opts.Resume = true;
  BatchReport Resumed = runBatch(Jobs, Opts);
  EXPECT_EQ(Resumed.JobsResumed, 3u);
  EXPECT_GE(Resumed.Supervisor.WorkersSpawned, 1u) << "job 3 was never rerun";
  EXPECT_EQ(reportToJson(Resumed, /*Canonical=*/true), Base);

  // The resume cut the torn bytes before appending: the journal is
  // whole again and a second resume is a pure replay.
  JournalLoad Healed = loadJournal(Path);
  EXPECT_FALSE(Healed.TailCorrupt);
  EXPECT_EQ(Healed.Records.size(), Jobs.size());
  BatchReport Replayed = runBatch(Jobs, Opts);
  EXPECT_EQ(Replayed.JobsResumed, Jobs.size());
  EXPECT_EQ(reportToJson(Replayed, /*Canonical=*/true), Base);
  std::remove(Path.c_str());
}

// A journal another batch wrote at the same path must not seed a
// process-mode resume; the refusal leaves that journal untouched.
TEST_F(ShardMerge, RefusesCrossBatchFingerprintMismatch) {
  std::vector<BatchJob> Jobs = smallJobs(2);
  std::vector<BatchJob> Other = smallJobs(3);
  BatchOptions Opts = processOpts(2);
  ASSERT_NE(jobSetFingerprint(Jobs, Opts), jobSetFingerprint(Other, Opts));

  std::string Path = tempPath("xbatch");
  std::remove(Path.c_str());
  Opts.JournalPath = Path;
  runBatch(Other, Opts);
  std::string Before = slurp(Path);
  ASSERT_FALSE(Before.empty());

  Opts.Resume = true;
  try {
    runBatch(Jobs, Opts);
    FAIL() << "resume accepted a journal from a different batch";
  } catch (const std::runtime_error &E) {
    EXPECT_NE(std::string(E.what()).find("fingerprint"), std::string::npos)
        << E.what();
  }
  EXPECT_EQ(slurp(Path), Before) << "a refused resume wrote to the journal";
  std::remove(Path.c_str());
}

} // namespace
