//===- tests/test_shard.cpp - Sharded multi-node coordinator tests --------===//
///
/// Level 4 of the recovery ladder (runtime/shard.h). The headline
/// property under test is byte-identity: the canonical JSON of a
/// sharded run — including one whose nodes were killed mid-run, whose
/// leases expired under a wedged job, or whose *coordinator* was
/// SIGKILLed and resumed from the surviving journals — must equal the
/// canonical JSON of a clean single-node run of the same job set.
///
/// Fixture naming is load-bearing for CI: `Shard.*` and `ShardMerge.*`
/// are light enough for the TSan leg's filter; the fault-injecting
/// acceptance runs live in `ShardChaos.*` and the end-to-end CLI
/// exit-code audit in `BatchCli.*`, which do not.

#include "runtime/batch.h"
#include "runtime/journal.h"
#include "runtime/shard.h"
#include "support/faultinject.h"
#include "support/fnv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
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
  return ::testing::TempDir() + "optoct_shard_" + Name + "." +
         std::to_string(::getpid());
}

/// The byte-identity oracle: a clean serial thread-mode run rendered
/// canonically. Must be taken BEFORE arming any fault rule.
std::string canonicalBaseline(const std::vector<BatchJob> &Jobs,
                              const BatchOptions &Opts) {
  BatchOptions Serial = Opts;
  Serial.Jobs = 1;
  return reportToJson(runBatch(Jobs, Serial), /*Canonical=*/true);
}

void removeJournals(const std::string &Prefix) {
  for (const std::string &P : listShardJournals(Prefix))
    ::unlink(P.c_str());
}

class Shard : public ::testing::Test {
protected:
  void SetUp() override { support::FaultPlan::global().clear(); }
  void TearDown() override { support::FaultPlan::global().clear(); }
};

using ShardChaos = Shard;
using ShardMerge = Shard;
using BatchCli = Shard;

// --- Journal naming and discovery ------------------------------------------

TEST_F(Shard, NodeJournalPathsAndListing) {
  EXPECT_EQ(shardNodeJournalPath("/tmp/run/j", 0), "/tmp/run/j.node0");
  EXPECT_EQ(shardNodeJournalPath("/tmp/run/j", 12), "/tmp/run/j.node12");

  std::string Prefix = tempPath("list");
  removeJournals(Prefix);
  // Create out of order plus a decoy that must not match.
  for (unsigned Slot : {2u, 0u, 10u}) {
    std::ofstream Out(shardNodeJournalPath(Prefix, Slot));
    Out << "x";
  }
  {
    std::ofstream Out(Prefix + ".nodeX");
    Out << "decoy";
  }
  std::vector<std::string> Found = listShardJournals(Prefix);
  ASSERT_EQ(Found.size(), 3u);
  EXPECT_EQ(Found[0], shardNodeJournalPath(Prefix, 0));
  EXPECT_EQ(Found[1], shardNodeJournalPath(Prefix, 2));
  EXPECT_EQ(Found[2], shardNodeJournalPath(Prefix, 10));
  removeJournals(Prefix);
  ::unlink((Prefix + ".nodeX").c_str());
}

// --- Clean sharded runs -----------------------------------------------------

TEST_F(Shard, CleanRunIsByteIdenticalToSingleNode) {
  std::vector<BatchJob> Jobs = smallJobs(9);
  BatchOptions Opts;
  std::string Base = canonicalBaseline(Jobs, Opts);

  ShardOptions SO;
  SO.Nodes = 3;
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);
  EXPECT_EQ(reportToJson(Report, true), Base);
  EXPECT_EQ(Report.Shard.Nodes, 3u);
  EXPECT_GE(Report.Shard.NodesSpawned, 1u);
  EXPECT_EQ(Report.Shard.NodesDied, 0u);
  EXPECT_EQ(Report.Shard.JobsLost, 0u);
  EXPECT_GE(Report.Shard.LeasesGranted, 1u);
}

TEST_F(Shard, MoreNodesThanJobsIsHarmless) {
  std::vector<BatchJob> Jobs = smallJobs(2);
  BatchOptions Opts;
  std::string Base = canonicalBaseline(Jobs, Opts);
  ShardOptions SO;
  SO.Nodes = 6;
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);
  EXPECT_EQ(reportToJson(Report, true), Base);
  EXPECT_EQ(Report.Shard.JobsLost, 0u);
}

TEST_F(Shard, WorkStealingEngagesOnOneBigShard) {
  std::vector<BatchJob> Jobs = smallJobs(12);
  BatchOptions Opts;
  std::string Base = canonicalBaseline(Jobs, Opts);

  // One shard covering every job: the second node can only ever get
  // work by stealing the back half of the first node's lease.
  ShardOptions SO;
  SO.Nodes = 2;
  SO.ShardSize = static_cast<unsigned>(Jobs.size());
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);
  EXPECT_EQ(reportToJson(Report, true), Base);
  EXPECT_GE(Report.Shard.JobsStolen, 1u) << "idle node never stole";
  EXPECT_EQ(Report.Shard.JobsLost, 0u);
}

TEST_F(Shard, EmptyBatchShortCircuits) {
  BatchOptions Opts;
  ShardOptions SO;
  SO.Nodes = 4;
  BatchReport Report = runShardedBatch({}, Opts, SO);
  EXPECT_TRUE(Report.Results.empty());
  EXPECT_EQ(Report.Shard.NodesSpawned, 0u);
}

// --- Option combinations the coordinator cannot honor ------------------------

TEST_F(Shard, ResumeWithoutJournalIsRejected) {
  // Without a prefix the coordinator would journal to a fresh temp
  // directory and "resume" from nothing: a silent fresh run.
  std::vector<BatchJob> Jobs = smallJobs(2);
  BatchOptions Opts;
  Opts.Resume = true;
  ShardOptions SO;
  SO.Nodes = 2;
  EXPECT_THROW(runShardedBatch(Jobs, Opts, SO), std::invalid_argument);
  EXPECT_THROW(runShardedBatch({}, Opts, SO), std::invalid_argument);
}

TEST_F(Shard, ProcessFencesAreRejected) {
  // Nodes are unfenced and do not nest isolation tiers; each per-worker
  // fence is refused before any node is forked, not silently ignored.
  std::vector<BatchJob> Jobs = smallJobs(2);
  ShardOptions SO;
  SO.Nodes = 2;
  BatchOptions Process;
  Process.Isolation = IsolationMode::Process;
  EXPECT_THROW(runShardedBatch(Jobs, Process, SO), std::invalid_argument);
  BatchOptions Rss;
  Rss.MaxRssMb = 256;
  EXPECT_THROW(runShardedBatch(Jobs, Rss, SO), std::invalid_argument);
  BatchOptions Recycle;
  Recycle.RecycleAfter = 4;
  EXPECT_THROW(runShardedBatch(Jobs, Recycle, SO), std::invalid_argument);
}

// --- Journal merge edge cases ----------------------------------------------

TEST_F(ShardMerge, DedupesDuplicateRecordsByChecksum) {
  std::vector<BatchJob> Jobs = smallJobs(3);
  BatchOptions Opts;
  std::uint64_t Fp = jobSetFingerprint(Jobs, Opts);
  BatchReport Clean = runBatch(Jobs, Opts);

  // Two nodes journaled job 1 — the work-stealing race. The records
  // differ only in wall time, which the canonical report ignores but
  // the dedup checksum sees.
  JobResult DupA = Clean.Results[1];
  JobResult DupB = Clean.Results[1];
  DupA.WallSeconds = 0.25;
  DupB.WallSeconds = 0.75;

  std::string Prefix = tempPath("dup");
  removeJournals(Prefix);
  std::string Error;
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 0), Fp, Jobs.size(),
                       Error))
        << Error;
    ASSERT_TRUE(W.append(0, Clean.Results[0]));
    ASSERT_TRUE(W.append(1, DupA));
  }
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 1), Fp, Jobs.size(),
                       Error))
        << Error;
    ASSERT_TRUE(W.append(1, DupB));
    ASSERT_TRUE(W.append(2, Clean.Results[2]));
  }

  ShardMergeResult M =
      mergeShardJournals(listShardJournals(Prefix), Fp, Jobs.size());
  ASSERT_TRUE(M.Error.empty()) << M.Error;
  EXPECT_EQ(M.JournalsMerged, 2u);
  EXPECT_EQ(M.DuplicatesDiscarded, 1u);
  ASSERT_EQ(M.Results.size(), 3u);

  // The dedup rule is deterministic: lowest record checksum wins, no
  // matter which node's journal is read first.
  const JobResult &Winner =
      support::fnv1a64(serializeJobResult(DupA)) <=
              support::fnv1a64(serializeJobResult(DupB))
          ? DupA
          : DupB;
  EXPECT_EQ(M.Results[1].first, 1u);
  EXPECT_EQ(M.Results[1].second.WallSeconds, Winner.WallSeconds);
  removeJournals(Prefix);
}

TEST_F(ShardMerge, SalvagesTornTailOnOneNode) {
  std::vector<BatchJob> Jobs = smallJobs(4);
  BatchOptions Opts;
  std::uint64_t Fp = jobSetFingerprint(Jobs, Opts);
  BatchReport Clean = runBatch(Jobs, Opts);

  std::string Prefix = tempPath("torn");
  removeJournals(Prefix);
  std::string Error;
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 0), Fp, Jobs.size(),
                       Error))
        << Error;
    for (std::size_t I = 0; I != 4; ++I)
      ASSERT_TRUE(W.append(I, Clean.Results[I]));
  }
  // Node 1 died mid-append: a valid record, then a torn one.
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 1), Fp, Jobs.size(),
                       Error))
        << Error;
    ASSERT_TRUE(W.append(2, Clean.Results[2]));
  }
  {
    std::ofstream Out(shardNodeJournalPath(Prefix, 1),
                      std::ios::binary | std::ios::app);
    Out << "rec 3 999 deadbeefdeadbeef\nonly half a bo";
  }

  ShardMergeResult M =
      mergeShardJournals(listShardJournals(Prefix), Fp, Jobs.size());
  ASSERT_TRUE(M.Error.empty()) << M.Error;
  EXPECT_TRUE(M.TornTails);
  EXPECT_EQ(M.JournalsMerged, 2u);
  ASSERT_EQ(M.Results.size(), 4u) << "torn tail must not cost valid records";
  EXPECT_EQ(M.DuplicatesDiscarded, 1u) << "job 2 appears in both journals";
  removeJournals(Prefix);
}

TEST_F(ShardMerge, RefusesCrossBatchFingerprintMismatch) {
  std::vector<BatchJob> Jobs = smallJobs(2);
  std::vector<BatchJob> Other = smallJobs(3);
  BatchOptions Opts;
  std::uint64_t Fp = jobSetFingerprint(Jobs, Opts);
  std::uint64_t OtherFp = jobSetFingerprint(Other, Opts);
  ASSERT_NE(Fp, OtherFp);
  BatchReport Clean = runBatch(Jobs, Opts);

  std::string Prefix = tempPath("xbatch");
  removeJournals(Prefix);
  std::string Error;
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 0), Fp, Jobs.size(),
                       Error))
        << Error;
    ASSERT_TRUE(W.append(0, Clean.Results[0]));
  }
  // A journal from a different batch landed under the same prefix.
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 1), OtherFp,
                       Other.size(), Error))
        << Error;
  }

  ShardMergeResult M =
      mergeShardJournals(listShardJournals(Prefix), Fp, Jobs.size());
  EXPECT_FALSE(M.Error.empty());
  EXPECT_NE(M.Error.find("fingerprint"), std::string::npos) << M.Error;

  // And runShardedBatch(Resume) surfaces the refusal as a throw.
  ShardOptions SO;
  SO.Nodes = 2;
  BatchOptions ResumeOpts = Opts;
  ResumeOpts.JournalPath = Prefix;
  ResumeOpts.Resume = true;
  EXPECT_THROW(runShardedBatch(Jobs, ResumeOpts, SO), std::runtime_error);
  removeJournals(Prefix);
}

TEST_F(ShardMerge, SkipsUnreadableJournalEntirely) {
  std::vector<BatchJob> Jobs = smallJobs(2);
  BatchOptions Opts;
  std::uint64_t Fp = jobSetFingerprint(Jobs, Opts);
  BatchReport Clean = runBatch(Jobs, Opts);

  std::string Prefix = tempPath("skip");
  removeJournals(Prefix);
  std::string Error;
  {
    JournalWriter W;
    ASSERT_TRUE(W.open(shardNodeJournalPath(Prefix, 0), Fp, Jobs.size(),
                       Error))
        << Error;
    ASSERT_TRUE(W.append(0, Clean.Results[0]));
    ASSERT_TRUE(W.append(1, Clean.Results[1]));
  }
  {
    std::ofstream Out(shardNodeJournalPath(Prefix, 1),
                      std::ios::binary | std::ios::trunc);
    Out << "not a journal at all";
  }

  ShardMergeResult M =
      mergeShardJournals(listShardJournals(Prefix), Fp, Jobs.size());
  ASSERT_TRUE(M.Error.empty()) << M.Error;
  EXPECT_EQ(M.JournalsMerged, 1u);
  EXPECT_EQ(M.JournalsSkipped, 1u);
  EXPECT_EQ(M.Results.size(), 2u);
  removeJournals(Prefix);
}

// --- Chaos: node loss, wedges, coordinator loss ----------------------------

// The acceptance test: SIGSEGV one node's worth of work mid-run; the
// suspect is re-leased, the lethal fault burns out on replay, and the
// merged report is byte-identical to the clean single-node run.
TEST_F(ShardChaos, NodeDeathReLeaseIsByteIdentical) {
  std::vector<BatchJob> Jobs = smallJobs(10);
  BatchOptions Opts;
  std::string Base = canonicalBaseline(Jobs, Opts);

  injectLethal("segv", "job04");
  ShardOptions SO;
  SO.Nodes = 4;
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);

  EXPECT_GE(Report.Shard.NodesDied, 1u) << "the fault never fired";
  EXPECT_GE(Report.Shard.Releases, 1u);
  EXPECT_EQ(Report.Shard.JobsLost, 0u);
  EXPECT_EQ(reportToJson(Report, true), Base)
      << "node kill must not change the canonical report";
}

// A wedged node (busy spin, no heartbeats) is only detectable by lease
// expiry; the coordinator must revoke, kill, and re-lease.
TEST_F(ShardChaos, LeaseExpiryRecoversWedgedNode) {
  std::vector<BatchJob> Jobs = smallJobs(6);
  BatchOptions Opts;
  std::string Base = canonicalBaseline(Jobs, Opts);

  injectLethal("hang", "job02");
  ShardOptions SO;
  SO.Nodes = 2;
  SO.LeaseMs = 400; // well above a job's ms-scale runtime, far below ∞
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);

  EXPECT_GE(Report.Shard.LeasesExpired, 1u) << "expiry never triggered";
  EXPECT_GE(Report.Shard.NodesDied, 1u);
  EXPECT_EQ(Report.Shard.JobsLost, 0u);
  EXPECT_EQ(reportToJson(Report, true), Base);
}

// A job whose node dies every time it is leased must eventually be
// declared lost (bounded retries), without dragging down its batch.
TEST_F(ShardChaos, PoisonJobPastReleaseCapIsLostNotFatal) {
  std::vector<BatchJob> Jobs = smallJobs(6);
  BatchOptions Opts;

  injectLethal("segv", "job03", /*Hits=*/100000);
  ShardOptions SO;
  SO.Nodes = 2;
  SO.MaxJobReleases = 2;
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);

  EXPECT_EQ(Report.Shard.JobsLost, 1u);
  ASSERT_EQ(Report.Results.size(), 6u);
  EXPECT_EQ(Report.Results[3].Status, JobStatus::Crashed);
  EXPECT_FALSE(Report.Results[3].Ok);
  unsigned Healthy = 0;
  for (std::size_t I = 0; I != Report.Results.size(); ++I)
    if (I != 3 && Report.Results[I].Ok)
      ++Healthy;
  EXPECT_EQ(Healthy, 5u) << "shard-mates must survive the poison job";
}

// A job that wedges its node on every lease is caught only by lease
// expiry. Past the release cap its loss must name that expiry — a kill
// the coordinator sent itself — and not blame the kernel's OOM killer.
TEST_F(ShardChaos, HungPoisonJobLossNamesLeaseExpiry) {
  std::vector<BatchJob> Jobs = smallJobs(4);
  BatchOptions Opts;

  injectLethal("hang", "job02", /*Hits=*/100000);
  ShardOptions SO;
  SO.Nodes = 2;
  SO.LeaseMs = 300;
  SO.MaxJobReleases = 2;
  BatchReport Report = runShardedBatch(Jobs, Opts, SO);

  EXPECT_EQ(Report.Shard.JobsLost, 1u);
  EXPECT_GE(Report.Shard.LeasesExpired, 2u);
  const JobResult &Lost = Report.Results[2];
  EXPECT_EQ(Lost.Status, JobStatus::Crashed);
  EXPECT_NE(Lost.Error.find("lease expired"), std::string::npos) << Lost.Error;
  EXPECT_EQ(Lost.Error.find("OOM"), std::string::npos) << Lost.Error;
  for (std::size_t I : {0u, 1u, 3u})
    EXPECT_TRUE(Report.Results[I].Ok) << I;
}

// SIGKILL the whole coordinator process mid-run, then resume from the
// surviving node journals: still byte-identical.
TEST_F(ShardChaos, CoordinatorSigkillThenResumeIsByteIdentical) {
  std::vector<BatchJob> Jobs = smallJobs(14);
  BatchOptions Opts;
  std::string Base = canonicalBaseline(Jobs, Opts);

  std::string Prefix = tempPath("coord");
  removeJournals(Prefix);

  pid_t Coord = ::fork();
  ASSERT_GE(Coord, 0);
  if (Coord == 0) {
    ShardOptions SO;
    SO.Nodes = 2;
    BatchOptions Journaled = Opts;
    Journaled.JournalPath = Prefix;
    try {
      runShardedBatch(Jobs, Journaled, SO);
    } catch (...) {
    }
    ::_Exit(0);
  }
  // Let it get partway through the batch, then kill it without
  // ceremony. (If it already finished, resume degenerates to a pure
  // journal replay — the identity must hold either way.)
  ::usleep(200 * 1000);
  ::kill(Coord, SIGKILL);
  int Status = 0;
  ASSERT_EQ(::waitpid(Coord, &Status, 0), Coord);
  ::usleep(100 * 1000); // orphaned nodes exit on ctrl-pipe EOF

  ShardOptions SO;
  SO.Nodes = 2;
  BatchOptions ResumeOpts = Opts;
  ResumeOpts.JournalPath = Prefix;
  ResumeOpts.Resume = true;
  BatchReport Report = runShardedBatch(Jobs, ResumeOpts, SO);
  EXPECT_EQ(Report.Shard.JobsLost, 0u);
  EXPECT_EQ(reportToJson(Report, true), Base)
      << "coordinator SIGKILL + resume must not change the report";
  removeJournals(Prefix);
}

// --- The CLI exit-code audit (end to end on the real binary) ---------------

#ifdef OPTOCT_BATCH_BIN
namespace {

/// Writes a one-job program file and returns its path (also the job
/// name the CLI reports, so fault rules can substring-match it).
std::string writeProgram(const std::string &Name, const std::string &Src) {
  std::string Path = tempPath(Name) + ".imp";
  std::ofstream Out(Path, std::ios::trunc);
  Out << Src;
  return Path;
}

/// Runs the real optoct_batch binary; returns its exit code (-1 if the
/// shell failed). Output is discarded — these tests audit codes only.
int runCli(const std::string &Args) {
  std::string Cmd =
      std::string(OPTOCT_BATCH_BIN) + " " + Args + " >/dev/null 2>&1";
  int Rc = std::system(Cmd.c_str());
  if (Rc == -1 || !WIFEXITED(Rc))
    return -1;
  return WEXITSTATUS(Rc);
}

} // namespace

TEST_F(BatchCli, ExitCode0WhenEverythingProves) {
  std::string Path = writeProgram("ok", loopProgram(8));
  EXPECT_EQ(runCli(Path), 0);
  // And sharded mode preserves the success code.
  EXPECT_EQ(runCli("--nodes=2 " + Path), 0);
  ::unlink(Path.c_str());
}

TEST_F(BatchCli, ExitCode1WhenAnAssertionIsUnproven) {
  std::string Path = writeProgram(
      "unproven", "var x;\nx = havoc();\nassert(x >= 0);\n");
  EXPECT_EQ(runCli(Path), 1);
  ::unlink(Path.c_str());
}

TEST_F(BatchCli, ExitCode2OnUsageErrors) {
  EXPECT_EQ(runCli("--jobs=banana --generated"), 2);
  EXPECT_EQ(runCli("/nonexistent/never.imp"), 2);
  EXPECT_EQ(runCli("--nodes=0 --generated"), 2);
  // Mixing the node coordinator with per-job process isolation, or with
  // the worker-only knobs it would ignore, is a diagnosed conflict, not
  // a silent override.
  EXPECT_EQ(runCli("--nodes=2 --isolate=process --generated"), 2);
  EXPECT_EQ(runCli("--nodes=2 --max-rss-mb=256 --generated"), 2);
  EXPECT_EQ(runCli("--nodes=2 --recycle-after=4 --generated"), 2);
}

TEST_F(BatchCli, ExitCode3WhenAJobCrashes) {
  std::string Path = writeProgram("crashy", loopProgram(5));
  EXPECT_EQ(runCli("--isolate=process "
                   "--inject=site=batch.job,kind=segv,job=crashy " +
                   Path),
            3);
  ::unlink(Path.c_str());
}

TEST_F(BatchCli, ExitCode4OnUnrecoverableShardLoss) {
  std::string Poison = writeProgram("poison", loopProgram(5));
  std::string Healthy = writeProgram("healthy", loopProgram(6));
  EXPECT_EQ(
      runCli("--nodes=2 --max-releases=1 "
             "--inject=site=batch.job,kind=segv,job=poison,hits=100000 " +
             Poison + " " + Healthy),
      4);
  ::unlink(Poison.c_str());
  ::unlink(Healthy.c_str());
}
#endif // OPTOCT_BATCH_BIN

} // namespace
