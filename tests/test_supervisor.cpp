//===- tests/test_supervisor.cpp - Process-isolation tests ----------------===//
///
/// Level 3 of the recovery ladder (runtime/supervisor.h). The
/// containment claim is proven with genuinely lethal injected faults —
/// a raw SIGSEGV, an allocation loop dying under RLIMIT_AS, a
/// non-polling spin — and the determinism claim by comparing every
/// healthy job's result field-for-field against a clean serial
/// thread-mode run.
///
/// Process isolation plus the journal is the one batch path that
/// survives crashes, the batch process's own SIGKILL included
/// (ParentSigkillThenResumeIsByteIdentical).
///
/// Fixture naming is load-bearing for CI: `Ipc.*` and `Supervisor.*`
/// run in the TSan leg's filter; the heavyweight acceptance batch lives
/// in `SupervisorChaos.*` and the end-to-end CLI exit-code audit in
/// `BatchCli.*`, which do not.

#include "runtime/batch.h"
#include "runtime/child_pool.h"
#include "runtime/ipc.h"
#include "runtime/journal.h"
#include "support/faultinject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;

namespace {

/// Small, fast, loop-carrying program: proves both assertions, has one
/// loop-head invariant, and analyzes in milliseconds (the per-job cost
/// must stay negligible next to the fork/pipe overhead under test).
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

/// Field-for-field equality on everything the canonical report renders
/// (i.e. everything except wall times and cycle counters).
void expectCanonicallyEqual(const JobResult &A, const JobResult &B) {
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
  EXPECT_EQ(A.BlockVisits, B.BlockVisits);
  EXPECT_EQ(A.NMin, B.NMin);
  EXPECT_EQ(A.NMax, B.NMax);
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "optoct_sup_" + Name + "." +
         std::to_string(::getpid());
}

/// Pids whose parent is \p Parent, read from /proc.
std::vector<pid_t> childrenOf(pid_t Parent) {
  std::vector<pid_t> Kids;
  DIR *Proc = ::opendir("/proc");
  if (!Proc)
    return Kids;
  while (struct dirent *E = ::readdir(Proc)) {
    pid_t Pid = static_cast<pid_t>(std::atoi(E->d_name));
    if (Pid <= 0)
      continue;
    std::ifstream Stat("/proc/" + std::to_string(Pid) + "/stat");
    std::string Line;
    std::getline(Stat, Line);
    // "pid (comm) state ppid ...": comm may hold spaces and parens.
    std::size_t Close = Line.rfind(')');
    if (Close == std::string::npos)
      continue;
    std::istringstream Rest(Line.substr(Close + 1));
    char State = 0;
    long PPid = 0;
    if (Rest >> State >> PPid && PPid == Parent)
      Kids.push_back(Pid);
  }
  ::closedir(Proc);
  return Kids;
}

class Ipc : public ::testing::Test {};

/// Clears the fault plan around each test (the containment tests arm
/// lethal rules that must never leak into a thread-mode neighbor).
class Supervisor : public ::testing::Test {
protected:
  void SetUp() override { support::FaultPlan::global().clear(); }
  void TearDown() override { support::FaultPlan::global().clear(); }
};

using SupervisorChaos = Supervisor;
using BatchCli = Supervisor;

// --- IPC framing -----------------------------------------------------------

TEST_F(Ipc, FrameRoundTripOverPipe) {
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  // A body larger than any pipe buffer forces the short-write retry
  // path; the writer must live on its own thread or the pipe deadlocks.
  std::string Big(4u << 20, '\0');
  for (std::size_t I = 0; I != Big.size(); ++I)
    Big[I] = static_cast<char>(I * 2654435761u >> 13);
  std::thread Writer([&] {
    EXPECT_TRUE(ipc::writeFrame(P[1], ipc::MsgType::Job, "hello"));
    EXPECT_TRUE(ipc::writeFrame(P[1], ipc::MsgType::Result, Big));
    EXPECT_TRUE(ipc::writeFrame(P[1], ipc::MsgType::Result, ""));
    ::close(P[1]); // clean EOF after the last frame
  });
  ipc::MsgType Type{};
  std::string Body;
  EXPECT_EQ(ipc::readFrame(P[0], Type, Body), ipc::ReadStatus::Ok);
  EXPECT_EQ(Type, ipc::MsgType::Job);
  EXPECT_EQ(Body, "hello");
  EXPECT_EQ(ipc::readFrame(P[0], Type, Body), ipc::ReadStatus::Ok);
  EXPECT_EQ(Type, ipc::MsgType::Result);
  EXPECT_EQ(Body, Big);
  EXPECT_EQ(ipc::readFrame(P[0], Type, Body), ipc::ReadStatus::Ok);
  EXPECT_TRUE(Body.empty());
  EXPECT_EQ(ipc::readFrame(P[0], Type, Body), ipc::ReadStatus::Eof);
  Writer.join();
  ::close(P[0]);
}

TEST_F(Ipc, RejectsTornAndCorruptFrames) {
  // Capture one valid frame's raw bytes.
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  ASSERT_TRUE(ipc::writeFrame(P[1], ipc::MsgType::Result, "payload"));
  ::close(P[1]);
  char Buf[256];
  ssize_t N = ::read(P[0], Buf, sizeof(Buf));
  ::close(P[0]);
  ASSERT_GT(N, 0);
  std::string Frame(Buf, static_cast<std::size_t>(N));

  auto ReadBytes = [](const std::string &Bytes) {
    int Q[2];
    EXPECT_EQ(::pipe(Q), 0);
    EXPECT_EQ(::write(Q[1], Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::close(Q[1]);
    ipc::MsgType Type{};
    std::string Body;
    ipc::ReadStatus RS = ipc::readFrame(Q[0], Type, Body);
    ::close(Q[0]);
    return RS;
  };

  // A worker killed mid-write leaves a truncated frame: Torn, not Ok.
  EXPECT_EQ(ReadBytes(Frame.substr(0, 10)), ipc::ReadStatus::Torn);
  EXPECT_EQ(ReadBytes(Frame.substr(0, Frame.size() - 3)),
            ipc::ReadStatus::Torn);
  // Flipped body byte: checksum mismatch.
  std::string Bad = Frame;
  Bad.back() ^= 0x5a;
  EXPECT_EQ(ReadBytes(Bad), ipc::ReadStatus::Torn);
  // Bad magic.
  std::string Garbage = Frame;
  Garbage[0] = 'X';
  EXPECT_EQ(ReadBytes(Garbage), ipc::ReadStatus::Torn);

  // Incremental reader: byte-at-a-time feeds still yield the frame...
  ipc::FrameReader Reader;
  ipc::MsgType Type{};
  std::string Body;
  for (char C : Frame) {
    EXPECT_FALSE(Reader.corrupt());
    Reader.feed(&C, 1);
  }
  ASSERT_TRUE(Reader.next(Type, Body));
  EXPECT_EQ(Body, "payload");
  EXPECT_FALSE(Reader.midFrame());
  // ...a partial tail is flagged as mid-frame (a torn write if the
  // peer is dead)...
  Reader.feed(Frame.data(), 10);
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.midFrame());
  // ...and garbage at a frame boundary poisons the stream permanently.
  ipc::FrameReader Poisoned;
  Poisoned.feed("not a frame header, definitely", 24);
  EXPECT_FALSE(Poisoned.next(Type, Body));
  EXPECT_TRUE(Poisoned.corrupt());
}

TEST_F(Ipc, JobAndResultBodiesRoundTrip) {
  BatchJob Job;
  Job.Name = "weird name with spaces \xff";
  Job.Source = std::string("binary\0source\nwith newlines", 27);
  std::string Body = ipc::encodeJob(7, 3, Job);
  std::size_t Index = 0;
  unsigned Attempt = 0;
  BatchJob Back;
  ASSERT_TRUE(ipc::decodeJob(Body, Index, Attempt, Back));
  EXPECT_EQ(Index, 7u);
  EXPECT_EQ(Attempt, 3u);
  EXPECT_EQ(Back.Name, Job.Name);
  EXPECT_EQ(Back.Source, Job.Source);
  EXPECT_FALSE(ipc::decodeJob("res 1 0\n", Index, Attempt, Back));
  EXPECT_FALSE(ipc::decodeJob("job 1 2 9999\nshort", Index, Attempt, Back));

  JobResult R;
  R.Name = "job";
  R.Ok = true;
  R.Status = JobStatus::Degraded;
  R.Attempts = 2;
  R.Detail = "tripped";
  R.FailureLog = {"attempt 1: boom"};
  R.AssertsProven = 1;
  R.AssertsTotal = 2;
  R.LoopInvariants = {"bb1: { x0 <= 4 }"};
  R.NumClosures = 99;
  std::string RBody = ipc::encodeResult(7, true, R);
  JobResult RBack;
  bool Retryable = false;
  std::string Error;
  ASSERT_TRUE(ipc::decodeResult(RBody, Index, Retryable, RBack, Error))
      << Error;
  EXPECT_EQ(Index, 7u);
  EXPECT_TRUE(Retryable);
  expectCanonicallyEqual(R, RBack);
  EXPECT_FALSE(ipc::decodeResult("job 1 2 3\n", Index, Retryable, RBack,
                                 Error));
  EXPECT_FALSE(
      ipc::decodeResult("res 1 7\nname x\nstatus ok\n", Index, Retryable,
                        RBack, Error)); // retry flag must be 0/1
}

// --- Supervisor ------------------------------------------------------------

TEST_F(Supervisor, CleanProcessBatchMatchesThreadMode) {
  std::vector<BatchJob> Jobs = smallJobs(6);
  BatchOptions Thread;
  Thread.Jobs = 1;
  BatchReport Want = runBatch(Jobs, Thread);

  BatchOptions Proc = Thread;
  Proc.Jobs = 2;
  Proc.Isolation = IsolationMode::Process;
  BatchReport Got = runBatch(Jobs, Proc);

  ASSERT_EQ(Got.Results.size(), Want.Results.size());
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    expectCanonicallyEqual(Got.Results[I], Want.Results[I]);
  EXPECT_EQ(Got.JobsOk, Jobs.size());
  EXPECT_EQ(Got.JobsCrashed, 0u);
  EXPECT_GE(Got.Supervisor.WorkersSpawned, 2u);
  EXPECT_EQ(Got.Supervisor.WorkersCrashed, 0u);
  // Byte-level: the canonical JSON renderings agree exactly.
  EXPECT_EQ(reportToJson(Got, /*Canonical=*/true),
            reportToJson(Want, /*Canonical=*/true));

  // More workers than jobs is harmless, and an empty batch forks
  // nothing at all.
  Proc.Jobs = 8;
  BatchReport Wide = runBatch(Jobs, Proc);
  EXPECT_EQ(reportToJson(Wide, /*Canonical=*/true),
            reportToJson(Want, /*Canonical=*/true));
  BatchReport Empty = runBatch({}, Proc);
  EXPECT_TRUE(Empty.Results.empty());
  EXPECT_EQ(Empty.Supervisor.WorkersSpawned, 0u);
}

TEST_F(Supervisor, SegvCrashIsContained) {
  std::vector<BatchJob> Jobs = smallJobs(4);
  injectLethal("segv", "job02");
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Isolation = IsolationMode::Process;
  BatchReport Report = runBatch(Jobs, Opts);

  const JobResult &Poisoned = Report.Results[2];
  EXPECT_EQ(Poisoned.Status, JobStatus::Crashed);
  EXPECT_FALSE(Poisoned.Ok);
  EXPECT_NE(Poisoned.Error.find("SIGSEGV"), std::string::npos)
      << Poisoned.Error;
  ASSERT_EQ(Poisoned.FailureLog.size(), 1u);
  EXPECT_NE(Poisoned.FailureLog[0].find("SIGSEGV"), std::string::npos);
  for (std::size_t I : {0u, 1u, 3u}) {
    EXPECT_EQ(Report.Results[I].Status, JobStatus::Ok) << I;
    EXPECT_EQ(Report.Results[I].AssertsProven, 2u);
  }
  EXPECT_EQ(Report.JobsCrashed, 1u);
  EXPECT_EQ(Report.JobsOk, 3u);
  EXPECT_GE(Report.Supervisor.WorkersCrashed, 1u);
}

TEST_F(Supervisor, CrashedJobRetriesOnFreshWorkerAndSucceeds) {
  std::vector<BatchJob> Jobs = smallJobs(3);
  injectLethal("segv", "job01", /*Hits=*/1);
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Isolation = IsolationMode::Process;
  Opts.MaxAttempts = 2;
  Opts.BackoffBaseMs = 1;
  BatchReport Report = runBatch(Jobs, Opts);

  // The hits=1 rule killed the first worker; the respawned worker's
  // replayed fault counters (notePriorLethalAttempts) let attempt 2
  // through — deterministically, exactly like a thread-mode retry.
  const JobResult &R = Report.Results[1];
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.Attempts, 2u);
  ASSERT_EQ(R.FailureLog.size(), 1u);
  EXPECT_NE(R.FailureLog[0].find("SIGSEGV"), std::string::npos)
      << R.FailureLog[0];
  EXPECT_EQ(R.AssertsProven, 2u);
  EXPECT_EQ(Report.JobsCrashed, 0u);
  EXPECT_EQ(Report.JobsOk, 3u);
  EXPECT_EQ(Report.Retries, 1u);
  EXPECT_GE(Report.Supervisor.WorkersCrashed, 1u);
}

TEST_F(Supervisor, OomKillIsContained) {
  std::vector<BatchJob> Jobs = smallJobs(3);
  injectLethal("oom", "job00");
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Isolation = IsolationMode::Process;
  Opts.MaxRssMb = 256; // the allocation loop dies fast under RLIMIT_AS
  BatchReport Report = runBatch(Jobs, Opts);

  const JobResult &Poisoned = Report.Results[0];
  EXPECT_EQ(Poisoned.Status, JobStatus::Crashed);
  EXPECT_NE(Poisoned.Error.find("SIGABRT"), std::string::npos)
      << Poisoned.Error;
  EXPECT_EQ(Report.Results[1].Status, JobStatus::Ok);
  EXPECT_EQ(Report.Results[2].Status, JobStatus::Ok);
  EXPECT_EQ(Report.JobsCrashed, 1u);
}

TEST_F(Supervisor, HangIsHardKilledAsTimeout) {
  std::vector<BatchJob> Jobs = smallJobs(3);
  injectLethal("hang", "job01");
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Isolation = IsolationMode::Process;
  Opts.Budget.DeadlineMs = 300;
  Opts.HardKillGraceMs = 200;
  BatchReport Report = runBatch(Jobs, Opts);

  const JobResult &Hung = Report.Results[1];
  EXPECT_EQ(Hung.Status, JobStatus::Timeout);
  EXPECT_FALSE(Hung.Ok);
  EXPECT_NE(Hung.Error.find("hard-killed"), std::string::npos) << Hung.Error;
  EXPECT_NE(Hung.Error.find("cancellation poll"), std::string::npos);
  EXPECT_EQ(Report.Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Report.Results[2].Status, JobStatus::Ok);
  EXPECT_EQ(Report.JobsTimedOut, 1u);
  EXPECT_EQ(Report.JobsCrashed, 0u);
  EXPECT_GE(Report.Supervisor.HardKills, 1u);
}

// Death texts name the signal or limit, never a pid: two identical runs
// that lose workers to a segv, an OOM and a hang render byte-equal
// canonical reports.
TEST_F(Supervisor, CrashedCanonicalReportIsByteIdenticalAcrossRuns) {
  std::vector<BatchJob> Jobs = smallJobs(5);
  injectLethal("segv", "job01");
  injectLethal("oom", "job02");
  injectLethal("hang", "job03");
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Isolation = IsolationMode::Process;
  Opts.Budget.DeadlineMs = 300;
  Opts.HardKillGraceMs = 200;
  // The OOM job must exhaust its fence well inside the 500 ms hard
  // kill, or it dies as a timeout instead and the runs may disagree.
  // Allocating and touching memory costs about 0.75 ms per MiB on one
  // idle core, so 16 MiB trips in about 12 ms: 40x inside the kill,
  // and still 5x with seven other runnable tasks on the same core. The
  // clean jobs run in under 4 MiB.
  Opts.MaxRssMb = 16;
  BatchReport First = runBatch(Jobs, Opts);
  BatchReport Second = runBatch(Jobs, Opts);

  // Three workers lost: the SIGSEGV and the OOM crash, the hang times
  // out. Sanitizer builds skip the RLIMIT_AS fence, so there the OOM
  // job allocates until its 1 GiB self-cap or the hard kill, whichever
  // comes first.
  EXPECT_EQ(First.JobsCrashed + First.JobsTimedOut, 3u);
  if (OPTOCT_SANITIZED) {
    EXPECT_GE(First.JobsCrashed, 1u);
    EXPECT_GE(First.JobsTimedOut, 1u);
  } else {
    EXPECT_EQ(First.JobsCrashed, 2u);
    EXPECT_EQ(First.JobsTimedOut, 1u);
    EXPECT_NE(First.Results[2].Error.find("RLIMIT_AS 16 MiB"),
              std::string::npos)
        << First.Results[2].Error;
  }
  EXPECT_EQ(reportToJson(First, /*Canonical=*/true),
            reportToJson(Second, /*Canonical=*/true));
}

TEST_F(Supervisor, RecycleAfterRespawnsWorkers) {
  std::vector<BatchJob> Jobs = smallJobs(8);
  BatchOptions Opts;
  Opts.Jobs = 2;
  Opts.Isolation = IsolationMode::Process;
  Opts.RecycleAfter = 2;
  BatchReport Report = runBatch(Jobs, Opts);

  EXPECT_EQ(Report.JobsOk, Jobs.size());
  // 8 jobs / recycle-every-2 = at least two retirements (the workers
  // serving the final jobs may still be alive at shutdown).
  EXPECT_GE(Report.Supervisor.WorkersRecycled, 2u);
  // Retirements mid-batch were backfilled (a worker retiring into an
  // already-drained queue needs no replacement, so this is > not +=).
  EXPECT_GT(Report.Supervisor.WorkersSpawned, 2u);
  EXPECT_EQ(Report.Supervisor.WorkersCrashed, 0u);

  BatchOptions Thread;
  Thread.Jobs = 1;
  BatchReport Want = runBatch(Jobs, Thread);
  for (std::size_t I = 0; I != Jobs.size(); ++I)
    expectCanonicallyEqual(Report.Results[I], Want.Results[I]);
}

TEST_F(Supervisor, JournaledProcessRunResumesInThreadMode) {
  // The journal fingerprint deliberately excludes the isolation knobs:
  // a batch checkpointed under process isolation must be resumable on
  // a machine (or build) where only thread mode is viable.
  std::vector<BatchJob> Jobs = smallJobs(5);
  std::string Path = tempPath("xmode");
  BatchOptions Proc;
  Proc.Jobs = 2;
  Proc.Isolation = IsolationMode::Process;
  Proc.JournalPath = Path;
  BatchReport First = runBatch(Jobs, Proc);
  EXPECT_EQ(First.JobsOk, Jobs.size());

  BatchOptions Thread;
  Thread.Jobs = 1;
  Thread.JournalPath = Path;
  Thread.Resume = true;
  BatchReport Resumed = runBatch(Jobs, Thread);
  EXPECT_EQ(Resumed.JobsResumed, Jobs.size());
  EXPECT_EQ(reportToJson(Resumed, /*Canonical=*/true),
            reportToJson(First, /*Canonical=*/true));
  std::remove(Path.c_str());
}

// SIGKILL the batch process itself mid-run. Its orphaned workers must
// exit on EOF of their job pipes within RetireGrace, and a resume from
// the journal it fsync'd must reproduce the clean thread-mode canonical
// bytes. (If the run already finished, resume degenerates to a pure
// journal replay; the identity must hold either way.)
TEST_F(Supervisor, ParentSigkillThenResumeIsByteIdentical) {
  std::vector<BatchJob> Jobs = smallJobs(14);
  BatchOptions Thread;
  Thread.Jobs = 1;
  std::string Base = reportToJson(runBatch(Jobs, Thread), /*Canonical=*/true);

  std::string Path = tempPath("parentkill");
  std::remove(Path.c_str());
  BatchOptions Proc;
  Proc.Jobs = 4;
  Proc.Isolation = IsolationMode::Process;
  Proc.JournalPath = Path;

  // As a subreaper this process adopts the workers once their parent
  // dies, so it can wait for them (and reap them).
  ASSERT_EQ(::prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
  pid_t Parent = ::fork();
  ASSERT_GE(Parent, 0);
  if (Parent == 0) {
    // Timing-only fault, armed in the doomed process alone: the last
    // job sleeps 1 s. At the kill the other workers sit idle on their
    // job pipes, so only EOF on those pipes can end them; the sleeper
    // exits when its result write fails.
    std::string Error;
    support::FaultPlan::global().parseRule(
        "site=batch.job,kind=slow,ms=1000,job=job13", Error);
    try {
      runBatch(Jobs, Proc);
    } catch (...) {
    }
    ::_Exit(0);
  }

  std::vector<pid_t> Workers;
  for (int I = 0; I != 200 && Workers.size() < Proc.Jobs; ++I) {
    ::usleep(10 * 1000);
    Workers = childrenOf(Parent);
  }
  EXPECT_FALSE(Workers.empty()) << "no worker process appeared";
  ::usleep(300 * 1000);
  for (pid_t W : childrenOf(Parent))
    if (std::find(Workers.begin(), Workers.end(), W) == Workers.end())
      Workers.push_back(W);
  ::kill(Parent, SIGKILL);
  int Status = 0;
  ASSERT_EQ(::waitpid(Parent, &Status, 0), Parent);

  // A worker the parent reaped before it died is not ours: ECHILD.
  auto Deadline = std::chrono::steady_clock::now() + RetireGrace;
  for (pid_t W : Workers) {
    pid_t Got = 0;
    while ((Got = ::waitpid(W, &Status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < Deadline)
      ::usleep(20 * 1000);
    EXPECT_NE(Got, 0) << "worker " << W << " outlived its parent";
    if (Got == 0) {
      ::kill(W, SIGKILL);
      ::waitpid(W, &Status, 0);
    }
  }
  ::prctl(PR_SET_CHILD_SUBREAPER, 0);

  BatchOptions ResumeOpts = Proc;
  ResumeOpts.Resume = true;
  BatchReport Resumed = runBatch(Jobs, ResumeOpts);
  EXPECT_EQ(reportToJson(Resumed, /*Canonical=*/true), Base)
      << "parent SIGKILL + resume must not change the report";
  std::remove(Path.c_str());
}

// The RLIMIT_CPU backstop (4x the deadline + 2 s) bounds one job, not a
// worker's lifetime: one healthy worker running ms-scale jobs that add up
// to more CPU than the backstop must never be killed by it.
TEST_F(Supervisor, CpuBackstopIsPerJobNotPerWorkerLifetime) {
  // Twelve octagon variables: about a millisecond of CPU per job, far
  // below the deadline even in a sanitizer build.
  std::string Vars, Init, Body;
  for (int V = 0; V != 12; ++V) {
    std::string N = "v";
    N += std::to_string(V);
    Vars += ", " + N;
    Init += N + " = 0;\n";
    Body += "  if (" + N + " < i) { " + N + " = " + N + " + 1; }\n";
  }
  std::string Loop = "i = 0;\nwhile (i < n) {\n  i = i + 1;\n" + Body + "}\n";
  std::string Src = "var n, i" + Vars + ";\n" +
                    "n = havoc(); assume(n >= 0 && n <= 100);\n" + Init +
                    Loop + Loop + "assert(v0 <= 100);\n";

  // Size the batch from the measured per-job CPU so the worker's total
  // exceeds the 2 s backstop by half again on any host or build.
  std::vector<BatchJob> Probe(20, BatchJob{"probe", Src});
  BatchOptions Serial;
  Serial.Jobs = 1;
  std::clock_t C0 = std::clock();
  runBatch(Probe, Serial);
  double PerJob = double(std::clock() - C0) / CLOCKS_PER_SEC / Probe.size();
  std::size_t Count = static_cast<std::size_t>(3.0 / std::max(PerJob, 1e-4));
  std::vector<BatchJob> Jobs;
  for (std::size_t I = 0; I != Count; ++I)
    Jobs.push_back({"cpu" + std::to_string(I), Src});

  BatchOptions Opts;
  Opts.Jobs = 1;
  Opts.Isolation = IsolationMode::Process;
  Opts.Budget.DeadlineMs = 100;
  BatchReport Report = runBatch(Jobs, Opts);

  EXPECT_EQ(Report.JobsOk, Jobs.size()) << "per-job CPU " << PerJob << " s";
  for (const JobResult &R : Report.Results)
    ASSERT_EQ(R.Status, JobStatus::Ok) << R.Name << ": " << R.Error;
  EXPECT_EQ(Report.Supervisor.WorkersCrashed, 0u);
}

// --- Acceptance chaos batch (heavyweight; not in the TSan filter) ----------

TEST_F(SupervisorChaos, AcceptanceBatchSurvivesSegvOomAndHang) {
  // The ISSUE's acceptance scenario: >= 32 jobs, three poisoned with
  // genuinely lethal faults, the batch completes under process
  // isolation, the poisoned jobs report Crashed/Timeout with the
  // signal/limit named in their logs, and every *other* job is
  // field-identical to a clean serial thread-mode run.
  std::vector<BatchJob> Jobs = smallJobs(36);
  BatchOptions Clean;
  Clean.Jobs = 1;
  BatchReport Want = runBatch(Jobs, Clean);
  EXPECT_EQ(Want.JobsOk, Jobs.size());

  injectLethal("segv", "job05");
  injectLethal("oom", "job12");
  injectLethal("hang", "job23");
  BatchOptions Opts;
  Opts.Jobs = 4;
  Opts.Isolation = IsolationMode::Process;
  Opts.Budget.DeadlineMs = 3000; // generous: healthy jobs run in ms
  Opts.HardKillGraceMs = 300;
  Opts.MaxRssMb = 256;
  BatchReport Report = runBatch(Jobs, Opts);

  const JobResult &Segv = Report.Results[5];
  EXPECT_EQ(Segv.Status, JobStatus::Crashed);
  EXPECT_NE(Segv.Error.find("SIGSEGV"), std::string::npos) << Segv.Error;
  const JobResult &Oom = Report.Results[12];
  EXPECT_EQ(Oom.Status, JobStatus::Crashed);
  EXPECT_NE(Oom.Error.find("SIGABRT"), std::string::npos) << Oom.Error;
  const JobResult &Hang = Report.Results[23];
  EXPECT_EQ(Hang.Status, JobStatus::Timeout);
  EXPECT_NE(Hang.Error.find("hard-killed"), std::string::npos) << Hang.Error;

  for (std::size_t I = 0; I != Jobs.size(); ++I) {
    if (I == 5 || I == 12 || I == 23)
      continue;
    expectCanonicallyEqual(Report.Results[I], Want.Results[I]);
  }
  EXPECT_EQ(Report.JobsOk, Jobs.size() - 3);
  EXPECT_EQ(Report.JobsCrashed, 2u);
  EXPECT_EQ(Report.JobsTimedOut, 1u);
  EXPECT_GE(Report.Supervisor.WorkersCrashed, 3u);
  EXPECT_GE(Report.Supervisor.HardKills, 1u);
}

// --- The CLI exit-code audit (end to end on the real binary) ---------------

#ifdef OPTOCT_BATCH_BIN
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

TEST_F(BatchCli, ExitCode0WhenEverythingProves) {
  std::string Path = writeProgram("ok", loopProgram(8));
  EXPECT_EQ(runCli(Path), 0);
  // And process mode preserves the success code.
  EXPECT_EQ(runCli("--isolate=process " + Path), 0);
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
  EXPECT_EQ(runCli("--no-such-flag --generated"), 2);
  // A combination the runtime cannot honor is diagnosed, not ignored.
  EXPECT_EQ(runCli("--resume --generated"), 2);
}

TEST_F(BatchCli, ExitCode3WhenAJobCrashes) {
  std::string Path = writeProgram("crashy", loopProgram(5));
  EXPECT_EQ(runCli("--isolate=process "
                   "--inject=site=batch.job,kind=segv,job=crashy " +
                   Path),
            3);
  ::unlink(Path.c_str());
}
#endif // OPTOCT_BATCH_BIN

} // namespace
