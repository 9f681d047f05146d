//===- tests/test_runtime.cpp - Parallel batch runtime tests --------------===//
///
/// \file
/// Covers the src/runtime subsystem: thread-pool scheduling and
/// stealing, per-worker arenas, and — the load-bearing property — that
/// a batch analyzed in parallel produces byte-identical invariants,
/// verdicts, and operator counts to the same batch analyzed serially.
/// These tests are the ones CI runs under -fsanitize=thread.
///
//===----------------------------------------------------------------------===//

#include "runtime/arena.h"
#include "runtime/batch.h"
#include "runtime/thread_pool.h"

#include "capi/opt_oct_batch.h"
#include "oct/octagon.h"
#include "workloads/harness.h"
#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>

using namespace optoct;
using namespace optoct::runtime;

//===----------------------------------------------------------------------===//
// Thread pool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numWorkers(), 4u);
  std::atomic<int> Counter{0};
  std::vector<std::future<void>> Futures;
  for (int I = 0; I != 200; ++I)
    Futures.push_back(Pool.submit([&Counter] { ++Counter; }));
  for (auto &F : Futures)
    F.get();
  EXPECT_EQ(Counter.load(), 200);
}

TEST(ThreadPool, ReturnsValuesThroughFutures) {
  ThreadPool Pool(3);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I != 50; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  int Sum = 0;
  for (auto &F : Futures)
    Sum += F.get();
  int Expected = 0;
  for (int I = 0; I != 50; ++I)
    Expected += I * I;
  EXPECT_EQ(Sum, Expected);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool Pool(2);
  auto Future = Pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(Future.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool Pool(4);
  std::atomic<int> Done{0};
  for (int I = 0; I != 64; ++I)
    Pool.submit([&Done] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++Done;
    });
  Pool.waitIdle();
  EXPECT_EQ(Done.load(), 64);
}

TEST(ThreadPool, WorkerInitRunsOnEveryWorker) {
  std::atomic<int> Inits{0};
  std::mutex Mu;
  std::set<std::thread::id> Ids;
  {
    ThreadPool Pool(3, [&] {
      ++Inits;
      std::lock_guard<std::mutex> Lock(Mu);
      Ids.insert(std::this_thread::get_id());
    });
    // Give workers work so they are all alive before destruction.
    std::vector<std::future<void>> Futures;
    for (int I = 0; I != 30; ++I)
      Futures.push_back(Pool.submit([] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }));
    for (auto &F : Futures)
      F.get();
  }
  EXPECT_EQ(Inits.load(), 3);
  EXPECT_EQ(Ids.size(), 3u);
}

TEST(ThreadPool, TasksSubmittedAfterDrainStillRun) {
  ThreadPool Pool(2);
  std::atomic<int> Counter{0};
  for (int Round = 0; Round != 3; ++Round) {
    std::vector<std::future<void>> Futures;
    for (int I = 0; I != 20; ++I)
      Futures.push_back(Pool.submit([&Counter] { ++Counter; }));
    for (auto &F : Futures)
      F.get();
  }
  EXPECT_EQ(Counter.load(), 60);
}

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, ReserveIsMonotone) {
  WorkerArena &Arena = thisThreadArena();
  unsigned Before = Arena.reservedVars();
  Arena.reserve(Before + 16);
  EXPECT_EQ(Arena.reservedVars(), Before + 16);
  Arena.reserve(4); // smaller request: no shrink
  EXPECT_EQ(Arena.reservedVars(), Before + 16);
}

TEST(Arena, JobScopeInstallsAndRemovesSink) {
  WorkerArena &Arena = thisThreadArena();
  ASSERT_EQ(octStatsSink(), nullptr);
  std::uint64_t JobsBefore = Arena.jobsRun();
  {
    JobScope Scope(Arena);
    EXPECT_EQ(octStatsSink(), &Scope.stats());
    // Any octagon closure now lands in the arena's stats.
    Octagon O = Octagon::makeTop(4);
    O.addConstraint(OctCons::upper(0, 5.0));
    (void)O.isBottom();
  }
  EXPECT_EQ(octStatsSink(), nullptr);
  EXPECT_EQ(Arena.jobsRun(), JobsBefore + 1);
}

TEST(Arena, EachThreadGetsItsOwnArena) {
  WorkerArena *Main = &thisThreadArena();
  WorkerArena *Other = nullptr;
  std::thread T([&Other] { Other = &thisThreadArena(); });
  T.join();
  EXPECT_NE(Main, Other);
}

//===----------------------------------------------------------------------===//
// Batch scheduler
//===----------------------------------------------------------------------===//

namespace {

const char *ProvableProgram = "var x, y, m;\n"
                              "x = 1;\n"
                              "y = x;\n"
                              "while (x <= m) {\n"
                              "  x = x + 1;\n"
                              "  y = y + x;\n"
                              "}\n"
                              "assert(y >= 1);\n"
                              "assert(x >= 1);\n";

const char *UnprovableProgram = "var x;\n"
                                "x = havoc();\n"
                                "assert(x >= 0);\n";

/// Strips a result down to its deterministic payload.
std::string deterministicKey(const JobResult &R) {
  std::string Key = R.Name + "|" + (R.Ok ? "ok" : "err:" + R.Error) + "|" +
                    std::to_string(R.AssertsProven) + "/" +
                    std::to_string(R.AssertsTotal) + "|cl" +
                    std::to_string(R.NumClosures) + "|bv" +
                    std::to_string(R.BlockVisits) + "|n[" +
                    std::to_string(R.NMin) + "," + std::to_string(R.NMax) +
                    "]|";
  for (int Line : R.UnprovenAssertLines)
    Key += std::to_string(Line) + ",";
  Key += "|";
  for (const std::string &Inv : R.LoopInvariants)
    Key += Inv + ";";
  return Key;
}

std::string deterministicKey(const BatchReport &Report) {
  std::string Key;
  for (const JobResult &R : Report.Results)
    Key += deterministicKey(R) + "\n";
  return Key;
}

} // namespace

TEST(Batch, RunsMixedJobSet) {
  std::vector<BatchJob> Jobs = {{"provable", ProvableProgram},
                                {"unprovable", UnprovableProgram},
                                {"broken", "this is not a program"}};
  BatchOptions Opts;
  Opts.Jobs = 3;
  BatchReport Report = runBatch(Jobs, Opts);
  ASSERT_EQ(Report.Results.size(), 3u);
  EXPECT_EQ(Report.JobsOk, 2u);

  EXPECT_TRUE(Report.Results[0].Ok);
  EXPECT_EQ(Report.Results[0].AssertsProven, 2u);
  EXPECT_EQ(Report.Results[0].AssertsTotal, 2u);
  EXPECT_FALSE(Report.Results[0].LoopInvariants.empty());

  EXPECT_TRUE(Report.Results[1].Ok);
  EXPECT_EQ(Report.Results[1].AssertsProven, 0u);
  EXPECT_EQ(Report.Results[1].AssertsTotal, 1u);
  ASSERT_EQ(Report.Results[1].UnprovenAssertLines.size(), 1u);
  EXPECT_EQ(Report.Results[1].UnprovenAssertLines[0], 3);

  EXPECT_FALSE(Report.Results[2].Ok);
  EXPECT_FALSE(Report.Results[2].Error.empty());

  EXPECT_EQ(Report.AssertsProven, 2u);
  EXPECT_EQ(Report.AssertsTotal, 3u);
}

TEST(Batch, ResultsStayInSubmissionOrder) {
  std::vector<BatchJob> Jobs;
  for (int I = 0; I != 16; ++I)
    Jobs.push_back({"job" + std::to_string(I), ProvableProgram});
  BatchOptions Opts;
  Opts.Jobs = 4;
  BatchReport Report = runBatch(Jobs, Opts);
  ASSERT_EQ(Report.Results.size(), 16u);
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(Report.Results[I].Name, "job" + std::to_string(I));
}

/// The acceptance-criterion oracle: the full generated workload suite
/// analyzed serially and with --jobs 4 yields byte-identical invariants
/// and assertion verdicts (and operator counts).
TEST(Batch, ParallelMatchesSerialOnPaperWorkloads) {
  std::vector<BatchJob> Jobs;
  for (const workloads::WorkloadSpec &Spec : workloads::paperBenchmarks())
    Jobs.push_back({Spec.Name, workloads::generateProgram(Spec)});

  BatchOptions Serial;
  Serial.Jobs = 1;
  BatchOptions Parallel;
  Parallel.Jobs = 4;

  BatchReport A = runBatch(Jobs, Serial);
  BatchReport B = runBatch(Jobs, Parallel);
  ASSERT_EQ(A.Results.size(), B.Results.size());
  for (std::size_t I = 0; I != A.Results.size(); ++I)
    EXPECT_EQ(deterministicKey(A.Results[I]), deterministicKey(B.Results[I]))
        << "job " << Jobs[I].Name << " diverged between serial and --jobs 4";
  EXPECT_EQ(deterministicKey(A), deterministicKey(B));
  EXPECT_EQ(A.NumClosures, B.NumClosures);
  EXPECT_EQ(A.AssertsProven, B.AssertsProven);
  EXPECT_EQ(A.AssertsTotal, B.AssertsTotal);
}

TEST(Batch, JsonReportCarriesVerdicts) {
  std::vector<BatchJob> Jobs = {{"p", ProvableProgram},
                                {"u", UnprovableProgram}};
  BatchOptions Opts;
  Opts.Jobs = 2;
  BatchReport Report = runBatch(Jobs, Opts);
  std::string Json = reportToJson(Report);
  EXPECT_NE(Json.find("\"workers\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"p\""), std::string::npos);
  EXPECT_NE(Json.find("\"asserts_proven\": 2"), std::string::npos);
  EXPECT_NE(Json.find("\"loop_invariants\""), std::string::npos);
  EXPECT_EQ(std::count(Json.begin(), Json.end(), '{'),
            std::count(Json.begin(), Json.end(), '}'));
}

TEST(Batch, ZeroJobsMeansHardwareConcurrency) {
  std::vector<BatchJob> Jobs = {{"p", ProvableProgram},
                                {"q", ProvableProgram}};
  BatchOptions Opts;
  Opts.Jobs = 0;
  BatchReport Report = runBatch(Jobs, Opts);
  EXPECT_EQ(Report.Workers, ThreadPool::defaultWorkerCount());
  EXPECT_EQ(Report.JobsOk, 2u);
}

//===----------------------------------------------------------------------===//
// Parallel workload driver (src/workloads)
//===----------------------------------------------------------------------===//

TEST(ParallelDriver, MatchesSerialCounters) {
  std::vector<workloads::WorkloadSpec> Specs(
      workloads::paperBenchmarks().begin(),
      workloads::paperBenchmarks().begin() + 4);
  auto Serial = workloads::runWorkloads(Specs, workloads::Library::OptOctagon,
                                        1);
  auto Parallel = workloads::runWorkloads(Specs,
                                          workloads::Library::OptOctagon, 3);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (std::size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].NumClosures, Parallel[I].NumClosures);
    EXPECT_EQ(Serial[I].AssertsProven, Parallel[I].AssertsProven);
    EXPECT_EQ(Serial[I].AssertsTotal, Parallel[I].AssertsTotal);
    EXPECT_EQ(Serial[I].NMin, Parallel[I].NMin);
    EXPECT_EQ(Serial[I].NMax, Parallel[I].NMax);
    EXPECT_EQ(Serial[I].BlockVisits, Parallel[I].BlockVisits);
  }
}

/// The Apron path additionally exercises the thread-local baseline
/// closure-mode and stats-sink state (the Table-3 calibration runs).
TEST(ParallelDriver, ApronLibraryMatchesSerial) {
  const workloads::WorkloadSpec *Small = workloads::findBenchmark("firefox");
  ASSERT_NE(Small, nullptr);
  std::vector<workloads::WorkloadSpec> Specs(4, *Small);
  auto Serial = workloads::runWorkloads(Specs, workloads::Library::Apron, 1);
  auto Parallel = workloads::runWorkloads(Specs, workloads::Library::Apron, 4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (std::size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].NumClosures, Parallel[I].NumClosures);
    EXPECT_EQ(Serial[I].AssertsProven, Parallel[I].AssertsProven);
    EXPECT_EQ(Serial[I].AssertsTotal, Parallel[I].AssertsTotal);
  }
}

//===----------------------------------------------------------------------===//
// C API
//===----------------------------------------------------------------------===//

TEST(CApiBatch, RoundTrip) {
  const char *Names[] = {"p", "u", "broken"};
  const char *Sources[] = {ProvableProgram, UnprovableProgram, "nonsense!"};
  opt_oct_batch_options_t Opts = {};
  Opts.jobs = 2;
  opt_oct_batch_report_t *R = opt_oct_batch_run(Names, Sources, 3, &Opts);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(opt_oct_batch_num_jobs(R), 3u);
  EXPECT_EQ(opt_oct_batch_workers(R), 2u);

  EXPECT_STREQ(opt_oct_batch_job_name(R, 0), "p");
  EXPECT_EQ(opt_oct_batch_job_ok(R, 0), 1);
  EXPECT_EQ(opt_oct_batch_job_asserts_proven(R, 0), 2u);
  EXPECT_EQ(opt_oct_batch_job_asserts_total(R, 0), 2u);
  EXPECT_GT(opt_oct_batch_job_closures(R, 0), 0u);

  EXPECT_EQ(opt_oct_batch_job_ok(R, 1), 1);
  EXPECT_EQ(opt_oct_batch_job_asserts_proven(R, 1), 0u);

  EXPECT_EQ(opt_oct_batch_job_ok(R, 2), 0);
  EXPECT_STRNE(opt_oct_batch_job_error(R, 2), "");

  EXPECT_GT(opt_oct_batch_wall_seconds(R), 0.0);
  EXPECT_GT(opt_oct_batch_total_closures(R), 0u);
  opt_oct_batch_free(R);
}
