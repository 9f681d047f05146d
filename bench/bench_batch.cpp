//===- bench/bench_batch.cpp - Batch-runtime throughput scaling ----------===//
///
/// \file
/// Measures batch-analysis throughput of the 17 generated paper
/// workloads as the worker count grows 1 → 2 → 4 → 8 (clamped to the
/// machine), the headline number of the parallel runtime: jobs per
/// second and speedup over the serial run. Invariants and verdicts are
/// cross-checked against the serial run at every worker count — a
/// scaling result that changed an answer would be meaningless.
///
/// One overhead leg rides along at a fixed worker count: the Level 3
/// process-isolation cost (thread pool vs. forked worker pool). It
/// reports overhead, not speedup — on a machine without spare hardware
/// threads the honest number is what the survivability costs.
///
/// Writes the series to BENCH_runtime.json (override with --json=<path>)
/// so successive PRs can track the throughput trajectory.
///
//===----------------------------------------------------------------------===//

#include "oct/simd_dispatch.h"
#include "runtime/batch.h"
#include "runtime/thread_pool.h"
#include "support/cpuinfo.h"
#include "support/table.h"
#include "workloads/workload.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace optoct;

namespace {

/// The deterministic payload of a report: everything except timing.
std::string answerKey(const runtime::BatchReport &Report) {
  std::string Key;
  for (const runtime::JobResult &R : Report.Results) {
    Key += R.Name + "|" + std::to_string(R.AssertsProven) + "/" +
           std::to_string(R.AssertsTotal) + "|";
    for (const std::string &Inv : R.LoopInvariants)
      Key += Inv + ";";
    Key += "\n";
  }
  return Key;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = "BENCH_runtime.json";
  unsigned Repeats = 3;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else if (std::strncmp(Argv[I], "--repeats=", 10) == 0)
      Repeats = static_cast<unsigned>(std::strtoul(Argv[I] + 10, nullptr, 10));
  }
  if (Repeats == 0)
    Repeats = 1;

  std::vector<runtime::BatchJob> Jobs;
  for (const workloads::WorkloadSpec &Spec : workloads::paperBenchmarks())
    Jobs.push_back({Spec.Name, workloads::generateProgram(Spec)});

  unsigned Hw = runtime::ThreadPool::defaultWorkerCount();
  std::printf("=== Batch throughput scaling (%zu generated workloads, "
              "%u hardware threads) ===\n\n",
              Jobs.size(), Hw);

  std::vector<unsigned> Counts;
  for (unsigned W : {1u, 2u, 4u, 8u})
    if (W == 1 || W <= 2 * Hw) // oversubscribe at most 2x
      Counts.push_back(W);

  struct Point {
    unsigned Workers;
    double WallSeconds;
    double Throughput;
    double Speedup;
    bool Deterministic;
    bool Oversubscribed;
  };
  std::vector<Point> Series;
  std::string SerialKey;
  double SerialWall = 0.0;

  TextTable Table({"Workers", "Wall ms", "Jobs/s", "Speedup", "Answers"});
  for (unsigned W : Counts) {
    // Worker counts past the hardware threads measure scheduler churn,
    // not scaling; keep the point (the 2x column is informative) but
    // say so, here and in the JSON, so nobody reads the flat or
    // negative "speedup" as a regression.
    bool Oversubscribed = W > Hw;
    if (Oversubscribed)
      std::fprintf(stderr,
                   "warning: %u workers oversubscribe %u hardware "
                   "thread%s; speedup for this point is not meaningful\n",
                   W, Hw, Hw == 1 ? "" : "s");
    runtime::BatchOptions Opts;
    Opts.Jobs = W;
    // Budgets armed but generous enough never to trip: the series then
    // measures the real steady-state cost of the cancellation polls and
    // cell charging (contract: under the noise floor vs. unbudgeted).
    Opts.Budget.DeadlineMs = 3600u * 1000u;
    Opts.Budget.MaxDbmCells = ~0ull / 2;
    double BestWall = 0.0;
    bool Deterministic = true;
    for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
      runtime::BatchReport Report = runtime::runBatch(Jobs, Opts);
      if (W == 1 && Rep == 0)
        SerialKey = answerKey(Report);
      Deterministic = Deterministic && answerKey(Report) == SerialKey;
      if (Rep == 0 || Report.WallSeconds < BestWall)
        BestWall = Report.WallSeconds;
    }
    if (W == 1)
      SerialWall = BestWall;
    Point P{W, BestWall, BestWall > 0 ? Jobs.size() / BestWall : 0.0,
            BestWall > 0 ? SerialWall / BestWall : 0.0, Deterministic,
            Oversubscribed};
    Series.push_back(P);
    Table.addRow({std::to_string(W) + (Oversubscribed ? "*" : ""),
                  TextTable::num(P.WallSeconds * 1e3, 1),
                  TextTable::num(P.Throughput, 1),
                  TextTable::num(P.Speedup, 2) + "x",
                  P.Deterministic ? "identical" : "DIVERGED"});
  }
  std::printf("%s\n", Table.render().c_str());
  for (const Point &P : Series)
    if (P.Oversubscribed) {
      std::printf("* oversubscribed (> %u hardware threads)\n\n", Hw);
      break;
    }

  // Process-isolation overhead: the same batch at one fixed worker
  // count, thread pool vs. forked worker pool (one fork + two pipe
  // round-trips per job). Run at the largest non-oversubscribed point
  // so the comparison reflects the parallel steady state.
  unsigned IsoWorkers = 1;
  for (unsigned W : Counts)
    if (W <= Hw)
      IsoWorkers = std::max(IsoWorkers, W);
  double ThreadWall = 0.0, ProcessWall = 0.0;
  bool IsoDeterministic = true;
  for (int Mode = 0; Mode != 2; ++Mode) {
    runtime::BatchOptions Opts;
    Opts.Jobs = IsoWorkers;
    Opts.Budget.DeadlineMs = 3600u * 1000u;
    Opts.Budget.MaxDbmCells = ~0ull / 2;
    Opts.Isolation = Mode == 0 ? runtime::IsolationMode::Thread
                               : runtime::IsolationMode::Process;
    double Best = 0.0;
    for (unsigned Rep = 0; Rep != Repeats; ++Rep) {
      runtime::BatchReport Report = runtime::runBatch(Jobs, Opts);
      IsoDeterministic = IsoDeterministic && answerKey(Report) == SerialKey;
      if (Rep == 0 || Report.WallSeconds < Best)
        Best = Report.WallSeconds;
    }
    (Mode == 0 ? ThreadWall : ProcessWall) = Best;
  }
  double IsoOverheadPct =
      ThreadWall > 0 ? (ProcessWall / ThreadWall - 1.0) * 100.0 : 0.0;
  std::printf("--isolate=process overhead at %u workers: %s ms -> %s ms "
              "(%+.1f%%), answers %s\n\n",
              IsoWorkers, TextTable::num(ThreadWall * 1e3, 1).c_str(),
              TextTable::num(ProcessWall * 1e3, 1).c_str(), IsoOverheadPct,
              IsoDeterministic ? "identical" : "DIVERGED");

  std::ofstream Out(JsonPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
    return 1;
  }
  Out << "{\n  \"bench\": \"bench_batch\",\n  "
      << support::benchContextJson(simdTierName(activeSimdTier())) << ",\n"
      << "  \"jobs\": " << Jobs.size() << ",\n"
      << "  \"hardware_threads\": " << Hw << ",\n"
      << "  \"repeats\": " << Repeats << ",\n"
      << "  \"series\": [\n";
  for (std::size_t I = 0; I != Series.size(); ++I) {
    const Point &P = Series[I];
    Out << "    {\"workers\": " << P.Workers
        << ", \"wall_seconds\": " << P.WallSeconds
        << ", \"throughput_jobs_per_sec\": " << P.Throughput
        << ", \"speedup\": " << P.Speedup << ", \"deterministic\": "
        << (P.Deterministic ? "true" : "false") << ", \"oversubscribed\": "
        << (P.Oversubscribed ? "true" : "false") << "}"
        << (I + 1 == Series.size() ? "" : ",") << "\n";
  }
  Out << "  ],\n"
      << "  \"isolation\": {\"workers\": " << IsoWorkers
      << ", \"thread_wall_seconds\": " << ThreadWall
      << ", \"process_wall_seconds\": " << ProcessWall
      << ", \"overhead_pct\": " << IsoOverheadPct
      << ", \"deterministic\": " << (IsoDeterministic ? "true" : "false")
      << "}\n}\n";
  std::printf("wrote %s\n", JsonPath.c_str());

  bool AllDeterministic = IsoDeterministic;
  for (const Point &P : Series)
    AllDeterministic = AllDeterministic && P.Deterministic;
  return AllDeterministic ? 0 : 1;
}
