//===- tools/optoct_batch.cpp - Parallel batch analyzer -------------------===//
///
/// \file
/// Batch front end over the parallel runtime: analyze many mini-IMP
/// programs at once, spread across a worker pool, and report per-job
/// verdicts plus aggregate statistics.
///
///   optoct_batch [options] file1.imp file2.imp ...
///     --jobs=N | --jobs N   worker threads (default 1; 0 = one per
///                           hardware thread)
///     --generated           add the 17 generated paper workloads to
///                           the job set
///     --json=<path>         write the machine-readable report
///     --invariants          print loop-head invariants per job
///     --widening-delay=<k>, --narrowing=<k>, --no-linearize,
///     --thresholds=a,b,...  engine options (as in optoct)
///
///   Fault tolerance:
///     --deadline-ms=<n>     per-attempt wall-clock budget (0 = off)
///     --max-cells=<n>       per-attempt DBM-cell allocation budget
///     --retries=<n>         retry failed jobs up to n times (backoff)
///     --backoff-ms=<n>      base backoff before the first retry
///     --inject=<spec>       seeded fault injection (repeatable);
///                           spec: site=<s>,kind=<alloc|slow|timeout|
///                           poison|crash|segv|oom|hang>[,job=<substr>]
///                           [,hits=<n>][,after=<n>][,ms=<n>][,prob=<p>]
///     --fault-seed=<n>      seed for probabilistic injection rules
///
///   Process isolation (Level 3 of the recovery ladder):
///     --isolate=<mode>      thread (default) or process: fork a pool
///                           of supervised worker processes so a job
///                           that segfaults, gets OOM-killed, or hangs
///                           without polling is contained (CRASHED /
///                           TIMEOUT), never the batch
///     --max-rss-mb=<n>      per-worker memory fence in MiB: RLIMIT_AS
///                           at the address space the worker maps at
///                           fork plus n (process mode only;
///                           0 = unlimited; ignored under sanitizers)
///     --recycle-after=<n>   retire and respawn each worker after n
///                           jobs (process mode only; 0 = never)
///
///   Recovery ladder (see README / EXPERIMENTS):
///     --audit               Level 1: validate closure results and
///                           recover via the reference closure
///     --audit-rate=<p>      fraction of closures cross-checked against
///                           the reference (default 0.05)
///     --audit-triples=<n>   closedness spot-check triples per closure
///     --audit-seed=<n>      sampling seed for the audit decisions
///     --journal=<path>      Level 2: fsync a checkpoint record per
///                           completed job to an append-only journal
///     --resume              load the journal and run only missing jobs
///                           (a usage error without --journal)
///     --canonical-json      omit timing fields from --json so reruns
///                           and resumed runs compare byte-identical
///
/// Exit code: 0 if every job analyzed and all assertions were proven,
/// 1 if some assertion is unknown or a job failed/degraded/timed out,
/// 2 on usage errors or internal failures, 3 if any job CRASHED (its
/// worker process died — process mode only). See README "Exit codes".
///
//===----------------------------------------------------------------------===//

#include "oct/simd_dispatch.h"
#include "runtime/batch.h"
#include "runtime/journal.h"
#include "runtime/thread_pool.h"
#include "support/faultinject.h"
#include "workloads/workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

using namespace optoct;

namespace {

struct BatchCliOptions {
  runtime::BatchOptions Batch;
  std::vector<std::string> Files;
  bool AddGenerated = false;
  bool PrintInvariants = false;
  std::string JsonPath;
  bool CanonicalJson = false;
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs=N] [--generated] [--json=<path>]\n"
               "       [--invariants] [--widening-delay=<k>] "
               "[--narrowing=<k>]\n"
               "       [--no-linearize] [--thresholds=a,b,...]\n"
               "       [--deadline-ms=<n>] [--max-cells=<n>] "
               "[--retries=<n>]\n"
               "       [--backoff-ms=<n>] [--inject=<spec>] "
               "[--fault-seed=<n>]\n"
               "       [--audit] [--audit-rate=<p>] [--audit-triples=<n>] "
               "[--audit-seed=<n>]\n"
               "       [--isolate=thread|process] [--max-rss-mb=<n>] "
               "[--recycle-after=<n>]\n"
               "       [--journal=<path>] [--resume] [--canonical-json]\n"
               "       [files.imp...]\n",
               Argv0);
}

/// stoul/stod throw on garbage ("--jobs=x") and out-of-range values;
/// a CLI must diagnose, not terminate.
bool parseU64(const std::string &Val, const char *Flag, std::uint64_t &Out) {
  try {
    std::size_t End = 0;
    Out = std::stoull(Val, &End);
    if (End == Val.size())
      return true;
  } catch (const std::exception &) {
  }
  std::fprintf(stderr, "error: %s expects a non-negative integer, got '%s'\n",
               Flag, Val.c_str());
  return false;
}

bool parseUnsigned(const std::string &Val, const char *Flag, unsigned &Out) {
  std::uint64_t Wide;
  if (!parseU64(Val, Flag, Wide) || Wide > 0xffffffffull) {
    Out = 0;
    return false;
  }
  Out = static_cast<unsigned>(Wide);
  return true;
}

bool parseDouble(const std::string &Val, const char *Flag, double &Out) {
  try {
    std::size_t End = 0;
    Out = std::stod(Val, &End);
    if (End == Val.size())
      return true;
  } catch (const std::exception &) {
  }
  std::fprintf(stderr, "error: %s expects a number, got '%s'\n", Flag,
               Val.c_str());
  return false;
}

bool parseArgs(int Argc, char **Argv, BatchCliOptions &Opts) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(7), "--jobs", Opts.Batch.Jobs))
        return false;
    } else if (Arg == "--jobs" && I + 1 != Argc) {
      if (!parseUnsigned(Argv[++I], "--jobs", Opts.Batch.Jobs))
        return false;
    } else if (Arg == "--generated")
      Opts.AddGenerated = true;
    else if (Arg == "--invariants")
      Opts.PrintInvariants = true;
    else if (Arg.rfind("--json=", 0) == 0)
      Opts.JsonPath = Arg.substr(7);
    else if (Arg == "--json" && I + 1 != Argc)
      Opts.JsonPath = Argv[++I];
    else if (Arg.rfind("--widening-delay=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(17), "--widening-delay",
                         Opts.Batch.Engine.WideningDelay))
        return false;
    } else if (Arg.rfind("--narrowing=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(12), "--narrowing",
                         Opts.Batch.Engine.NarrowingPasses))
        return false;
    } else if (Arg == "--no-linearize")
      Opts.Batch.Engine.LinearizeGuards = false;
    else if (Arg.rfind("--thresholds=", 0) == 0) {
      std::stringstream List(Arg.substr(13));
      std::string Item;
      while (std::getline(List, Item, ',')) {
        double T;
        if (!parseDouble(Item, "--thresholds", T))
          return false;
        Opts.Batch.Engine.WideningThresholds.push_back(T);
      }
      std::sort(Opts.Batch.Engine.WideningThresholds.begin(),
                Opts.Batch.Engine.WideningThresholds.end());
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseU64(Arg.substr(14), "--deadline-ms",
                    Opts.Batch.Budget.DeadlineMs))
        return false;
    } else if (Arg.rfind("--max-cells=", 0) == 0) {
      if (!parseU64(Arg.substr(12), "--max-cells",
                    Opts.Batch.Budget.MaxDbmCells))
        return false;
    } else if (Arg.rfind("--retries=", 0) == 0) {
      unsigned Retries;
      if (!parseUnsigned(Arg.substr(10), "--retries", Retries))
        return false;
      Opts.Batch.MaxAttempts = Retries + 1;
    } else if (Arg.rfind("--backoff-ms=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(13), "--backoff-ms",
                         Opts.Batch.BackoffBaseMs))
        return false;
    } else if (Arg.rfind("--inject=", 0) == 0) {
      std::string Error;
      if (!support::FaultPlan::global().parseRule(Arg.substr(9), Error)) {
        std::fprintf(stderr, "error: --inject: %s\n", Error.c_str());
        return false;
      }
    } else if (Arg.rfind("--fault-seed=", 0) == 0) {
      std::uint64_t Seed;
      if (!parseU64(Arg.substr(13), "--fault-seed", Seed))
        return false;
      support::FaultPlan::global().setSeed(Seed);
    } else if (Arg == "--audit")
      Opts.Batch.Audit.Enabled = true;
    else if (Arg.rfind("--audit-rate=", 0) == 0) {
      if (!parseDouble(Arg.substr(13), "--audit-rate",
                       Opts.Batch.Audit.CrossCheckRate))
        return false;
      Opts.Batch.Audit.Enabled = true;
    } else if (Arg.rfind("--audit-triples=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(16), "--audit-triples",
                         Opts.Batch.Audit.SpotCheckTriples))
        return false;
      Opts.Batch.Audit.Enabled = true;
    } else if (Arg.rfind("--audit-seed=", 0) == 0) {
      if (!parseU64(Arg.substr(13), "--audit-seed", Opts.Batch.Audit.Seed))
        return false;
      Opts.Batch.Audit.Enabled = true;
    } else if (Arg.rfind("--isolate=", 0) == 0) {
      std::string Mode = Arg.substr(10);
      if (Mode == "thread")
        Opts.Batch.Isolation = runtime::IsolationMode::Thread;
      else if (Mode == "process")
        Opts.Batch.Isolation = runtime::IsolationMode::Process;
      else {
        std::fprintf(stderr,
                     "error: --isolate expects 'thread' or 'process', "
                     "got '%s'\n",
                     Mode.c_str());
        return false;
      }
    } else if (Arg.rfind("--max-rss-mb=", 0) == 0) {
      if (!parseU64(Arg.substr(13), "--max-rss-mb", Opts.Batch.MaxRssMb))
        return false;
    } else if (Arg.rfind("--recycle-after=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(16), "--recycle-after",
                         Opts.Batch.RecycleAfter))
        return false;
    } else if (Arg.rfind("--journal=", 0) == 0)
      Opts.Batch.JournalPath = Arg.substr(10);
    else if (Arg == "--resume")
      Opts.Batch.Resume = true;
    else if (Arg == "--canonical-json")
      Opts.CanonicalJson = true;
    else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else
      Opts.Files.push_back(Arg);
  }
  if (Opts.Files.empty() && !Opts.AddGenerated) {
    std::fprintf(stderr, "error: no input files (and no --generated)\n");
    return false;
  }
  return true;
}

int run(int Argc, char **Argv) {
  BatchCliOptions Opts;
  if (!parseArgs(Argc, Argv, Opts)) {
    usage(Argv[0]);
    return 2;
  }

  std::vector<runtime::BatchJob> Jobs;
  for (const std::string &File : Opts.Files) {
    std::ifstream In(File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
      return 2;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Jobs.push_back({File, Buffer.str()});
  }
  if (Opts.AddGenerated)
    for (const workloads::WorkloadSpec &Spec : workloads::paperBenchmarks())
      Jobs.push_back({Spec.Name, workloads::generateProgram(Spec)});

  // The runtime rejects --resume without --journal before running
  // anything: that is a usage error.
  runtime::BatchReport Report;
  try {
    Report = runtime::runBatch(Jobs, Opts.Batch);
  } catch (const std::invalid_argument &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    usage(Argv[0]);
    return 2;
  }

  bool AllProven = true;
  for (const runtime::JobResult &R : Report.Results) {
    if (!R.Ok) {
      const char *Label = R.Status == runtime::JobStatus::Timeout ? "TIMEOUT"
                          : R.Status == runtime::JobStatus::Crashed
                              ? "CRASHED"
                              : "FAILED";
      std::printf("%-24s %s: %s%s\n", R.Name.c_str(), Label,
                  R.Error.c_str(),
                  R.Attempts > 1
                      ? (" (after " + std::to_string(R.Attempts) +
                         " attempts)")
                            .c_str()
                      : "");
      AllProven = false;
      continue;
    }
    std::printf("%-24s %u/%u proven, %llu closures, %.1f ms", R.Name.c_str(),
                R.AssertsProven, R.AssertsTotal,
                static_cast<unsigned long long>(R.NumClosures),
                R.WallSeconds * 1e3);
    if (R.Status != runtime::JobStatus::Ok) {
      std::printf(" [%s: %s]", runtime::jobStatusName(R.Status),
                  R.Detail.c_str());
      AllProven = false;
    }
    if (R.Attempts > 1)
      std::printf(" (attempt %u)", R.Attempts);
    if (R.AuditIncidentCount != 0)
      std::printf(" [audit: %llu incidents recovered]",
                  static_cast<unsigned long long>(R.AuditIncidentCount));
    std::printf("\n");
    if (R.AssertsProven != R.AssertsTotal)
      AllProven = false;
    if (Opts.PrintInvariants)
      for (const std::string &Inv : R.LoopInvariants)
        std::printf("    %s\n", Inv.c_str());
  }
  std::printf("batch: %zu jobs (%u ok", Report.Results.size(), Report.JobsOk);
  if (Report.JobsDegraded)
    std::printf(", %u degraded", Report.JobsDegraded);
  if (Report.JobsTimedOut)
    std::printf(", %u timeout", Report.JobsTimedOut);
  if (Report.JobsFailed)
    std::printf(", %u failed", Report.JobsFailed);
  if (Report.JobsCrashed)
    std::printf(", %u crashed", Report.JobsCrashed);
  if (Report.Retries)
    std::printf(", %u retries", Report.Retries);
  if (Report.JobsResumed)
    std::printf(", %u resumed from journal", Report.JobsResumed);
  if (Report.AuditIncidentTotal)
    std::printf(", %llu audit incidents",
                static_cast<unsigned long long>(Report.AuditIncidentTotal));
  std::printf(") on %u %s in %.1f ms (%.1f jobs/s, simd tier %s), "
              "%u/%u assertions proven\n",
              Report.Workers,
              Opts.Batch.Isolation == runtime::IsolationMode::Process
                  ? (Report.Workers == 1 ? "worker process"
                                         : "worker processes")
                  : (Report.Workers == 1 ? "worker" : "workers"),
              Report.WallSeconds * 1e3, Report.throughput(),
              simdTierName(activeSimdTier()), Report.AssertsProven,
              Report.AssertsTotal);
  if (Report.Supervisor.WorkersSpawned != 0)
    std::printf("supervisor: %u spawned, %u crashed, %u recycled, "
                "%u hard kills\n",
                Report.Supervisor.WorkersSpawned,
                Report.Supervisor.WorkersCrashed,
                Report.Supervisor.WorkersRecycled,
                Report.Supervisor.HardKills);

  if (!Opts.JsonPath.empty()) {
    // Atomic write: a crash (or the CI kill-and-resume smoke's SIGKILL)
    // during report emission must never leave a truncated report.
    std::string Error;
    if (!runtime::writeFileAtomic(
            Opts.JsonPath, runtime::reportToJson(Report, Opts.CanonicalJson),
            Error)) {
      std::fprintf(stderr, "error: cannot write '%s': %s\n",
                   Opts.JsonPath.c_str(), Error.c_str());
      return 2;
    }
  }
  if (Report.JobsCrashed != 0)
    return 3; // a worker process died under a job: the loudest failure
  return AllProven && Report.JobsOk == Report.Results.size() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  // Anything escaping here would std::terminate with no diagnostic;
  // a batch driver must fail with one line and a distinct exit code.
  try {
    return run(Argc, Argv);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "optoct_batch: fatal: %s\n", E.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "optoct_batch: fatal: unknown error\n");
    return 2;
  }
}
