//===- tools/optoctd.cpp - Persistent analysis daemon ---------------------===//
///
/// \file
/// The analysis daemon and its command-line client.
///
/// Daemon mode (default): bind a Unix-domain socket and serve analysis
/// requests until SIGTERM/SIGINT, multiplexing them onto supervised
/// fork workers with a content-addressed invariant cache in front
/// (src/server). A request that segfaults its worker is reported as
/// crashed to that one client; everyone else keeps being served.
///
///   optoctd --socket=<path> [options]
///     --workers=N         worker processes (default 1; 0 = one per
///                         hardware thread)
///     --cache-mb=N        invariant-cache budget in MiB (default 64)
///     --cache-file=<path> persist the cache here on shutdown and
///                         reload it on start
///     --deadline-ms=<n>   per-request wall-clock budget; overstaying
///                         workers are hard-killed (0 = off)
///     --max-rss-mb=<n>    per-worker memory fence in MiB: RLIMIT_AS
///                         at the address space the worker maps at
///                         fork plus n (0 = unlimited; ignored under
///                         sanitizers)
///     --recycle-after=<n> retire each worker after n requests (0 = never)
///     --retries=<n>       re-run a request up to n times, with backoff,
///                         if its worker crashes or it fails transiently
///     --max-frame-mb=<n>  per-client frame size bound (default 16)
///     --max-clients=<n>   concurrent connection cap (default 64)
///     --max-queue=<n>     pending-request high-water mark; past it
///                         requests are shed with "overloaded"
///                         (default 256)
///     --max-pending=<n>   unanswered requests per client connection
///                         before shedding (default 32)
///     --overload-retry-ms=<n>
///                         base of the backoff hint in overloaded
///                         replies (default 50)
///     --quarantine-after=<n>
///                         worker deaths on one fingerprint before it
///                         is quarantined (default 3; 0 = off)
///     --quarantine-ttl-ms=<n>
///                         quarantine entry lifetime (default 60000)
///     --max-request-ms=<n>
///                         hard per-request ceiling when no
///                         --deadline-ms is set, so a hung worker can
///                         never wedge its waiters (default 300000;
///                         0 = unlimited)
///     --drain-ms=<n>      SIGTERM drain budget for in-flight work
///                         (default 5000)
///     --inject=<spec>, --fault-seed=<n>
///                         seeded fault injection, inherited by workers
///                         (spec as in optoct_batch; the daemon-smoke
///                         CI job injects kind=segv through this)
///
/// Client mode: connect to a running daemon, submit programs, print
/// one line per response plus (with --stats) the daemon's counters.
///
///   optoctd --client --socket=<path> [files.imp...]
///     --endpoints=<e1,e2,...>
///                         replica mode: a comma-separated list of Unix
///                         socket paths behind one ReplicaClient —
///                         sticky failover across replicas, and local
///                         in-process degrade when all are down. Each
///                         response line gains a trailing
///                         path=<primary|failover|local>
///     --no-local-fallback replica mode: all-replicas-down is a
///                         transport error instead of local analysis
///     --generated         submit the 17 generated paper workloads
///     --repeat=<n>        submit the whole job list n times (cache
///                         exercise; default 1)
///     --no-cache          ask the daemon to skip cache lookups
///     --stats             print daemon counters after the jobs
///     --invariants        print loop-head invariants per response
///     --retry-attempts=<n>
///                         attempts per request under the client retry
///                         policy — transport errors and "overloaded"
///                         sheds retry with capped exponential backoff
///                         + jitter, honoring the daemon's hint
///                         (default 4; 1 = single-shot)
///     --retry-base-ms=<n> first-retry backoff base (default 25)
///     --widening-delay=<k>, --narrowing=<k>, --no-linearize,
///     --thresholds=a,b,..., --max-cells=<n>
///                         per-request engine options
///
/// Each response line is stable, greppable evidence for the CI smoke:
///   <name> <STATUS> <proven>/<total> cached=<0|1> key=<hex> digest=<hex>
/// where digest is the FNV-64 of the (canonicalized) result record —
/// two passes over the same workload must print identical digests,
/// cached or not. A request still shed after every retry prints
///   <name> OVERLOADED after <n> attempts (retry_ms=<hint>)
///
/// Exit codes: 0 all responses ok and proven, 1 some unproven, failed,
/// or shed, 2 usage/transport errors (an endpoint of the removed TCP
/// transport among them), 3 some request crashed its worker.
///
//===----------------------------------------------------------------------===//

#include "oct/simd_dispatch.h"
#include "runtime/journal.h"
#include "server/replica.h"
#include "server/server.h"
#include "support/faultinject.h"
#include "support/fnv.h"
#include "support/textcodec.h"
#include "workloads/workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>

using namespace optoct;

namespace {

struct DaemonCliOptions {
  bool ClientMode = false;
  server::ServerOptions Server;

  // Client-mode state.
  std::vector<std::string> Files;
  bool AddGenerated = false;
  unsigned Repeat = 1;
  bool NoCache = false;
  bool PrintStats = false;
  bool PrintInvariants = false;
  analysis::AnalysisOptions Engine;
  std::uint64_t MaxDbmCells = 0;
  /// Retry policy, plus (--endpoints) the replica list and local
  /// fallback. Without --endpoints the client is one-endpoint.
  server::ReplicaOptions Replica;
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=<path> [--workers=N]\n"
      "       [--cache-mb=N] [--cache-file=<path>] [--deadline-ms=<n>]\n"
      "       [--max-rss-mb=<n>] [--recycle-after=<n>] [--retries=<n>]\n"
      "       [--max-frame-mb=<n>] [--max-clients=<n>] [--max-queue=<n>]\n"
      "       [--max-pending=<n>] [--overload-retry-ms=<n>]\n"
      "       [--quarantine-after=<n>] [--quarantine-ttl-ms=<n>]\n"
      "       [--max-request-ms=<n>] [--drain-ms=<n>] [--inject=<spec>]\n"
      "       [--fault-seed=<n>]\n"
      "   or: %s --client --socket=<path> [files.imp...]\n"
      "       [--endpoints=<e1,e2,...>] [--no-local-fallback] [--generated]\n"
      "       [--repeat=<n>] [--no-cache] [--stats] [--invariants]\n"
      "       [--retry-attempts=<n>] [--retry-base-ms=<n>]\n"
      "       [--widening-delay=<k>] [--narrowing=<k>] [--no-linearize]\n"
      "       [--thresholds=a,b,...] [--max-cells=<n>]\n",
      Argv0, Argv0);
}

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

bool parseArgs(int Argc, char **Argv, DaemonCliOptions &Opts) {
  std::uint64_t U = 0;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--client")
      Opts.ClientMode = true;
    else if (Arg.rfind("--socket=", 0) == 0)
      Opts.Server.SocketPath = Arg.substr(9);
    else if (Arg.rfind("--endpoints=", 0) == 0)
      Opts.Replica.Endpoints = server::parseEndpointList(Arg.substr(12));
    else if (Arg == "--no-local-fallback")
      Opts.Replica.LocalFallback = false;
    else if (Arg.rfind("--workers=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(10), "--workers", Opts.Server.Workers))
        return false;
    } else if (Arg.rfind("--cache-mb=", 0) == 0) {
      if (!parseU64(Arg.substr(11), "--cache-mb", U))
        return false;
      Opts.Server.CacheMaxBytes = static_cast<std::size_t>(U) << 20;
    } else if (Arg.rfind("--cache-file=", 0) == 0)
      Opts.Server.CachePath = Arg.substr(13);
    else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseU64(Arg.substr(14), "--deadline-ms",
                    Opts.Server.Worker.Budget.DeadlineMs))
        return false;
    } else if (Arg.rfind("--max-rss-mb=", 0) == 0) {
      if (!parseU64(Arg.substr(13), "--max-rss-mb",
                    Opts.Server.Worker.MaxRssMb))
        return false;
    } else if (Arg.rfind("--recycle-after=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(16), "--recycle-after",
                         Opts.Server.Worker.RecycleAfter))
        return false;
    } else if (Arg.rfind("--retries=", 0) == 0) {
      unsigned Retries;
      if (!parseUnsigned(Arg.substr(10), "--retries", Retries))
        return false;
      Opts.Server.Worker.MaxAttempts = Retries + 1;
    } else if (Arg.rfind("--max-frame-mb=", 0) == 0) {
      if (!parseU64(Arg.substr(15), "--max-frame-mb", U))
        return false;
      Opts.Server.MaxFrameBytes = U << 20;
    } else if (Arg.rfind("--max-clients=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), "--max-clients",
                         Opts.Server.MaxClients))
        return false;
    } else if (Arg.rfind("--max-queue=", 0) == 0) {
      if (!parseU64(Arg.substr(12), "--max-queue", U))
        return false;
      Opts.Server.MaxQueueDepth = static_cast<std::size_t>(U);
    } else if (Arg.rfind("--max-pending=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(14), "--max-pending",
                         Opts.Server.MaxClientPending))
        return false;
    } else if (Arg.rfind("--overload-retry-ms=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(20), "--overload-retry-ms",
                         Opts.Server.OverloadRetryMs))
        return false;
    } else if (Arg.rfind("--quarantine-after=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(19), "--quarantine-after",
                         Opts.Server.QuarantineAfter))
        return false;
    } else if (Arg.rfind("--quarantine-ttl-ms=", 0) == 0) {
      if (!parseU64(Arg.substr(20), "--quarantine-ttl-ms",
                    Opts.Server.QuarantineTtlMs))
        return false;
    } else if (Arg.rfind("--max-request-ms=", 0) == 0) {
      if (!parseU64(Arg.substr(17), "--max-request-ms",
                    Opts.Server.MaxRequestMs))
        return false;
    } else if (Arg.rfind("--drain-ms=", 0) == 0) {
      if (!parseU64(Arg.substr(11), "--drain-ms", Opts.Server.DrainMs))
        return false;
    } else if (Arg.rfind("--retry-attempts=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(17), "--retry-attempts",
                         Opts.Replica.Retry.MaxAttempts))
        return false;
    } else if (Arg.rfind("--retry-base-ms=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(16), "--retry-base-ms",
                         Opts.Replica.Retry.BaseBackoffMs))
        return false;
    } else if (Arg.rfind("--inject=", 0) == 0) {
      std::string Error;
      if (!support::FaultPlan::global().parseRule(Arg.substr(9), Error)) {
        std::fprintf(stderr, "error: --inject: %s\n", Error.c_str());
        return false;
      }
    } else if (Arg.rfind("--fault-seed=", 0) == 0) {
      if (!parseU64(Arg.substr(13), "--fault-seed", U))
        return false;
      support::FaultPlan::global().setSeed(U);
    } else if (Arg == "--generated")
      Opts.AddGenerated = true;
    else if (Arg.rfind("--repeat=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(9), "--repeat", Opts.Repeat))
        return false;
    } else if (Arg == "--no-cache")
      Opts.NoCache = true;
    else if (Arg == "--stats")
      Opts.PrintStats = true;
    else if (Arg == "--invariants")
      Opts.PrintInvariants = true;
    else if (Arg.rfind("--widening-delay=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(17), "--widening-delay",
                         Opts.Engine.WideningDelay))
        return false;
    } else if (Arg.rfind("--narrowing=", 0) == 0) {
      if (!parseUnsigned(Arg.substr(12), "--narrowing",
                         Opts.Engine.NarrowingPasses))
        return false;
    } else if (Arg == "--no-linearize")
      Opts.Engine.LinearizeGuards = false;
    else if (Arg.rfind("--thresholds=", 0) == 0) {
      std::stringstream List(Arg.substr(13));
      std::string Item;
      while (std::getline(List, Item, ',')) {
        double T;
        if (!parseDouble(Item, "--thresholds", T))
          return false;
        Opts.Engine.WideningThresholds.push_back(T);
      }
      std::sort(Opts.Engine.WideningThresholds.begin(),
                Opts.Engine.WideningThresholds.end());
    } else if (Arg.rfind("--max-cells=", 0) == 0) {
      if (!parseU64(Arg.substr(12), "--max-cells", Opts.MaxDbmCells))
        return false;
    } else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else
      Opts.Files.push_back(Arg);
  }
  if (!Opts.ClientMode && Opts.Server.SocketPath.empty()) {
    std::fprintf(stderr, "error: --socket=<path> is required\n");
    return false;
  }
  if (Opts.ClientMode && Opts.Server.SocketPath.empty() &&
      Opts.Replica.Endpoints.empty()) {
    std::fprintf(stderr, "error: --socket=<endpoint> or "
                         "--endpoints=<e1,e2,...> is required\n");
    return false;
  }
  if (!Opts.ClientMode && (Opts.AddGenerated || !Opts.Files.empty())) {
    std::fprintf(stderr,
                 "error: program arguments are client-mode only "
                 "(did you mean --client?)\n");
    return false;
  }
  if (Opts.ClientMode && Opts.Files.empty() && !Opts.AddGenerated &&
      !Opts.PrintStats) {
    std::fprintf(stderr, "error: no input files (and no --generated)\n");
    return false;
  }
  return true;
}

// --- Daemon mode ------------------------------------------------------------

server::Server *ActiveServer = nullptr;

void onTermSignal(int) {
  if (ActiveServer)
    ActiveServer->requestStop(); // async-signal-safe: flag + self-pipe
}

int runDaemon(const DaemonCliOptions &Opts) {
  server::Server Daemon(Opts.Server);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "optoctd: %s\n", Error.c_str());
    return 2;
  }
  ActiveServer = &Daemon;
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onTermSignal;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);

  std::fprintf(stderr,
               "optoctd: serving on %s (%u workers, %zu MiB cache, "
               "simd tier %s)\n",
               Opts.Server.SocketPath.c_str(),
               static_cast<unsigned>(Daemon.stats().Workers),
               Opts.Server.CacheMaxBytes >> 20,
               simdTierName(activeSimdTier()));
  Daemon.serve();
  ActiveServer = nullptr;

  server::DaemonStats S = Daemon.stats();
  std::fprintf(stderr,
               "optoctd: served %llu requests (%llu cache hits, "
               "%llu crashed, %llu timeouts); shutting down\n",
               static_cast<unsigned long long>(S.Served),
               static_cast<unsigned long long>(S.CacheHits),
               static_cast<unsigned long long>(S.CrashedReplies),
               static_cast<unsigned long long>(S.TimeoutReplies));
  return 0;
}

// --- Client mode ------------------------------------------------------------

void printStats(const server::DaemonStats &S) {
  std::printf("daemon: requests=%llu served=%llu rejected=%llu "
              "cache_hits=%llu cache_misses=%llu cache_entries=%llu "
              "cache_bytes=%llu cache_evictions=%llu crashed=%llu "
              "timeouts=%llu workers=%llu spawned=%llu worker_crashes=%llu "
              "recycled=%llu hard_kills=%llu shed_queue_full=%llu "
              "shed_client_cap=%llu shed_draining=%llu queue_depth=%llu "
              "queue_peak=%llu coalesced_replies=%llu "
              "quarantine_replies=%llu quarantined_keys=%llu "
              "quarantined_total=%llu drained_jobs=%llu hellos=%llu "
              "version_rejects=%llu\n",
              static_cast<unsigned long long>(S.Requests),
              static_cast<unsigned long long>(S.Served),
              static_cast<unsigned long long>(S.Rejected),
              static_cast<unsigned long long>(S.CacheHits),
              static_cast<unsigned long long>(S.CacheMisses),
              static_cast<unsigned long long>(S.CacheEntries),
              static_cast<unsigned long long>(S.CacheBytes),
              static_cast<unsigned long long>(S.CacheEvictions),
              static_cast<unsigned long long>(S.CrashedReplies),
              static_cast<unsigned long long>(S.TimeoutReplies),
              static_cast<unsigned long long>(S.Workers),
              static_cast<unsigned long long>(S.WorkersSpawned),
              static_cast<unsigned long long>(S.WorkersCrashed),
              static_cast<unsigned long long>(S.WorkersRecycled),
              static_cast<unsigned long long>(S.HardKills),
              static_cast<unsigned long long>(S.ShedQueueFull),
              static_cast<unsigned long long>(S.ShedClientCap),
              static_cast<unsigned long long>(S.ShedDraining),
              static_cast<unsigned long long>(S.QueueDepth),
              static_cast<unsigned long long>(S.QueuePeak),
              static_cast<unsigned long long>(S.CoalescedReplies),
              static_cast<unsigned long long>(S.QuarantineReplies),
              static_cast<unsigned long long>(S.QuarantinedKeys),
              static_cast<unsigned long long>(S.QuarantinedTotal),
              static_cast<unsigned long long>(S.DrainedJobs),
              static_cast<unsigned long long>(S.Hellos),
              static_cast<unsigned long long>(S.VersionRejects));
}

int runClient(const DaemonCliOptions &Opts) {
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

  // One client either way. Without --endpoints it is the one-daemon
  // client over --socket, connected up front so a missing daemon fails
  // before any request.
  const bool Replicated = !Opts.Replica.Endpoints.empty();
  server::ReplicaClient Client(
      Replicated ? Opts.Replica
                 : server::singleDaemonOptions(Opts.Server.SocketPath,
                                               Opts.Replica.Retry));
  std::string Error;
  if (!Replicated && !Client.connect(Error)) {
    std::fprintf(stderr, "optoctd: %s\n", Error.c_str());
    return 2;
  }

  bool AllProven = true, AnyCrashed = false;
  for (unsigned Pass = 0; Pass != std::max(1u, Opts.Repeat); ++Pass) {
    for (const runtime::BatchJob &Job : Jobs) {
      server::AnalyzeRequest Req;
      Req.Job = Job;
      Req.Engine = Opts.Engine;
      Req.MaxDbmCells = Opts.MaxDbmCells;
      Req.NoCache = Opts.NoCache;
      server::AnalyzeResponse Resp;
      server::ReplicaReplyInfo Info;
      if (!Client.analyze(Req, Resp, Error, &Info)) {
        std::fprintf(stderr, "optoctd: %s: %s\n", Job.Name.c_str(),
                     Error.c_str());
        return 2;
      }
      // Replica mode appends its provenance as a trailing column; the
      // single-endpoint line stays exactly as the CI smoke parses it.
      std::string PathCol =
          Replicated ? std::string(" path=") + server::replyPathName(Info.Path)
                     : std::string();
      if (Resp.Overloaded) {
        std::printf("%-24s OVERLOADED after %u attempts (retry_ms=%llu)%s\n",
                    Job.Name.c_str(), Info.Cycles,
                    static_cast<unsigned long long>(Resp.RetryMs),
                    PathCol.c_str());
        AllProven = false;
        continue;
      }
      if (!Resp.Ok) {
        std::printf("%-24s REJECTED: %s\n", Job.Name.c_str(),
                    Resp.Error.c_str());
        AllProven = false;
        continue;
      }
      runtime::JobResult R;
      if (!runtime::deserializeJobResult(Resp.ResultRecord, R, Error)) {
        std::fprintf(stderr, "optoctd: %s: bad result record: %s\n",
                     Job.Name.c_str(), Error.c_str());
        return 2;
      }
      const char *Label = R.Status == runtime::JobStatus::Ok ? "OK"
                          : R.Status == runtime::JobStatus::Degraded
                              ? "DEGRADED"
                          : R.Status == runtime::JobStatus::Failed ? "FAILED"
                          : R.Status == runtime::JobStatus::Timeout
                              ? "TIMEOUT"
                              : "CRASHED";
      std::printf("%-24s %s %u/%u cached=%d key=%s digest=%s%s\n",
                  R.Name.c_str(), Label, R.AssertsProven, R.AssertsTotal,
                  Resp.Cached ? 1 : 0, support::hex64(Resp.Key).c_str(),
                  support::hex64(support::fnv1a64(Resp.ResultRecord)).c_str(),
                  PathCol.c_str());
      if (R.Status == runtime::JobStatus::Crashed) {
        AnyCrashed = true;
        std::printf("    %s\n", R.Error.c_str());
      }
      if (R.Status != runtime::JobStatus::Ok ||
          R.AssertsProven != R.AssertsTotal)
        AllProven = false;
      if (Opts.PrintInvariants)
        for (const std::string &Inv : R.LoopInvariants)
          std::printf("    %s\n", Inv.c_str());
    }
  }

  if (Opts.PrintStats) {
    server::DaemonStats S;
    std::string StatsFrom;
    if (!Client.queryStats(S, Error, Replicated ? &StatsFrom : nullptr)) {
      std::fprintf(stderr, "optoctd: stats: %s\n", Error.c_str());
      return 2;
    }
    if (!StatsFrom.empty())
      std::printf("stats_from %s\n", StatsFrom.c_str());
    printStats(S);
  }
  if (AnyCrashed)
    return 3;
  return AllProven ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  try {
    DaemonCliOptions Opts;
    if (!parseArgs(Argc, Argv, Opts)) {
      usage(Argv[0]);
      return 2;
    }
    return Opts.ClientMode ? runClient(Opts) : runDaemon(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "optoctd: fatal: %s\n", E.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "optoctd: fatal: unknown error\n");
    return 2;
  }
}
