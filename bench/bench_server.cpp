//===- bench/bench_server.cpp - Daemon request throughput -----------------===//
///
/// \file
/// Measures the analysis daemon (src/server) end to end: an in-process
/// Server on its own thread, one blocking client, and a deterministic
/// request stream with a configurable repeat ratio. Reports sustained
/// requests per second, p50/p99 round-trip latency, and the cache hit
/// rate — then replays the identical stream a second time, which must
/// be ~100% cache hits with byte-identical result records (the daemon's
/// core contract; the run fails if a digest diverges).
///
/// Writes BENCH_server.json (override with --json=<path>), annotated
/// with the CPU features and OPTOCT_* environment via
/// support/cpuinfo.h, so runs on different machines stay comparable.
///
/// A third, contended leg measures the overload machinery: K client
/// threads fire the *same fresh program* simultaneously each round, so
/// every round is one cache miss plus K-1 candidates for in-flight
/// coalescing. Reports the coalescing rate (coalesced replies over the
/// K-1 duplicates per round), the shed rate, and whether every reply in
/// a round carried byte-identical result records.
///
/// A fourth, failover leg replays the stream through the replica tier
/// (server/replica.h) over two daemons and stops the preferred one
/// halfway: reports the healthy-path p50 (the replica layer's overhead
/// over the plain client), the latency of the single request that paid
/// the failover detection, the p50 on the surviving replica — and
/// whether every reply stayed byte-identical to the cold pass. Its
/// five SIGSTOP runs fork two daemons each and freeze the preferred one
/// halfway: per run, the p50, p99 and max latency at a 250 ms receive
/// timeout, the price of a frozen replica under sticky failover.
///
///   --requests=<n>  stream length per pass           (default 400)
///   --repeat=<r>    fraction of repeated programs     (default 0.5)
///   --workers=<n>   daemon worker processes           (default 2)
///   --contended-clients=<k>  threads in the contended leg (default 4)
///   --contended-rounds=<n>   rounds in the contended leg  (default 50)
///   --json=<path>   output file      (default BENCH_server.json)
///
//===----------------------------------------------------------------------===//

#include "oct/simd_dispatch.h"
#include "server/client.h"
#include "server/replica.h"
#include "server/server.h"
#include "support/cpuinfo.h"
#include "support/fnv.h"
#include "support/table.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace optoct;

namespace {

/// Small bounded-loop program parameterized for distinct cache keys;
/// analyzes in well under a millisecond, so the bench measures the
/// daemon, not the fixpoint engine.
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

/// Deterministic 64-bit LCG — the stream must be identical run to run.
/// (Named Lcg, not Rng: optoct::Rng is now visible through client.h.)
struct Lcg {
  std::uint64_t State = 0x9e3779b97f4a7c15ull;
  std::uint64_t next() {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return State >> 17;
  }
};

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0.0;
  std::size_t I = static_cast<std::size_t>(P * (Sorted.size() - 1));
  return Sorted[I];
}

/// One daemon in a forked process, so the SIGSTOP leg can freeze it.
pid_t forkDaemon(const std::string &Socket, unsigned Workers) {
  std::fflush(nullptr); // the child must not flush our buffered output
  pid_t Pid = ::fork();
  if (Pid == 0) {
    server::ServerOptions O;
    O.SocketPath = Socket;
    O.Workers = Workers;
    server::Server S(std::move(O));
    std::string E;
    if (!S.start(E))
      std::_Exit(41);
    S.serve();
    std::_Exit(0);
  }
  return Pid;
}

bool waitForDaemon(const std::string &Socket) {
  for (int Try = 0; Try != 250; ++Try) {
    server::DaemonClient Probe;
    std::string E;
    if (Probe.connect(Socket, E))
      return true;
    ::usleep(20 * 1000);
  }
  return false;
}

/// Thaws, terminates and reaps a forked daemon (its drain retires the
/// workers).
void stopDaemon(pid_t Pid, const std::string &Socket) {
  if (Pid > 0) {
    ::kill(Pid, SIGCONT);
    ::kill(Pid, SIGTERM);
    ::waitpid(Pid, nullptr, 0);
  }
  std::remove(Socket.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = "BENCH_server.json";
  unsigned Requests = 400;
  unsigned Workers = 2;
  double RepeatRatio = 0.5;
  unsigned ContendedClients = 4;
  unsigned ContendedRounds = 50;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else if (std::strncmp(Argv[I], "--requests=", 11) == 0)
      Requests = static_cast<unsigned>(std::strtoul(Argv[I] + 11, nullptr, 10));
    else if (std::strncmp(Argv[I], "--workers=", 10) == 0)
      Workers = static_cast<unsigned>(std::strtoul(Argv[I] + 10, nullptr, 10));
    else if (std::strncmp(Argv[I], "--repeat=", 9) == 0)
      RepeatRatio = std::strtod(Argv[I] + 9, nullptr);
    else if (std::strncmp(Argv[I], "--contended-clients=", 20) == 0)
      ContendedClients =
          static_cast<unsigned>(std::strtoul(Argv[I] + 20, nullptr, 10));
    else if (std::strncmp(Argv[I], "--contended-rounds=", 19) == 0)
      ContendedRounds =
          static_cast<unsigned>(std::strtoul(Argv[I] + 19, nullptr, 10));
  }
  if (Requests == 0)
    Requests = 1;
  RepeatRatio = std::min(1.0, std::max(0.0, RepeatRatio));

  // The request stream: each slot either repeats an already-requested
  // program (probability RepeatRatio) or introduces a fresh one.
  Lcg R;
  std::vector<unsigned> Stream; // program bound per request
  unsigned Fresh = 0;
  for (unsigned I = 0; I != Requests; ++I) {
    bool Repeat = Fresh != 0 && (R.next() % 1000) < RepeatRatio * 1000;
    if (Repeat)
      Stream.push_back(10 + static_cast<unsigned>(R.next() % Fresh));
    else
      Stream.push_back(10 + Fresh++);
  }

  server::ServerOptions Opts;
  Opts.SocketPath = "bench_server." + std::to_string(::getpid()) + ".sock";
  Opts.Workers = Workers;
  server::Server Daemon(Opts);
  std::string Error;
  if (!Daemon.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::thread ServerThread([&] { Daemon.serve(); });

  server::DaemonClient Client;
  if (!Client.connect(Opts.SocketPath, Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    Daemon.requestStop();
    ServerThread.join();
    return 1;
  }

  std::printf("=== Daemon throughput (%u requests/pass, %.0f%% repeat "
              "ratio, %u workers) ===\n\n",
              Requests, RepeatRatio * 100, Workers);

  struct Pass {
    double WallSeconds = 0.0;
    double ReqPerSec = 0.0;
    double P50Ms = 0.0, P99Ms = 0.0;
    double HitRate = 0.0;
    std::uint64_t Hits = 0, Misses = 0;
  };
  Pass Passes[2];
  std::vector<std::uint64_t> Digests[2];
  bool AllServed = true;

  for (int PassNo = 0; PassNo != 2; ++PassNo) {
    server::DaemonStats Before;
    if (!Client.queryStats(Before, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      break;
    }
    std::vector<double> LatMs;
    LatMs.reserve(Stream.size());
    auto PassStart = std::chrono::steady_clock::now();
    for (unsigned Bound : Stream) {
      server::AnalyzeRequest Req;
      Req.Job.Name = "loop" + std::to_string(Bound);
      Req.Job.Source = loopProgram(Bound);
      server::AnalyzeResponse Resp;
      auto T0 = std::chrono::steady_clock::now();
      if (!Client.analyze(std::move(Req), Resp, Error) || !Resp.Ok) {
        std::fprintf(stderr, "error: request failed: %s%s\n", Error.c_str(),
                     Resp.Error.c_str());
        AllServed = false;
        break;
      }
      auto T1 = std::chrono::steady_clock::now();
      LatMs.push_back(std::chrono::duration<double, std::milli>(T1 - T0)
                          .count());
      Digests[PassNo].push_back(support::fnv1a64(Resp.ResultRecord));
    }
    auto PassEnd = std::chrono::steady_clock::now();
    server::DaemonStats After;
    if (!Client.queryStats(After, Error))
      break;

    Pass &P = Passes[PassNo];
    P.WallSeconds = std::chrono::duration<double>(PassEnd - PassStart).count();
    P.ReqPerSec = P.WallSeconds > 0 ? LatMs.size() / P.WallSeconds : 0.0;
    std::sort(LatMs.begin(), LatMs.end());
    P.P50Ms = percentile(LatMs, 0.50);
    P.P99Ms = percentile(LatMs, 0.99);
    P.Hits = After.CacheHits - Before.CacheHits;
    P.Misses = After.CacheMisses - Before.CacheMisses;
    P.HitRate = P.Hits + P.Misses
                    ? static_cast<double>(P.Hits) / (P.Hits + P.Misses)
                    : 0.0;
  }

  // --- Contended leg: K threads, same fresh program per round --------
  struct ContendedStats {
    std::uint64_t Requests = 0, OkReplies = 0, OverloadedFinal = 0;
    std::uint64_t Coalesced = 0, ShedQueueFull = 0, ShedClientCap = 0;
    double CoalesceRate = 0.0, WallSeconds = 0.0, ReqPerSec = 0.0;
    bool ByteIdentical = true;
  } Cont;
  if (AllServed && ContendedClients > 1 && ContendedRounds != 0) {
    std::vector<std::unique_ptr<server::ReplicaClient>> Peers;
    for (unsigned C = 0; C != ContendedClients; ++C) {
      server::RetryPolicy Retry;
      Retry.Seed = C; // decorrelate the jitter streams
      Peers.push_back(std::make_unique<server::ReplicaClient>(
          server::singleDaemonOptions(Opts.SocketPath, Retry)));
      if (!Peers.back()->connect(Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        AllServed = false;
      }
    }
    server::DaemonStats Before;
    if (AllServed && !Client.queryStats(Before, Error))
      AllServed = false;
    auto ContStart = std::chrono::steady_clock::now();
    for (unsigned Round = 0; AllServed && Round != ContendedRounds; ++Round) {
      // Fresh key every round (bounds disjoint from the pass stream):
      // one miss plus K-1 concurrent duplicates, released together so
      // the duplicates land while the miss is in flight.
      std::string Name = "contended" + std::to_string(Round);
      std::string Source = loopProgram(1000000 + Round);
      std::atomic<unsigned> Ready{0};
      std::atomic<bool> Go{false};
      std::vector<std::uint64_t> Digests(ContendedClients, 0);
      std::vector<int> Outcome(ContendedClients, 0); // 0 ok, 1 shed, 2 err
      std::vector<std::thread> Threads;
      for (unsigned C = 0; C != ContendedClients; ++C)
        Threads.emplace_back([&, C] {
          server::AnalyzeRequest Req;
          Req.Job.Name = Name;
          Req.Job.Source = Source;
          server::AnalyzeResponse Resp;
          std::string ThreadError;
          ++Ready;
          while (!Go.load(std::memory_order_acquire))
            std::this_thread::yield();
          if (!Peers[C]->analyze(Req, Resp, ThreadError))
            Outcome[C] = 2;
          else if (Resp.Overloaded)
            Outcome[C] = 1;
          else if (!Resp.Ok)
            Outcome[C] = 2;
          else
            Digests[C] = support::fnv1a64(Resp.ResultRecord);
        });
      while (Ready.load() != ContendedClients)
        std::this_thread::yield();
      Go.store(true, std::memory_order_release);
      for (std::thread &T : Threads)
        T.join();
      std::uint64_t RefDigest = 0;
      for (unsigned C = 0; C != ContendedClients; ++C) {
        ++Cont.Requests;
        if (Outcome[C] == 0) {
          ++Cont.OkReplies;
          if (RefDigest == 0)
            RefDigest = Digests[C];
          else if (Digests[C] != RefDigest)
            Cont.ByteIdentical = false; // duplicates must match the miss
        } else if (Outcome[C] == 1) {
          ++Cont.OverloadedFinal;
        } else {
          AllServed = false;
        }
      }
    }
    Cont.WallSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - ContStart)
                           .count();
    Cont.ReqPerSec =
        Cont.WallSeconds > 0 ? Cont.Requests / Cont.WallSeconds : 0.0;
    server::DaemonStats After;
    if (AllServed && Client.queryStats(After, Error)) {
      Cont.Coalesced = After.CoalescedReplies - Before.CoalescedReplies;
      Cont.ShedQueueFull = After.ShedQueueFull - Before.ShedQueueFull;
      Cont.ShedClientCap = After.ShedClientCap - Before.ShedClientCap;
      std::uint64_t Duplicates =
          std::uint64_t(ContendedRounds) * (ContendedClients - 1);
      Cont.CoalesceRate = Duplicates
                              ? static_cast<double>(Cont.Coalesced) / Duplicates
                              : 0.0;
    }
    std::printf("contended: %u clients x %u rounds: %.0f req/s, "
                "%.0f%% of duplicates coalesced, %llu shed, "
                "replies byte-identical: %s\n\n",
                ContendedClients, ContendedRounds, Cont.ReqPerSec,
                Cont.CoalesceRate * 100,
                static_cast<unsigned long long>(Cont.ShedQueueFull +
                                                Cont.ShedClientCap),
                Cont.ByteIdentical ? "yes" : "NO (BUG)");
  }

  // --- Failover leg: kill the preferred replica mid-stream -----------
  // A replica client over [daemon A, fresh daemon B] replays the
  // stream; halfway through, daemon A is stopped. Measures what the
  // replica tier costs when healthy (vs the plain client above), what
  // the one failover request pays, and steady-state after — with every
  // reply still byte-identical to the cold pass (B recomputes misses
  // through the same canonicalizing pipeline A did).
  struct FailoverStats {
    std::uint64_t Requests = 0, Failovers = 0, Primaries = 0;
    double PrimaryP50Ms = 0.0; ///< p50 before the kill (path=primary)
    double FailoverMs = 0.0;   ///< the request that crossed the kill
    double AfterP50Ms = 0.0;   ///< p50 after the kill (on replica B)
    bool ByteIdentical = true;
    bool Ran = false;
  } Fo;
  bool DaemonAStopped = false;
  if (AllServed) {
    server::ServerOptions OptsB = Opts;
    OptsB.SocketPath =
        "bench_server_b." + std::to_string(::getpid()) + ".sock";
    server::Server DaemonB(OptsB);
    if (!DaemonB.start(Error)) {
      std::fprintf(stderr, "error: failover leg: %s\n", Error.c_str());
    } else {
      std::thread ThreadB([&] { DaemonB.serve(); });
      server::ReplicaOptions RO;
      RO.Endpoints = {Opts.SocketPath, OptsB.SocketPath};
      RO.Retry.MaxAttempts = 4;
      RO.Retry.Seed = 7; // deterministic schedule for a bench
      server::ReplicaClient Replica(std::move(RO));
      std::vector<double> BeforeMs, AfterMs;
      const std::size_t KillAt = Stream.size() / 2;
      Fo.Ran = true;
      for (std::size_t I = 0; I != Stream.size(); ++I) {
        if (I == KillAt) {
          Daemon.requestStop(); // replica A dies mid-stream
          ServerThread.join();
          DaemonAStopped = true;
        }
        server::AnalyzeRequest Req;
        Req.Job.Name = "loop" + std::to_string(Stream[I]);
        Req.Job.Source = loopProgram(Stream[I]);
        server::AnalyzeResponse Resp;
        server::ReplicaReplyInfo Info;
        auto T0 = std::chrono::steady_clock::now();
        if (!Replica.analyze(Req, Resp, Error, &Info) || !Resp.Ok) {
          std::fprintf(stderr, "error: failover request failed: %s%s\n",
                       Error.c_str(), Resp.Error.c_str());
          AllServed = false;
          break;
        }
        double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
        ++Fo.Requests;
        if (Info.Path == server::ReplyPath::Failover && Fo.Failovers == 0)
          Fo.FailoverMs = Ms; // the request that paid the detection
        else if (I < KillAt)
          BeforeMs.push_back(Ms);
        else
          AfterMs.push_back(Ms);
        if (Info.Path == server::ReplyPath::Failover)
          ++Fo.Failovers;
        if (Info.Path == server::ReplyPath::Primary)
          ++Fo.Primaries;
        if (support::fnv1a64(Resp.ResultRecord) != Digests[0][I])
          Fo.ByteIdentical = false; // must match the cold pass bytes
      }
      std::sort(BeforeMs.begin(), BeforeMs.end());
      std::sort(AfterMs.begin(), AfterMs.end());
      Fo.PrimaryP50Ms = percentile(BeforeMs, 0.50);
      Fo.AfterP50Ms = percentile(AfterMs, 0.50);
      DaemonB.requestStop();
      ThreadB.join();
      std::remove(OptsB.SocketPath.c_str());
      std::printf("failover: %llu requests, kill at %zu: p50 %.3f ms "
                  "before, failover request %.3f ms, p50 %.3f ms after, "
                  "%llu failovers, replies byte-identical: %s\n\n",
                  static_cast<unsigned long long>(Fo.Requests), KillAt,
                  Fo.PrimaryP50Ms, Fo.FailoverMs, Fo.AfterP50Ms,
                  static_cast<unsigned long long>(Fo.Failovers),
                  Fo.ByteIdentical ? "yes" : "NO (BUG)");
    }
  }

  // --- SIGSTOP leg: freeze the preferred replica mid-stream ----------
  // A stopped daemon keeps its sockets open and answers nothing, so only
  // the receive timeout gets a request past it, and sticky failover
  // makes that one request per client. Each run forks two fresh daemons
  // (only a process can be frozen), replays the stream through a
  // replica client and SIGSTOPs the preferred daemon halfway.
  struct StopRun {
    double P50Ms = 0.0, P99Ms = 0.0, MaxMs = 0.0, Failovers = 0.0;
  };
  std::vector<StopRun> StopRuns;
  const std::uint64_t StopRecvTimeoutMs = 250;
  for (unsigned Run = 0; AllServed && DaemonAStopped && Run != 5; ++Run) {
    std::string Paths[2];
    pid_t Pids[2];
    for (int D = 0; D != 2; ++D) {
      Paths[D] = "bench_server_s" + std::to_string(D) + "." +
                 std::to_string(::getpid()) + ".sock";
      Pids[D] = forkDaemon(Paths[D], Workers);
      if (Pids[D] <= 0 || !waitForDaemon(Paths[D])) {
        std::fprintf(stderr, "error: sigstop leg: daemon did not start\n");
        AllServed = false;
      }
    }
    server::ReplicaOptions RO;
    RO.Endpoints = {Paths[0], Paths[1]};
    RO.Retry.MaxAttempts = 4;
    RO.Retry.Seed = 7;
    RO.RecvTimeoutMs = StopRecvTimeoutMs;
    server::ReplicaClient Replica(std::move(RO));
    std::vector<double> LatMs;
    StopRun SR;
    for (std::size_t I = 0; AllServed && I != Stream.size(); ++I) {
      if (I == Stream.size() / 2)
        ::kill(Pids[0], SIGSTOP); // the preferred replica freezes
      server::AnalyzeRequest Req;
      Req.Job.Name = "loop" + std::to_string(Stream[I]);
      Req.Job.Source = loopProgram(Stream[I]);
      server::AnalyzeResponse Resp;
      server::ReplicaReplyInfo Info;
      auto T0 = std::chrono::steady_clock::now();
      if (!Replica.analyze(Req, Resp, Error, &Info) || !Resp.Ok ||
          Info.Path == server::ReplyPath::Local) {
        std::fprintf(stderr, "error: sigstop request failed: %s%s\n",
                     Error.c_str(), Resp.Error.c_str());
        AllServed = false;
        break;
      }
      LatMs.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - T0)
                          .count());
      SR.Failovers += Info.Path == server::ReplyPath::Failover;
      if (support::fnv1a64(Resp.ResultRecord) != Digests[0][I])
        Fo.ByteIdentical = false;
    }
    for (int D = 0; D != 2; ++D)
      stopDaemon(Pids[D], Paths[D]);
    std::sort(LatMs.begin(), LatMs.end());
    SR.P50Ms = percentile(LatMs, 0.50);
    SR.P99Ms = percentile(LatMs, 0.99);
    SR.MaxMs = LatMs.empty() ? 0.0 : LatMs.back();
    StopRuns.push_back(SR);
    std::printf("sigstop run %u: p50 %.3f ms, p99 %.3f ms, max %.1f ms, "
                "%.0f failovers\n",
                Run, SR.P50Ms, SR.P99Ms, SR.MaxMs, SR.Failovers);
  }
  auto RunList = [&](double StopRun::*Field) {
    std::ostringstream L;
    for (std::size_t R = 0; R != StopRuns.size(); ++R)
      L << (R ? ", " : "") << StopRuns[R].*Field;
    return "[" + L.str() + "]";
  };

  Client.close();
  if (!DaemonAStopped) {
    Daemon.requestStop();
    ServerThread.join();
  }

  // Replaying an identical stream must replay identical bytes: the
  // canonicalized record for a key never depends on which pass (or
  // which worker) produced it.
  bool Deterministic =
      AllServed && Digests[0].size() == Digests[1].size() &&
      std::equal(Digests[0].begin(), Digests[0].end(), Digests[1].begin());

  TextTable Table({"Pass", "Wall ms", "Req/s", "p50 ms", "p99 ms",
                   "Hit rate"});
  for (int I = 0; I != 2; ++I)
    Table.addRow({I == 0 ? "cold" : "warm",
                  TextTable::num(Passes[I].WallSeconds * 1e3, 1),
                  TextTable::num(Passes[I].ReqPerSec, 1),
                  TextTable::num(Passes[I].P50Ms, 3),
                  TextTable::num(Passes[I].P99Ms, 3),
                  TextTable::num(Passes[I].HitRate * 100, 1) + "%"});
  std::printf("%s\n", Table.render().c_str());
  std::printf("replayed responses byte-identical: %s\n\n",
              Deterministic ? "yes" : "NO (BUG)");

  std::ofstream Out(JsonPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
    return 1;
  }
  Out << "{\n  \"bench\": \"bench_server\",\n  "
      << support::benchContextJson(simdTierName(activeSimdTier())) << ",\n"
      << "  \"requests_per_pass\": " << Requests << ",\n"
      << "  \"repeat_ratio\": " << RepeatRatio << ",\n"
      << "  \"workers\": " << Workers << ",\n"
      << "  \"unique_programs\": " << Fresh << ",\n"
      << "  \"passes\": [\n";
  for (int I = 0; I != 2; ++I)
    Out << "    {\"pass\": \"" << (I == 0 ? "cold" : "warm")
        << "\", \"wall_seconds\": " << Passes[I].WallSeconds
        << ", \"requests_per_sec\": " << Passes[I].ReqPerSec
        << ", \"latency_p50_ms\": " << Passes[I].P50Ms
        << ", \"latency_p99_ms\": " << Passes[I].P99Ms
        << ", \"cache_hits\": " << Passes[I].Hits
        << ", \"cache_misses\": " << Passes[I].Misses
        << ", \"cache_hit_rate\": " << Passes[I].HitRate << "}"
        << (I == 0 ? "," : "") << "\n";
  Out << "  ],\n"
      << "  \"contended\": {\"clients\": " << ContendedClients
      << ", \"rounds\": " << ContendedRounds
      << ", \"requests\": " << Cont.Requests
      << ", \"ok_replies\": " << Cont.OkReplies
      << ", \"overloaded_final\": " << Cont.OverloadedFinal
      << ", \"coalesced_replies\": " << Cont.Coalesced
      << ", \"coalesce_rate\": " << Cont.CoalesceRate
      << ", \"shed_queue_full\": " << Cont.ShedQueueFull
      << ", \"shed_client_cap\": " << Cont.ShedClientCap
      << ", \"requests_per_sec\": " << Cont.ReqPerSec
      << ", \"replies_byte_identical\": "
      << (Cont.ByteIdentical ? "true" : "false") << "},\n"
      << "  \"failover\": {\"ran\": " << (Fo.Ran ? "true" : "false")
      << ", \"requests\": " << Fo.Requests
      << ", \"primary_replies\": " << Fo.Primaries
      << ", \"failover_replies\": " << Fo.Failovers
      << ", \"primary_p50_ms\": " << Fo.PrimaryP50Ms
      << ", \"failover_request_ms\": " << Fo.FailoverMs
      << ", \"after_kill_p50_ms\": " << Fo.AfterP50Ms
      << ", \"replies_byte_identical\": "
      << (Fo.ByteIdentical ? "true" : "false")
      << ",\n    \"sigstop\": {\"recv_timeout_ms\": " << StopRecvTimeoutMs
      << ", \"p50_ms\": " << RunList(&StopRun::P50Ms)
      << ", \"p99_ms\": " << RunList(&StopRun::P99Ms)
      << ", \"max_ms\": " << RunList(&StopRun::MaxMs)
      << ", \"failover_replies\": " << RunList(&StopRun::Failovers) << "}},\n"
      << "  \"replay_byte_identical\": " << (Deterministic ? "true" : "false")
      << "\n}\n";
  std::printf("wrote %s\n", JsonPath.c_str());

  return AllServed && Deterministic && Cont.ByteIdentical && Fo.ByteIdentical
             ? 0
             : 1;
}
