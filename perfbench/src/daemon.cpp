//===- perfbench/src/daemon.cpp - The daemon workloads --------------------===//
///
/// \file
/// daemon-hot and daemon-churn: a forked optoctd (--workers=2) driven by
/// an open-loop generator. Arrivals are Poisson at a fixed offered rate
/// over four Unix-socket connections; each request is timed from the
/// moment it was due, so a stall also charges the requests queued
/// behind it. One sender thread paces and writes the frames, one
/// receiver thread reads and checks the replies: every reply must be
/// byte-identical to the canonical record computed in process.
///
///   hot:   the daemon starts from a cache snapshot of the whole hot set
///          (the warm handoff); every request is a cache hit.
///   churn: a cold daemon whose cache budget is below the working set;
///          every request is a fresh-seed small program, every fifth
///          re-sends a key issued moments earlier.
///
/// The untraced run follows the fixed-rate phase with rounds of one
/// request sequence sent one at a time, each round on a fresh daemon,
/// for batch_wall_s. The traced run replays every request of the
/// fixed-rate phase in process (decode, fingerprint, cache, pipeline,
/// encode), attributes the rest of each client round trip to
/// server.rtt_residual, and climbs a rate ladder for capacity_rps.
///
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "layers.h"

#include "runtime/ipc.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "support/random.h"
#include "workloads/workload.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

extern char **environ;

using namespace optoct;
using runtime::ipc::MsgType;

namespace perfbench {
namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Open-loop shape, sized for a 4-way machine: the daemon's event loop,
/// two workers, and a generator of two threads.
constexpr unsigned Workers = 2;
constexpr unsigned Connections = 4;

/// The hot set: programs in the daemon's start snapshot.
constexpr unsigned HotSetSize = 2000;
/// Capacity's p99 limit, set from seed measurements and frozen.
constexpr double P99LimitMs = 100.0;
/// Generator lateness (p99) that voids a fixed-rate phase. Host
/// preemption bursts on shared virtual machines reach about 20 ms.
constexpr double MaxLateP99Ms = 10.0;

/// Workload parameters. The fixed rates sit well below each workload's
/// measured knee.
struct Shape {
  unsigned CacheMb;       ///< --cache-mb.
  double Rate;            ///< Fixed offered rate, requests/s.
  std::vector<double> Ladder; ///< Capacity ladder, requests/s.
  /// Every ResendEvery-th request re-sends a recent key (0: none). A
  /// fixed share, not a random one, so that the work of a sequence does
  /// not vary with the number of re-sends the seed happens to draw.
  unsigned ResendEvery;
  std::size_t BatchN;     ///< Requests per batch round (batch_wall_s).
  /// Busy-poll for replies in the open-loop phases. A receiver asleep in
  /// poll(2) adds its own wake-up latency, tens of microseconds and
  /// host-dependent, to every ~0.1 ms cache hit; on churn a spinning
  /// receiver would instead take a CPU from the workers. (Batch rounds,
  /// one request in flight, always busy-poll.)
  bool SpinReceiver;
};

const Shape HotShape = {64,
                        2000,
                        {7000, 8000, 9000, 10000, 11000, 12000, 13000, 14500,
                         16000, 18000},
                        0,
                        1000,
                        true};
const Shape ChurnShape = {1,
                          200,
                          {300, 350, 400, 460, 530, 610, 700, 800, 920},
                          5,
                          200,
                          false};

struct Program {
  runtime::BatchJob Job;
  std::uint64_t Key = 0;
  std::string Expected; ///< Canonical record computed in process.
};

/// Fresh-seed programs drawn from the small paper specs (1-7 ms each).
std::vector<Program> makePrograms(std::uint64_t Seed, unsigned N,
                                  const char *Tag) {
  static const char *Small[] = {"series", "matmult", "sor", "lufact",
                                "firefox"};
  std::vector<Program> Out(N);
  std::vector<runtime::BatchJob> Jobs;
  for (unsigned I = 0; I != N; ++I) {
    workloads::WorkloadSpec S = *workloads::findBenchmark(Small[I % 5]);
    S.Seed = static_cast<unsigned>(mixSeed(Seed, I));
    Out[I].Job = {S.Name + "-" + Tag + std::to_string(I),
                  workloads::generateProgram(S)};
    server::AnalyzeRequest Req;
    Req.Job = Out[I].Job;
    Out[I].Key = server::requestFingerprint(Req);
    Jobs.push_back(Out[I].Job);
  }
  // Expected replies: the in-process canonical result of each program.
  runtime::BatchOptions Opts;
  Opts.Jobs = Workers;
  Opts.CaptureInvariants = true;
  runtime::BatchReport Rep = runtime::runBatch(Jobs, Opts);
  for (unsigned I = 0; I != N; ++I)
    Out[I].Expected = canonicalRecord(Rep.Results[I]);
  return Out;
}

// --- The daemon under test ----------------------------------------------

class Daemon {
public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns optoctd and waits for its first answered Hello.
  bool start(const Args &A, const std::string &Socket,
             const std::vector<std::string> &Extra, std::string &Error) {
    this->Socket = Socket;
    ::unlink(Socket.c_str());
    std::vector<std::string> ArgV = {A.Optoctd, "--socket=" + Socket,
                                     "--workers=" + std::to_string(Workers)};
    ArgV.insert(ArgV.end(), Extra.begin(), Extra.end());
    std::vector<char *> CArgs;
    for (std::string &S : ArgV)
      CArgs.push_back(S.data());
    CArgs.push_back(nullptr);
    std::string Log = A.WorkDir + "/optoctd.log";
    posix_spawn_file_actions_t Fa;
    posix_spawn_file_actions_init(&Fa);
    posix_spawn_file_actions_addopen(&Fa, 1, Log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&Fa, 1, 2);
    Clock::time_point T0 = Clock::now();
    int Rc = ::posix_spawn(&Pid, A.Optoctd.c_str(), &Fa, nullptr,
                           CArgs.data(), environ);
    posix_spawn_file_actions_destroy(&Fa);
    if (Rc != 0) {
      Pid = -1;
      Error = "cannot spawn " + A.Optoctd + ": " + std::strerror(Rc);
      return false;
    }
    for (;;) {
      server::DaemonClient C;
      std::string E;
      if (C.connect(Socket, E)) {
        SetupS = msBetween(T0, Clock::now()) / 1000.0;
        return true;
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Error = "optoctd exited during start-up (see " + Log + ")";
        return false;
      }
      if (msBetween(T0, Clock::now()) > 20000) {
        Error = "optoctd did not answer Hello within 20 s: " + E;
        stop();
        return false;
      }
      ::usleep(200);
    }
  }

  bool stats(server::DaemonStats &S) {
    server::DaemonClient C;
    std::string E;
    return C.connect(Socket, E) && C.queryStats(S, E);
  }

  /// Peak RSS of the daemon plus its workers (sum of VmHWM), MiB.
  double peakRssMb() const {
    double Sum = procPeakRssMb(Pid);
    for (pid_t W : procChildren(Pid))
      Sum += procPeakRssMb(W);
    return Sum;
  }

  /// SIGTERM (graceful drain), then SIGKILL if it lingers; always reaps.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    Clock::time_point T0 = Clock::now();
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msBetween(T0, Clock::now()) > 15000) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      ::usleep(1000);
    }
    Pid = -1;
  }

  double SetupS = 0;

private:
  pid_t Pid = -1;
  std::string Socket;
};

// --- Open-loop generator --------------------------------------------------

bool sendAll(int Fd, const std::string &Bytes) {
  std::size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<std::size_t>(N);
  }
  return true;
}

/// A generator connection: socket + Hello, timed.
int openConnection(const std::string &Socket, double &ConnectMs,
                   std::string &Error) {
  Clock::time_point T0 = Clock::now();
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Fd < 0 || Socket.size() >= sizeof(Addr.sun_path)) {
    Error = "socket";
    if (Fd >= 0)
      ::close(Fd);
    return -1;
  }
  std::memcpy(Addr.sun_path, Socket.c_str(), Socket.size() + 1);
  MsgType Type{};
  std::string Body;
  std::uint32_t Version = 0;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      !sendAll(Fd, runtime::ipc::frameBytes(
                       MsgType::Hello,
                       server::encodeHello(server::ProtocolVersion))) ||
      runtime::ipc::readFrame(Fd, Type, Body) != runtime::ipc::ReadStatus::Ok ||
      Type != MsgType::Hello || !server::decodeHello(Body, Version) ||
      Version != server::ProtocolVersion) {
    Error = "connect/hello to " + Socket + " failed";
    ::close(Fd);
    return -1;
  }
  ConnectMs = msBetween(T0, Clock::now());
  return Fd;
}

struct PhaseResult {
  std::vector<double> LatencyMs; ///< From due time; Inf when not served.
  std::vector<double> RttMs;     ///< From send time (served requests).
  std::vector<double> LateMs;    ///< Send time minus due time.
  std::vector<std::string> Frames; ///< Request frames as sent.
  std::uint64_t Shed = 0, Wrong = 0, Lost = 0;
  double BacklogGrowth = 0;
  double FrameBytes = 0; ///< Mean request + reply frame bytes.
  std::vector<double> ConnectMs;
  double RunS = 0;
  bool Broken = false; ///< Transport failure (daemon died).

  double p(double Q) const { return quantile(LatencyMs, Q); }
  /// Median over three consecutive windows of each window's Q-quantile:
  /// one burst of host preemption moves one window, not the figure.
  double windowedP(double Q) const {
    std::size_t W = LatencyMs.size() / 3;
    std::vector<double> Per;
    for (std::size_t I = 0; I != 3 && W > 0; ++I)
      Per.push_back(quantile(
          std::vector<double>(LatencyMs.begin() + I * W,
                              LatencyMs.begin() + (I + 1) * W),
          Q));
    return median(Per);
  }
  double lateP99() const { return quantile(LateMs, 0.99); }
  std::uint64_t failed() const { return Shed + Wrong + Lost; }
};

/// One open-loop phase: \p Seq lists the program of each request.
/// With \p Window > 0 the phase is a closed loop instead: every request
/// is due at once and the sender keeps at most Window requests in flight.
PhaseResult runPhase(const std::string &Socket,
                     const std::vector<const Program *> &Seq, double Rate,
                     std::uint64_t Seed, bool Spin, std::size_t Window = 0) {
  PhaseResult R;
  std::size_t N = Seq.size();
  std::vector<int> Fds;
  std::string Error;
  for (unsigned C = 0; C != Connections; ++C) {
    double Ms = 0;
    int Fd = openConnection(Socket, Ms, Error);
    if (Fd < 0) {
      R.Broken = true;
      for (int F : Fds)
        ::close(F);
      return R;
    }
    Fds.push_back(Fd);
    R.ConnectMs.push_back(Ms);
  }

  // Schedule and frames, prepared before the clock starts.
  std::mt19937_64 Gen(Seed);
  std::exponential_distribution<double> Gap(Rate);
  std::vector<double> DueMs(N);
  double T = 0;
  for (std::size_t I = 0; I != N && Window == 0; ++I) {
    T += Gap(Gen) * 1000.0;
    DueMs[I] = T;
  }
  R.Frames.resize(N);
  for (std::size_t I = 0; I != N; ++I) {
    server::AnalyzeRequest Req;
    Req.Id = I + 1;
    Req.Job = Seq[I]->Job;
    R.Frames[I] = runtime::ipc::frameBytes(MsgType::Request,
                                           server::encodeAnalyzeRequest(Req));
  }

  std::vector<Clock::time_point> SentAt(N), RecvAt(N);
  std::vector<char> Outcome(N, 0); // 0 lost, 1 ok, 2 shed, 3 wrong
  std::vector<double> Outstanding(N);
  std::atomic<std::size_t> Received{0};
  std::atomic<bool> SenderDone{false};
  std::atomic<std::uint64_t> ReplyBytes{0};
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);

  std::thread Receiver([&] {
    std::vector<runtime::ipc::FrameReader> Readers(Fds.size());
    std::vector<pollfd> Pfds;
    for (int Fd : Fds)
      Pfds.push_back({Fd, POLLIN, 0});
    std::vector<char> Buf(1 << 16);
    Clock::time_point GiveUp{};
    while (Received.load() < N) {
      if (SenderDone.load()) {
        if (GiveUp == Clock::time_point{})
          GiveUp = Clock::now() + std::chrono::seconds(20);
        else if (Clock::now() > GiveUp)
          break;
      }
      if (::poll(Pfds.data(), Pfds.size(), Spin ? 0 : 50) <= 0)
        continue;
      for (std::size_t C = 0; C != Pfds.size(); ++C) {
        if (!(Pfds[C].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        ssize_t Got = ::read(Pfds[C].fd, Buf.data(), Buf.size());
        if (Got <= 0) {
          Pfds[C].fd = -1; // closed: what is missing counts as lost
          continue;
        }
        Clock::time_point Now = Clock::now();
        Readers[C].feed(Buf.data(), static_cast<std::size_t>(Got));
        MsgType Type{};
        std::string Body;
        while (Readers[C].next(Type, Body)) {
          server::AnalyzeResponse Resp;
          std::string E;
          if (Type != MsgType::Response ||
              !server::decodeAnalyzeResponse(Body, Resp, E) || Resp.Id == 0 ||
              Resp.Id > N || Outcome[Resp.Id - 1] != 0)
            continue;
          std::size_t I = Resp.Id - 1;
          RecvAt[I] = Now;
          ReplyBytes += Body.size();
          Outcome[I] = Resp.Overloaded                          ? 2
                       : Resp.Ok && Resp.ResultRecord == Seq[I]->Expected ? 1
                                                                 : 3;
          ++Received;
        }
      }
    }
  });

  for (std::size_t I = 0; I != N; ++I) {
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(DueMs[I]));
    // Sleep to just short of the due time, then spin: timer wake-up
    // latency (tens of microseconds) would otherwise show up as lateness.
    Clock::time_point Wake = Due - std::chrono::microseconds(100);
    if (Clock::now() < Wake)
      std::this_thread::sleep_until(Wake);
    while (Clock::now() < Due) {
    }
    while (Window != 0 && I - Received.load() >= Window)
      std::this_thread::yield();
    SentAt[I] = Clock::now();
    Outstanding[I] = static_cast<double>(I - Received.load());
    if (!sendAll(Fds[I % Fds.size()], R.Frames[I])) {
      R.Broken = true;
      break;
    }
  }
  SenderDone = true;
  Receiver.join();
  for (int Fd : Fds)
    ::close(Fd);
  R.RunS = msBetween(Start, Clock::now()) / 1000.0;

  std::uint64_t RequestBytes = 0;
  for (std::size_t I = 0; I != N; ++I) {
    Clock::time_point Due =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(DueMs[I]));
    RequestBytes += R.Frames[I].size();
    R.LateMs.push_back(msBetween(Due, SentAt[I]));
    switch (Outcome[I]) {
    case 1:
      R.LatencyMs.push_back(msBetween(Due, RecvAt[I]));
      R.RttMs.push_back(msBetween(SentAt[I], RecvAt[I]));
      break;
    case 2:
      ++R.Shed;
      R.LatencyMs.push_back(Inf);
      break;
    case 3:
      ++R.Wrong;
      R.LatencyMs.push_back(Inf);
      break;
    default:
      ++R.Lost;
      R.LatencyMs.push_back(Inf);
    }
  }
  R.FrameBytes =
      N ? static_cast<double>(RequestBytes + ReplyBytes.load()) / N : 0;
  // Backlog growth: mean in-flight count over the last fifth of the
  // sends minus that over the first fifth (after a short warm-up).
  std::size_t Fifth = N / 5;
  if (Fifth > 0) {
    auto MeanOf = [&](std::size_t B, std::size_t E) {
      return mean(std::vector<double>(Outstanding.begin() + B,
                                      Outstanding.begin() + E));
    };
    R.BacklogGrowth = MeanOf(N - Fifth, N) - MeanOf(N / 20, N / 20 + Fifth);
  }
  return R;
}

/// The request sequence of one phase: \p Count requests. Hot draws
/// uniformly from the hot set; churn walks the pool from a random
/// offset, and every ResendEvery-th request re-sends a key from the last
/// eight requests.
std::vector<const Program *> makeSequence(const std::vector<Program> &Pool,
                                          const Shape &Sh, bool Hot,
                                          std::size_t Count,
                                          std::uint64_t Seed) {
  Rng R(Seed);
  std::vector<const Program *> Seq;
  std::size_t Next = R.indexBelow(Pool.size());
  for (std::size_t I = 0; I != Count; ++I) {
    if (Hot)
      Seq.push_back(&Pool[R.indexBelow(Pool.size())]);
    else if (Sh.ResendEvery && I % Sh.ResendEvery == Sh.ResendEvery - 1)
      Seq.push_back(Seq[I - 1 - R.indexBelow(std::min<std::size_t>(I, 8))]);
    else
      Seq.push_back(&Pool[Next++ % Pool.size()]);
  }
  return Seq;
}

bool phasePasses(const PhaseResult &P) {
  return !P.Broken && P.failed() == 0 && P.p(0.99) <= P99LimitMs;
}

void tallyPhase(Outcome &O, const PhaseResult &P) {
  O.Attempted += P.LatencyMs.size();
  O.Failed += P.failed();
  if (P.Wrong)
    O.mismatch(std::to_string(P.Wrong) +
               " daemon replies differ from the in-process canonical result");
  if (P.Lost)
    O.note(std::to_string(P.Lost) + " requests got no reply");
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.4g", V);
  return Buf;
}

// --- In-process replay (traced run) ---------------------------------------

struct Replay {
  LayerTotals T;
  ServerLayers S;
  double ResidualMs = 0; ///< Per request: outer timer minus spans.
  double TracedMs = 0, UntracedMs = 0; ///< Per request.
  bool SumOk = true;
};

/// Replays the phase's requests in order through decode, fingerprint,
/// cache lookup, (on a miss) the traced pipeline and cache insert, and
/// reply encoding, traced and then untraced, each from a copy of
/// \p Start, the cache the daemon started with.
Replay replayPhase(const PhaseResult &P,
                   const std::vector<const Program *> &Seq,
                   const server::InvariantCache &Start, Outcome &O) {
  Replay R;
  server::InvariantCache Cache = Start, Fresh = Start;
  std::size_t N = P.Frames.size();
  double DecodeMs = 0, FpMs = 0, LookupMs = 0, InsertMs = 0, EncodeMs = 0,
         OuterMs = 0;
  std::uint64_t Inserts = 0;
  std::vector<double> ReplayMs(N);
  for (std::size_t I = 0; I != N; ++I) {
    LayerTotals Before = R.T;
    Clock::time_point T0 = Clock::now();
    runtime::ipc::FrameReader Reader;
    Reader.feed(P.Frames[I].data(), P.Frames[I].size());
    MsgType Type{};
    std::string Body, Error;
    server::AnalyzeRequest Req;
    bool Decoded = Reader.next(Type, Body) &&
                   server::decodeAnalyzeRequest(Body, Req, Error);
    Clock::time_point T1 = Clock::now();
    std::uint64_t Key = server::requestFingerprint(Req);
    Clock::time_point T2 = Clock::now();
    std::string Record;
    bool Hit = Cache.lookup(Key, Record);
    Clock::time_point T3 = Clock::now();
    Clock::time_point T4 = T3, T5 = T3;
    if (!Hit) {
      tracedJob(Req.Job, Req.Engine, R.T, Record);
      T4 = Clock::now();
      Cache.insert(Key, Record);
      T5 = Clock::now();
      ++Inserts;
    }
    server::AnalyzeResponse Resp;
    Resp.Id = Req.Id;
    Resp.Ok = true;
    Resp.Cached = Hit;
    Resp.Key = Key;
    Resp.ResultRecord = Record;
    std::string Reply = runtime::ipc::frameBytes(
        MsgType::Response, server::encodeAnalyzeResponse(Resp));
    Clock::time_point T6 = Clock::now();

    DecodeMs += msBetween(T0, T1);
    FpMs += msBetween(T1, T2);
    LookupMs += msBetween(T2, T3);
    InsertMs += msBetween(T4, T5);
    EncodeMs += msBetween(T5, T6);
    double Outer = msBetween(T0, T6);
    double Pipeline = R.T.pipelineMs() - Before.pipelineMs();
    OuterMs += Outer;
    R.ResidualMs += Outer - (msBetween(T0, T3) + Pipeline +
                             msBetween(T4, T6));
    ReplayMs[I] = Outer;
    if (!Decoded || Record != Seq[I]->Expected)
      O.mismatch("replayed reply differs from the canonical result");
  }

  // The same replay untraced: public entry points only, one timer.
  Clock::time_point U0 = Clock::now();
  for (std::size_t I = 0; I != N; ++I) {
    runtime::ipc::FrameReader Reader;
    Reader.feed(P.Frames[I].data(), P.Frames[I].size());
    MsgType Type{};
    std::string Body, Error, Record;
    server::AnalyzeRequest Req;
    Reader.next(Type, Body);
    server::decodeAnalyzeRequest(Body, Req, Error);
    std::uint64_t Key = server::requestFingerprint(Req);
    if (!Fresh.lookup(Key, Record)) {
      runtime::BatchOptions Opts;
      Opts.Engine = Req.Engine;
      Record = canonicalRecord(runtime::runJob(Req.Job, Opts));
      Fresh.insert(Key, Record);
    }
    server::AnalyzeResponse Resp;
    Resp.Id = Req.Id;
    Resp.Ok = true;
    Resp.Key = Key;
    Resp.ResultRecord = std::move(Record);
    runtime::ipc::frameBytes(MsgType::Response,
                             server::encodeAnalyzeResponse(Resp));
  }
  R.UntracedMs = msBetween(U0, Clock::now()) / N;
  R.TracedMs = OuterMs / N;
  // On a hit the spans tile the replay exactly; allow rounding below 0.
  R.SumOk = R.ResidualMs >= -1e-9 * OuterMs && R.ResidualMs <= 0.10 * OuterMs;
  R.ResidualMs /= N;

  double Nd = static_cast<double>(N);
  R.S.DecodeUs = DecodeMs * 1000 / Nd;
  R.S.FingerprintUs = FpMs * 1000 / Nd;
  R.S.LookupUs = LookupMs * 1000 / Nd;
  R.S.InsertUs = Inserts ? InsertMs * 1000 / Inserts : 0;
  R.S.EncodeUs = EncodeMs * 1000 / Nd;
  // Client round trip minus the in-process work of the same request:
  // transport, event loop, queue wait and worker dispatch.
  std::vector<double> Residual;
  std::size_t J = 0;
  for (std::size_t I = 0; I != N && J != P.RttMs.size(); ++I)
    if (std::isfinite(P.LatencyMs[I]))
      Residual.push_back(P.RttMs[J++] - ReplayMs[I]);
  R.S.RttResidualP50Ms = quantile(Residual, 0.5);
  R.S.RttResidualP99Ms = quantile(Residual, 0.99);
  return R;
}

} // namespace

Outcome runDaemon(const Args &A, bool Hot) {
  Outcome O;
  const Shape &Sh = Hot ? HotShape : ChurnShape;
  std::string Socket = A.WorkDir + "/optoctd.sock";
  // The snapshot the benchmark builds, and the copy each hot daemon
  // starts from: a daemon saves its cache back into its --cache-file on
  // SIGTERM, so every spawn gets a fresh copy of the pristine file.
  std::string Snapshot = A.WorkDir + "/hot-snapshot.cache";
  std::string LiveSnapshot = A.WorkDir + "/hot-live.cache";
  std::string SnapshotBytes;

  // Phase sizes. The untraced run spends most of its time on the batch
  // rounds of batch_wall_s; its short fixed-rate phase checks replies
  // and leaves the daemon at its serving peak RSS. The traced run reports
  // the latency percentiles from a longer fixed-rate phase and climbs the
  // capacity ladder. Churn walks its pool without wrapping inside a
  // phase, so the pool covers the largest phase.
  double FixedS = (A.Trace ? 0.4 : 0.15) * A.Seconds;
  std::size_t FixedN = static_cast<std::size_t>(Sh.Rate * FixedS);
  double RungS = 0.4 * A.Seconds / static_cast<double>(Sh.Ladder.size());
  auto RungN = [&](double Rate) {
    return std::max<std::size_t>(200, static_cast<std::size_t>(Rate * RungS));
  };
  unsigned Programs =
      Hot ? HotSetSize
          : static_cast<unsigned>(std::max(
                FixedN, A.Trace ? RungN(Sh.Ladder.back()) : Sh.BatchN));

  // Inputs and their expected replies (not timed).
  std::vector<Program> Pool = makePrograms(A.Seed, Programs, Hot ? "h" : "c");
  Clock::time_point RunStart = Clock::now();
  if (Hot) {
    server::InvariantCache C(static_cast<std::size_t>(Sh.CacheMb) << 20);
    for (const Program &P : Pool)
      C.insert(P.Key, P.Expected);
    std::string Error;
    if (!C.save(Snapshot, Error) || !readFile(Snapshot, SnapshotBytes)) {
      O.Invalid = true;
      O.note("cannot write the hot snapshot: " + Error);
      return O;
    }
  }
  if (A.CorruptExpected)
    for (Program &P : Pool)
      corrupt(P.Expected);
  std::vector<std::string> Flags = {"--cache-mb=" + std::to_string(Sh.CacheMb)};
  if (Hot)
    Flags.push_back("--cache-file=" + LiveSnapshot);

  // Set-up time, spawn to first answered Hello, is taken from every
  // daemon of the run; three spawns first only for that.
  std::vector<double> SetupS;
  std::string Error;
  auto Spawn = [&](Daemon &D) {
    if (Hot && (::unlink((LiveSnapshot + ".lock").c_str()),
                !writeFile(LiveSnapshot, SnapshotBytes))) {
      O.Invalid = true;
      O.note("cannot copy the hot snapshot to " + LiveSnapshot);
      return false;
    }
    if (!D.start(A, Socket, Flags, Error)) {
      O.Invalid = true;
      O.note(Error);
      return false;
    }
    SetupS.push_back(D.SetupS);
    return true;
  };
  // On hot every request must be a cache hit; a miss means the daemon
  // did not start from the snapshot (optoctd cold-starts on an unusable
  // --cache-file and only logs it), and the run measured the miss path.
  auto CheckAllHits = [&](const server::DaemonStats &S, const char *Phase) {
    if (Hot && S.CacheMisses != 0)
      O.mismatch(std::to_string(S.CacheMisses) +
                 " cache misses on daemon-hot (" + Phase +
                 "): the daemon did not start from the snapshot");
  };
  auto QueryHits = [&](Daemon &D, const char *Phase) {
    server::DaemonStats S;
    if (!Hot)
      return;
    if (!D.stats(S))
      O.mismatch(std::string("stats query failed (") + Phase + ")");
    else
      CheckAllHits(S, Phase);
  };
  for (int Rep = 0; Rep != 7; ++Rep) {
    Daemon D;
    if (!Spawn(D))
      return O;
  }

  std::vector<const Program *> FixedSeq =
      makeSequence(Pool, Sh, Hot, FixedN, mixSeed(A.Seed, 1));

  // Fixed-rate phase. Only the traced run reports latencies from it, so
  // only there a phase the generator could not pace is re-run and, if it
  // stays late, voids the run.
  PhaseResult Fixed;
  server::DaemonStats Stats;
  double PeakRss = 0;
  const int Attempts = A.Trace ? 3 : 1;
  for (int Attempt = 0;; ++Attempt) {
    Daemon D;
    if (!Spawn(D))
      return O;
    Fixed = runPhase(Socket, FixedSeq, Sh.Rate, mixSeed(A.Seed, 2 + Attempt),
                     Sh.SpinReceiver);
    if (!D.stats(Stats))
      O.mismatch("stats query failed (fixed-rate phase)");
    CheckAllHits(Stats, "fixed-rate phase");
    PeakRss = D.peakRssMb();
    if (Fixed.lateP99() <= MaxLateP99Ms || Attempt + 1 == Attempts)
      break;
    O.note("fixed-rate phase re-run: generator late by " +
           fmt(Fixed.lateP99()) + " ms at p99");
  }
  tallyPhase(O, Fixed);
  if (Fixed.Broken)
    O.note("transport failure during the fixed-rate phase");
  if (A.Trace && Fixed.lateP99() > MaxLateP99Ms) {
    O.Invalid = true;
    O.note("generator ran late (p99 " + fmt(Fixed.lateP99()) +
           " ms): run invalid, not slow");
  }
  O.note("fixed rate " + fmt(Sh.Rate) + "/s, " +
         std::to_string(Fixed.LatencyMs.size()) + " requests, p50 " +
         fmt(Fixed.p(0.5)) + " ms, p99 " + fmt(Fixed.p(0.99)) +
         " ms, generator late p99 " + fmt(Fixed.lateP99()) + " ms max " +
         fmt(quantile(Fixed.LateMs, 1.0)) + " ms, backlog growth " +
         fmt(Fixed.BacklogGrowth) + ", cache hits " +
         std::to_string(Stats.CacheHits) + " misses " +
         std::to_string(Stats.CacheMisses) + " evictions " +
         std::to_string(Stats.CacheEvictions) + ", coalesced " +
         std::to_string(Stats.CoalescedReplies));

  if (!A.Trace) {
    // Batch: BatchN requests sent one at a time (a closed loop, one
    // request in flight, the receiver busy-polling), round after round
    // for the rest of the run. Each churn round goes to a fresh daemon,
    // so its misses stay misses; hits leave hot's cache as it was, so
    // one hot daemon serves every round. Every round does the same work,
    // and host noise only ever adds time, in stretches of seconds; so,
    // as on paper-suite, the batch wall time is assembled from each
    // request's fastest round trip over the rounds.
    std::vector<const Program *> BatchSeq =
        makeSequence(Pool, Sh, Hot, Sh.BatchN, mixSeed(A.Seed, 3));
    std::size_t BatchN = BatchSeq.size();
    std::vector<double> BestMs(BatchN, Inf), RoundS;
    std::unique_ptr<Daemon> D;
    do {
      if (!D || !Hot) {
        D.reset(); // stops the previous round's daemon first
        D = std::make_unique<Daemon>();
        if (!Spawn(*D))
          return O;
      }
      PhaseResult Round = runPhase(Socket, BatchSeq, Sh.Rate, 0, true, 1);
      QueryHits(*D, "batch round");
      tallyPhase(O, Round);
      RoundS.push_back(Round.RunS);
      if (Round.RttMs.size() == BatchN)
        for (std::size_t I = 0; I != BatchN; ++I)
          BestMs[I] = std::min(BestMs[I], Round.RttMs[I]);
    } while (RoundS.size() < 5 ||
             msBetween(RunStart, Clock::now()) < 1000.0 * A.Seconds);
    double WallS = 0;
    for (double Ms : BestMs)
      WallS += Ms / 1000.0;
    O.note(std::to_string(RoundS.size()) + " batch rounds of " +
           std::to_string(BatchN) + " requests, one in flight: best case " +
           fmt(WallS) + " s, median round " + fmt(median(RoundS)) + " s");
    O.add("batch_wall_s", WallS, "s");
    O.add("setup_s", median(SetupS), "s");
    O.add("peak_rss_mb", PeakRss, "MiB");
    return O;
  }

  // cache.load_ms: the hot daemon's start snapshot loaded in process.
  // Churn's daemon starts cold, so there it times loading a snapshot of
  // a full cache of churn's own records instead.
  const std::size_t CacheBytes = static_cast<std::size_t>(Sh.CacheMb) << 20;
  server::InvariantCache Start(CacheBytes), Full(CacheBytes), Loaded(CacheBytes);
  std::string LoadPath = Snapshot;
  if (!Hot) {
    LoadPath = A.WorkDir + "/churn-snapshot.cache";
    for (const Program &P : Pool)
      Full.insert(P.Key, P.Expected);
    if (!Full.save(LoadPath, Error)) {
      O.Invalid = true;
      O.note("cannot write the churn snapshot: " + Error);
    }
  }
  Clock::time_point T0 = Clock::now();
  if (!(Hot ? Start : Loaded).load(LoadPath, Error)) {
    O.Invalid = true;
    O.note("snapshot load failed: " + Error);
  }
  double LoadMs = msBetween(T0, Clock::now());
  Replay R = replayPhase(Fixed, FixedSeq, Start, O);
  if (!R.SumOk) {
    O.Invalid = true;
    O.note("layer sum check failed: replay residual " + fmt(R.ResidualMs) +
           " ms of " + fmt(R.TracedMs) + " ms per request");
  }

  // Capacity: climb the ladder until a rung misses the p99 limit, sheds
  // or fails, then bisect twice between the last passing rate and the
  // first failing one. Capacity is the highest rate that passed. Every
  // rung runs on a fresh daemon.
  std::string LadderNote = "ladder:";
  bool SpawnFailed = false;
  auto RungPasses = [&](double Rate, std::uint64_t Stream) {
    std::vector<const Program *> Seq = makeSequence(
        Pool, Sh, Hot, RungN(Rate), mixSeed(A.Seed, 100 + Stream));
    // A failing rung is run once more, so one burst of host preemption
    // does not end the climb. Latency counts from the due time, so a
    // late rung that passes is not slow; one that fails twice is a fail,
    // late or not: past the knee the daemon saturates the machine the
    // generator shares.
    PhaseResult P;
    bool Late = false, Pass = false;
    for (int Attempt = 0; Attempt != 2 && !Pass; ++Attempt) {
      Daemon D;
      if (!Spawn(D)) {
        SpawnFailed = true;
        return false;
      }
      P = runPhase(Socket, Seq, Rate,
                   mixSeed(A.Seed, 200 + Stream + 50 * Attempt),
                   Sh.SpinReceiver);
      Late = P.lateP99() > MaxLateP99Ms;
      Pass = phasePasses(P);
      QueryHits(D, "ladder rung");
    }
    if (P.Wrong)
      O.mismatch(std::to_string(P.Wrong) + " wrong replies at " + fmt(Rate) +
                 "/s");
    LadderNote += " " + fmt(Rate) + ":" + fmt(P.p(0.99)) + "ms" +
                  (P.Shed ? "/shed" + std::to_string(P.Shed) : "") +
                  (Late ? "/late" : "") + (Pass ? "" : "/fail");
    return Pass;
  };
  double PassRate = 0, FailRate = 0;
  for (std::size_t K = 0; K != Sh.Ladder.size() && FailRate == 0; ++K)
    (RungPasses(Sh.Ladder[K], K) ? PassRate : FailRate) = Sh.Ladder[K];
  for (int Step = 0; Step != 2 && PassRate > 0 && FailRate > 0; ++Step) {
    double Mid = (PassRate + FailRate) / 2;
    (RungPasses(Mid, 20 + Step) ? PassRate : FailRate) = Mid;
  }
  if (SpawnFailed)
    return O;
  O.note(LadderNote);
  if (PassRate <= 0) {
    O.Invalid = true;
    O.note("no ladder rung met the p99 limit of " + fmt(P99LimitMs) + " ms");
  }

  R.S.LoadMs = LoadMs;
  R.S.FrameBytes = Fixed.FrameBytes;
  R.S.ConnectMs = median(Fixed.ConnectMs);
  std::uint64_t Lookups = Stats.CacheHits + Stats.CacheMisses;
  R.S.HitRatio = Lookups ? static_cast<double>(Stats.CacheHits) / Lookups : 0;
  R.S.Evictions = static_cast<double>(Stats.CacheEvictions);
  R.S.QueuePeak = static_cast<double>(Stats.QueuePeak);
  R.S.Shed = static_cast<double>(Stats.ShedQueueFull + Stats.ShedClientCap +
                                 Stats.ShedDraining);
  R.S.Coalesced = static_cast<double>(Stats.CoalescedReplies);
  R.S.WorkersSpawned = static_cast<double>(Stats.WorkersSpawned);
  R.S.LateP99Ms = Fixed.lateP99();
  R.S.LateMaxMs = quantile(Fixed.LateMs, 1.0);
  R.S.BacklogGrowth = Fixed.BacklogGrowth;
  O.note("replay: traced " + fmt(R.TracedMs) + " ms/request, untraced " +
         fmt(R.UntracedMs) + " ms/request; layer-sum tolerance: residual "
         "within [0, 10%] of the replay");
  O.add("latency_p50_ms", Fixed.windowedP(0.5), "ms");
  O.add("latency_p99_ms", Fixed.windowedP(0.99), "ms");
  O.add("capacity_rps", PassRate, "1/s");
  emitLayers(O, R.T, static_cast<double>(FixedSeq.size()), cyclesPerMs(), R.S,
             R.ResidualMs, (R.TracedMs - R.UntracedMs) / R.UntracedMs * 100.0);
  return O;
}

} // namespace perfbench
