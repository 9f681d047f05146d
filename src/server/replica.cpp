//===- server/replica.cpp - Replica-aware daemon client -------------------===//

#include "server/replica.h"

#include "runtime/batch.h"
#include "runtime/journal.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include <unistd.h>

using namespace optoct;
using namespace optoct::server;

std::uint64_t optoct::server::retryDelayMs(const RetryPolicy &P,
                                           unsigned Attempt,
                                           std::uint64_t HintMs, Rng &R) {
  if (Attempt == 0)
    Attempt = 1;
  // Exponential ramp with a shift that cannot overflow 64 bits.
  unsigned Shift = std::min(Attempt - 1, 32u);
  std::uint64_t D = std::uint64_t(P.BaseBackoffMs) << Shift;
  D = std::max(D, HintMs); // the server knows its own queue depth
  D = std::min<std::uint64_t>(D, P.MaxBackoffMs);
  double J = std::min(1.0, std::max(0.0, P.Jitter));
  if (J == 0.0 || D == 0)
    return D;
  double Lo = static_cast<double>(D) * (1.0 - J);
  double Hi = static_cast<double>(D) * (1.0 + J);
  return static_cast<std::uint64_t>(R.doubleIn(Lo, Hi));
}

std::uint64_t optoct::server::derivedRetrySeed() {
  // splitmix64 over pid ^ monotonic-now: cheap, and two clients forked
  // in the same tick still diverge on the pid term.
  std::uint64_t X = static_cast<std::uint64_t>(::getpid());
  X ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::vector<std::string>
optoct::server::parseEndpointList(const std::string &List) {
  std::vector<std::string> Out;
  std::stringstream In(List);
  std::string Item;
  while (std::getline(In, Item, ',')) {
    std::size_t B = Item.find_first_not_of(' ');
    if (B != std::string::npos)
      Out.push_back(Item.substr(B, Item.find_last_not_of(' ') - B + 1));
  }
  return Out;
}

ReplicaOptions optoct::server::singleDaemonOptions(std::string Endpoint,
                                                  RetryPolicy Retry) {
  ReplicaOptions RO;
  RO.Endpoints = {std::move(Endpoint)};
  RO.Retry = Retry;
  RO.LocalFallback = false;
  RO.RecvTimeoutMs = 0;
  return RO;
}

const char *optoct::server::replyPathName(ReplyPath P) {
  switch (P) {
  case ReplyPath::Primary:
    return "primary";
  case ReplyPath::Failover:
    return "failover";
  case ReplyPath::Hedged:
    return "hedged";
  case ReplyPath::Local:
    return "local";
  }
  return "unknown";
}

ReplicaClient::ReplicaClient(ReplicaOptions O) : Opts(std::move(O)) {
  Clients.reserve(Opts.Endpoints.size());
  for (std::size_t I = 0; I != Opts.Endpoints.size(); ++I) {
    auto C = std::make_unique<DaemonClient>();
    C->setRecvTimeoutMs(Opts.RecvTimeoutMs);
    Clients.push_back(std::move(C));
  }
}

ReplicaClient::~ReplicaClient() = default;

bool ReplicaClient::connect(std::string &Error) {
  if (Clients.empty()) {
    Error = "no replica endpoints configured";
    return false;
  }
  DaemonClient &C = *Clients[Preferred];
  return C.connected() || C.connect(Opts.Endpoints[Preferred], Error);
}

ReplicaClient::TryStatus ReplicaClient::tryEndpoint(std::size_t Idx,
                                                    const AnalyzeRequest &Req,
                                                    AnalyzeResponse &Out,
                                                    std::string &Error,
                                                    unsigned &Connects,
                                                    bool AllowResend) {
  DaemonClient &C = *Clients[Idx];
  bool Pooled = C.connected();
  if (!Pooled) {
    ++Connects;
    if (!C.connect(Opts.Endpoints[Idx], Error))
      return TryStatus::Transport;
  }
  if (!C.analyze(Req, Out, Error)) {
    // A *pooled* connection may be stale (the replica restarted since
    // our last call); one reconnect-and-resend tells that apart from a
    // dead replica. A connection we just opened gets no resend — and
    // neither does a hedge leg, whose failure may be our own abort.
    if (!Pooled || !AllowResend)
      return TryStatus::Transport;
    ++Connects;
    if (!C.connect(Opts.Endpoints[Idx], Error) || !C.analyze(Req, Out, Error))
      return TryStatus::Transport;
  }
  return Out.Overloaded ? TryStatus::Shed : TryStatus::Success;
}

ReplicaClient::TryStatus ReplicaClient::tryHedged(
    std::size_t PrimaryIdx, std::size_t HedgeIdx, const AnalyzeRequest &Req,
    AnalyzeResponse &Out, std::string &Error, unsigned &Connects,
    std::size_t &Winner) {
  struct Leg {
    TryStatus St = TryStatus::Transport;
    AnalyzeResponse Resp;
    std::string Error;
    unsigned Connects = 0;
    bool Done = false;
    bool Skipped = false; ///< Hedge never fired (primary won in time).
  };
  std::mutex M;
  std::condition_variable CV;
  Leg Legs[2];
  const std::size_t EndpointOf[2] = {PrimaryIdx, HedgeIdx};

  auto Run = [&](int L) {
    AnalyzeResponse R;
    std::string E;
    unsigned Cn = 0;
    TryStatus St =
        tryEndpoint(EndpointOf[L], Req, R, E, Cn, /*AllowResend=*/false);
    std::lock_guard<std::mutex> G(M);
    Legs[L].St = St;
    Legs[L].Resp = std::move(R);
    Legs[L].Error = std::move(E);
    Legs[L].Connects = Cn;
    Legs[L].Done = true;
    CV.notify_all();
  };

  std::thread T0([&] { Run(0); });
  std::thread T1([&] {
    // Hold the hedge for HedgeAfterMs; fire early if the primary leg
    // *fails* first (that is plain failover), skip entirely if it
    // succeeds first.
    {
      std::unique_lock<std::mutex> L(M);
      CV.wait_for(L, std::chrono::milliseconds(Opts.HedgeAfterMs),
                  [&] { return Legs[0].Done; });
      if (Legs[0].Done && Legs[0].St == TryStatus::Success) {
        Legs[1].Done = true;
        Legs[1].Skipped = true;
        CV.notify_all();
        return;
      }
    }
    Run(1);
  });

  std::size_t Win = 2;
  {
    std::unique_lock<std::mutex> L(M);
    CV.wait(L, [&] {
      return (Legs[0].Done && Legs[0].St == TryStatus::Success) ||
             (Legs[1].Done && !Legs[1].Skipped &&
              Legs[1].St == TryStatus::Success) ||
             (Legs[0].Done && Legs[1].Done);
    });
    if (Legs[0].Done && Legs[0].St == TryStatus::Success)
      Win = 0;
    else if (Legs[1].Done && !Legs[1].Skipped &&
             Legs[1].St == TryStatus::Success)
      Win = 1;
  }
  // Abort the losing leg so its blocked recv wakes now instead of at
  // the recv timeout; its thread then finishes with a transport error
  // we ignore. The loser's connection is sacrificed (reconnects next
  // call) — a cancelled request must never leave a half-read reply on
  // a pooled connection.
  if (Win == 0 && !Legs[1].Skipped)
    Clients[HedgeIdx]->abortConnection(); // a skipped hedge never ran:
                                          // its pooled connection stays
  else if (Win == 1)
    Clients[PrimaryIdx]->abortConnection();
  T0.join();
  T1.join();

  Connects += Legs[0].Connects + Legs[1].Connects;
  if (Win != 2) {
    Winner = Win;
    Out = std::move(Legs[Win].Resp);
    return TryStatus::Success;
  }
  // No winner: prefer a shed verdict (the daemon spoke) over transport
  // silence; the later leg's word wins.
  for (int L : {1, 0}) {
    if (Legs[L].Skipped)
      continue;
    if (Legs[L].St == TryStatus::Shed) {
      Winner = static_cast<std::size_t>(L);
      Out = std::move(Legs[L].Resp);
      return TryStatus::Shed;
    }
  }
  Error = !Legs[1].Skipped && !Legs[1].Error.empty() ? Legs[1].Error
                                                     : Legs[0].Error;
  return TryStatus::Transport;
}

void ReplicaClient::runLocal(const AnalyzeRequest &Req, AnalyzeResponse &Out) {
  // Mirror a daemon worker exactly: default batch options with the
  // request's result-shaping knobs applied (runtime::runJobWorker),
  // one isolated attempt, then the daemon's own canonicalize +
  // serialize pipeline (Server::finishJob) — so a degraded reply is
  // byte-identical to what a healthy replica would have sent, for
  // deterministic programs.
  runtime::BatchOptions BO;
  BO.Engine = Req.Engine;
  BO.Budget.MaxDbmCells = Req.MaxDbmCells;
  bool Retryable = false;
  runtime::JobResult JR = runtime::runJobSingleAttempt(Req.Job, BO, Retryable);
  canonicalizeResult(JR);
  Out = AnalyzeResponse();
  Out.Id = Req.Id;
  Out.Ok = true;
  Out.Cached = false;
  Out.Key = requestFingerprint(Req);
  Out.ResultRecord = runtime::serializeJobResult(JR);
}

bool ReplicaClient::analyze(const AnalyzeRequest &Req, AnalyzeResponse &Out,
                            std::string &Error, ReplicaReplyInfo *Info) {
  ReplicaReplyInfo Scratch;
  ReplicaReplyInfo &I = Info ? *Info : Scratch;
  I = ReplicaReplyInfo();
  // Re-arm clients that lost an earlier hedge race. Done here — before
  // any leg thread exists — so a clear can never race with (and erase)
  // an abort aimed at a leg of *this* call.
  for (auto &C : Clients)
    C->clearAbort();
  const std::size_t N = Opts.Endpoints.size();
  Rng R(Opts.Retry.Seed != 0 ? Opts.Retry.Seed : derivedRetrySeed());
  const unsigned MaxCycles = std::max(1u, Opts.Retry.MaxAttempts);
  bool SawShed = false;
  AnalyzeResponse ShedResp;
  std::string ShedEndpoint;
  std::string LastError;
  std::uint64_t HintMs = 0;

  for (unsigned Cycle = 0; Cycle != MaxCycles && N != 0; ++Cycle) {
    I.Cycles = Cycle + 1;
    std::size_t K = 0;
    while (K < N) {
      std::size_t Idx = (Preferred + K) % N;
      TryStatus St;
      std::size_t WinnerIdx = Idx;
      bool HedgeWon = false;
      if (K == 0 && Cycle == 0 && Opts.HedgeAfterMs != 0 && N >= 2) {
        std::size_t HedgeIdx = (Preferred + 1) % N;
        std::size_t WinLeg = 2;
        St = tryHedged(Idx, HedgeIdx, Req, Out, Error, I.Connects, WinLeg);
        if (WinLeg == 1) {
          WinnerIdx = HedgeIdx;
          HedgeWon = true;
        }
        K += 2; // both legs consumed their endpoint for this sweep
      } else {
        St = tryEndpoint(Idx, Req, Out, Error, I.Connects,
                         /*AllowResend=*/true);
        K += 1;
      }
      switch (St) {
      case TryStatus::Success: {
        bool FirstTry = Cycle == 0 && K <= 2 && WinnerIdx == Preferred;
        Preferred = WinnerIdx;
        I.Path = HedgeWon ? ReplyPath::Hedged
                          : (FirstTry ? ReplyPath::Primary
                                      : ReplyPath::Failover);
        I.Endpoint = Opts.Endpoints[WinnerIdx];
        return true;
      }
      case TryStatus::Shed:
        SawShed = true;
        ShedResp = Out;
        ShedEndpoint = Opts.Endpoints[WinnerIdx];
        HintMs = std::max(HintMs, Out.RetryMs);
        break;
      case TryStatus::Transport:
        LastError = Error;
        break;
      }
    }
    if (Cycle + 1 != MaxCycles) {
      std::uint64_t Delay = retryDelayMs(Opts.Retry, Cycle + 1, HintMs, R);
      if (Delay != 0)
        ::usleep(static_cast<useconds_t>(
            std::min<std::uint64_t>(Delay, 60'000) * 1000));
    }
  }

  if (SawShed) {
    // Every cycle ended shed: hand back the daemon's last word. Not a
    // local-fallback case — the service is alive, just telling us to
    // back off.
    Out = std::move(ShedResp);
    I.Path = ReplyPath::Failover;
    I.Endpoint = std::move(ShedEndpoint);
    return true;
  }
  if (Opts.LocalFallback) {
    runLocal(Req, Out);
    I.Path = ReplyPath::Local;
    I.Endpoint.clear();
    return true;
  }
  Error = LastError.empty() ? "no replica endpoints configured"
                            : "all replicas unavailable; last error: " +
                                  LastError;
  return false;
}

bool ReplicaClient::queryStats(DaemonStats &Out, std::string &Error,
                               std::string *FromEndpoint) {
  const std::size_t N = Opts.Endpoints.size();
  std::string LastError = "no replica endpoints configured";
  for (std::size_t K = 0; K != N; ++K) {
    std::size_t Idx = (Preferred + K) % N;
    DaemonClient &C = *Clients[Idx];
    C.clearAbort(); // single-threaded path: no hedge race to lose
    bool Pooled = C.connected();
    if (!Pooled && !C.connect(Opts.Endpoints[Idx], LastError))
      continue;
    if (!C.queryStats(Out, LastError)) {
      if (!Pooled)
        continue;
      if (!C.connect(Opts.Endpoints[Idx], LastError) ||
          !C.queryStats(Out, LastError))
        continue;
    }
    Preferred = Idx;
    if (FromEndpoint)
      *FromEndpoint = Opts.Endpoints[Idx];
    return true;
  }
  Error = LastError;
  return false;
}
