//===- server/replica.cpp - Replica-aware daemon client -------------------===//

#include "server/replica.h"

#include "runtime/batch.h"
#include "runtime/journal.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

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

namespace {

/// A "tcp:host:port" endpoint names the removed TCP transport; tried as
/// a socket path, it would fail over to the local degrade on every
/// request.
void refuseRemovedTransport(const std::string &Endpoint) {
  if (Endpoint.rfind("tcp:", 0) == 0)
    throw std::invalid_argument("endpoint '" + Endpoint +
                                "': the tcp: transport was removed; "
                                "replicas listen on Unix sockets only");
}

/// One call on \p C, opening its connection to \p Endpoint if none is
/// pooled. A pooled connection that fails may be stale (the daemon
/// restarted since the last call) and gets one reconnect-and-retry; a
/// connection just opened gets none, and neither does a timeout — the
/// daemon is frozen or busy, and a retry would wait out another one.
template <typename CallT>
bool callWithReconnect(DaemonClient &C, const std::string &Endpoint,
                       std::string &Error, unsigned &Connects, CallT Call) {
  bool Pooled = C.connected();
  if (!Pooled) {
    ++Connects;
    if (!C.connect(Endpoint, Error))
      return false;
  }
  if (Call())
    return true;
  if (!Pooled || C.timedOut())
    return false;
  ++Connects;
  return C.connect(Endpoint, Error) && Call();
}

} // namespace

std::vector<std::string>
optoct::server::parseEndpointList(const std::string &List) {
  std::vector<std::string> Out;
  std::stringstream In(List);
  std::string Item;
  while (std::getline(In, Item, ',')) {
    std::size_t B = Item.find_first_not_of(' ');
    if (B == std::string::npos)
      continue;
    Out.push_back(Item.substr(B, Item.find_last_not_of(' ') - B + 1));
    refuseRemovedTransport(Out.back());
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
  case ReplyPath::Local:
    return "local";
  }
  return "unknown";
}

ReplicaClient::ReplicaClient(ReplicaOptions O) : Opts(std::move(O)) {
  Clients.reserve(Opts.Endpoints.size());
  for (std::size_t I = 0; I != Opts.Endpoints.size(); ++I) {
    refuseRemovedTransport(Opts.Endpoints[I]);
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

void ReplicaClient::runLocal(const AnalyzeRequest &Req, AnalyzeResponse &Out) {
  // Mirror a daemon worker exactly: default batch options with the
  // request's result-shaping knobs applied (runtime::runJobWorker), one
  // attempt with the scheduler's attempt count and failure log (the
  // batch's retry loop at MaxAttempts 1), then the daemon's own
  // canonicalize + serialize pipeline (Server::onJobDone) — so a
  // degraded reply is byte-identical to what a healthy replica would
  // have sent, for deterministic programs.
  runtime::BatchOptions BO;
  BO.Engine = Req.Engine;
  BO.Budget.MaxDbmCells = Req.MaxDbmCells;
  runtime::JobResult JR = runtime::runJob(Req.Job, BO);
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
    for (std::size_t K = 0; K != N; ++K) {
      std::size_t Idx = (Preferred + K) % N;
      DaemonClient &C = *Clients[Idx];
      if (!callWithReconnect(C, Opts.Endpoints[Idx], Error, I.Connects,
                             [&] { return C.analyze(Req, Out, Error); })) {
        LastError = Error;
        continue;
      }
      if (Out.Overloaded) {
        SawShed = true;
        ShedResp = Out;
        ShedEndpoint = Opts.Endpoints[Idx];
        HintMs = std::max(HintMs, Out.RetryMs);
        continue;
      }
      I.Path = Cycle == 0 && K == 0 ? ReplyPath::Primary : ReplyPath::Failover;
      I.Endpoint = Opts.Endpoints[Idx];
      Preferred = Idx;
      return true;
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
    unsigned Connects = 0;
    if (!callWithReconnect(C, Opts.Endpoints[Idx], LastError, Connects,
                           [&] { return C.queryStats(Out, LastError); }))
      continue;
    Preferred = Idx;
    if (FromEndpoint)
      *FromEndpoint = Opts.Endpoints[Idx];
    return true;
  }
  Error = LastError;
  return false;
}
