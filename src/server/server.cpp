//===- server/server.cpp - Persistent analysis daemon ---------------------===//

#include "server/server.h"

#include "runtime/journal.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::server;
using runtime::ipc::MsgType;

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Parses "host:port" with a numeric IPv4 host (or "localhost").
/// Hostname resolution is deliberately out of scope: replica fleets
/// are addressed by IP, and getaddrinfo in a daemon's bind path is a
/// startup hang waiting to happen.
bool parseTcpBind(const std::string &Spec, sockaddr_in &Addr,
                  std::string &Error) {
  std::size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0 ||
      Colon + 1 == Spec.size()) {
    Error = "TCP bind spec must be host:port, got '" + Spec + "'";
    return false;
  }
  std::string Host = Spec.substr(0, Colon);
  if (Host == "localhost")
    Host = "127.0.0.1";
  std::string PortS = Spec.substr(Colon + 1);
  char *End = nullptr;
  unsigned long Port = std::strtoul(PortS.c_str(), &End, 10);
  if (*End != '\0' || Port > 65535) {
    Error = "bad TCP port in '" + Spec + "'";
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Error = "bad IPv4 host in '" + Spec + "' (numeric or localhost only)";
    return false;
  }
  return true;
}

} // namespace

Server::Server(ServerOptions Opts)
    : Opts(std::move(Opts)), Cache(this->Opts.CacheMaxBytes),
      Sched(
          this->Opts.Worker,
          [this](std::uint64_t Tag, runtime::Supervisor::Outcome &&O) {
            onJobDone(Tag, std::move(O));
          },
          this->Opts.MaxRequestMs, [this] {
            // Besides its siblings' pipes (the pool closes those), a
            // forked worker must not hold open the listeners, the
            // clients, the wake pipe or the leased snapshot.
            std::vector<int> Fds = {ListenFd, TcpListenFd, WakePipe[0],
                                    WakePipe[1], Cache.snapshotFd()};
            for (const auto &KV : Clients)
              Fds.push_back(KV.second.Fd);
            return Fds;
          }) {}

Server::~Server() {
  shutdown();
  if (WakePipe[0] >= 0) {
    ::close(WakePipe[0]);
    ::close(WakePipe[1]);
    WakePipe[0] = WakePipe[1] = -1;
  }
}

bool Server::start(std::string &Error) {
  if (Opts.SocketPath.empty() && Opts.TcpBind.empty()) {
    Error = "no socket path or TCP bind configured";
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  if (!Opts.SocketPath.empty())
    std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
                Opts.SocketPath.size() + 1);

  if (WakePipe[0] < 0) {
    if (::pipe(WakePipe) != 0) {
      Error = std::string("pipe: ") + std::strerror(errno);
      shutdown();
      return false;
    }
    setNonBlocking(WakePipe[0]);
    setNonBlocking(WakePipe[1]);
  } else {
    // Restart: the pipe outlives serve() (see shutdown()); drain any
    // stale stop pokes so they don't wake the new loop immediately.
    char Drain[64];
    while (::read(WakePipe[0], Drain, sizeof(Drain)) > 0) {
    }
  }

  if (!Opts.SocketPath.empty()) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      shutdown();
      return false;
    }
    // A previous daemon's socket file would make bind fail with
    // EADDRINUSE; connecting to tell a live daemon apart from a stale
    // file is racy, so we do what most daemons do — unlink and rebind.
    ::unlink(Opts.SocketPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(ListenFd, 64) != 0) {
      Error = std::string("bind/listen ") + Opts.SocketPath + ": " +
              std::strerror(errno);
      shutdown();
      return false;
    }
    setNonBlocking(ListenFd);
  }

  if (!Opts.TcpBind.empty()) {
    sockaddr_in TcpAddr;
    if (!parseTcpBind(Opts.TcpBind, TcpAddr, Error)) {
      shutdown();
      return false;
    }
    TcpListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpListenFd < 0) {
      Error = std::string("tcp socket: ") + std::strerror(errno);
      shutdown();
      return false;
    }
    int One = 1;
    ::setsockopt(TcpListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(TcpListenFd, reinterpret_cast<sockaddr *>(&TcpAddr),
               sizeof(TcpAddr)) != 0 ||
        ::listen(TcpListenFd, 64) != 0) {
      Error = std::string("tcp bind/listen ") + Opts.TcpBind + ": " +
              std::strerror(errno);
      shutdown();
      return false;
    }
    setNonBlocking(TcpListenFd);
    // Read the bound port back so port 0 (ephemeral — the test and
    // bench default, no port collisions across parallel runs) is
    // discoverable by clients.
    sockaddr_in Bound;
    socklen_t BoundLen = sizeof(Bound);
    if (::getsockname(TcpListenFd, reinterpret_cast<sockaddr *>(&Bound),
                      &BoundLen) == 0)
      TcpPort = ntohs(Bound.sin_port);
  }

  // Workers first: a worker forked after the snapshot load would map a
  // snapshot read into a buffer (copy-on-write, but counted in its RSS
  // and address space), though it never reads it. A mapped snapshot is
  // MADV_DONTFORK, and a worker closes its descriptor.
  Counters.Workers = Opts.Workers != 0
                         ? Opts.Workers
                         : std::max(1u, std::thread::hardware_concurrency());
  if (Sched.topUp(Counters.Workers) < Counters.Workers) {
    Error = std::string("cannot spawn worker: ") + std::strerror(errno);
    shutdown();
    return false;
  }

  if (!Opts.CachePath.empty()) {
    std::string LoadError;
    CacheLoadStats LoadStats;
    if (!Cache.load(Opts.CachePath, LoadError, &LoadStats))
      // Unusable file (bad magic / unreadable): a corrupt cache is a
      // performance event, never a fatal one — log it and cold-start.
      std::fprintf(stderr,
                   "optoctd: discarding cache file %s (%s, %zu bytes); "
                   "starting with a cold cache\n",
                   Opts.CachePath.c_str(), LoadError.c_str(),
                   LoadStats.BytesDiscarded);
    else if (!LoadStats.Corruption.empty())
      std::fprintf(stderr,
                   "optoctd: cache file %s has a corrupt tail (%s); "
                   "salvaged %zu entries (%zu bytes), discarded %zu bytes\n",
                   Opts.CachePath.c_str(), LoadStats.Corruption.c_str(),
                   LoadStats.EntriesLoaded, LoadStats.BytesKept,
                   LoadStats.BytesDiscarded);
  }

  return true;
}

void Server::requestStop() {
  StopFlag = true;
  if (WakePipe[1] >= 0) {
    char B = 'x';
    // Best effort; the poll timeout is the fallback wake.
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &B, 1);
  }
}

void Server::serve() {
  std::vector<pollfd> Fds;
  std::vector<std::uint64_t> ClientOfFd; // parallel: client seq or 0
  std::chrono::steady_clock::time_point NextLeasePoll{};
  while (!StopFlag) {
    // Respawns whatever died last round (a failed fork costs a round,
    // never the slot) and hands the new workers queued jobs.
    Sched.topUp(Counters.Workers);
    Fds.clear();
    ClientOfFd.clear();
    Fds.push_back({WakePipe[0], POLLIN, 0});
    ClientOfFd.push_back(0);
    if (Clients.size() < Opts.MaxClients) {
      if (ListenFd >= 0) {
        Fds.push_back({ListenFd, POLLIN, 0});
        ClientOfFd.push_back(0);
      }
      if (TcpListenFd >= 0) {
        Fds.push_back({TcpListenFd, POLLIN, 0});
        ClientOfFd.push_back(0);
      }
    }
    for (auto &KV : Clients) {
      short Ev = POLLIN;
      if (KV.second.OutPos < KV.second.OutBuf.size())
        Ev |= POLLOUT;
      Fds.push_back({KV.second.Fd, Ev, 0});
      ClientOfFd.push_back(KV.first);
    }
    std::size_t WorkerBase = Fds.size();
    Sched.addPollFds(Fds);

    int N = ::poll(Fds.data(), Fds.size(),
                   static_cast<int>(runtime::PoolTickMs));
    if (N < 0 && errno != EINTR)
      break;
    if (StopFlag)
      break;

    // Once per pool tick, and before this pass serves a hit: a writer
    // opening the snapshot waits on the lease until the cache lets go
    // of its mapping here.
    auto Now = std::chrono::steady_clock::now();
    if (Now >= NextLeasePoll) {
      NextLeasePoll = Now + std::chrono::milliseconds(runtime::PoolTickMs);
      if (std::size_t Dropped = Cache.checkSnapshotLease())
        std::fprintf(stderr,
                     "optoctd: cache file %s is being written; dropped %zu "
                     "mapped entries\n",
                     Opts.CachePath.c_str(), Dropped);
    }

    for (std::size_t I = 0; I != WorkerBase && N > 0; ++I) {
      if (Fds[I].revents == 0)
        continue;
      if (Fds[I].fd == WakePipe[0]) {
        char Buf[64];
        while (::read(WakePipe[0], Buf, sizeof(Buf)) > 0) {
        }
        continue;
      }
      if ((Fds[I].fd == ListenFd || Fds[I].fd == TcpListenFd) &&
          ClientOfFd[I] == 0 && Fds[I].fd >= 0) {
        acceptClients(Fds[I].fd);
        continue;
      }
      std::uint64_t Seq = ClientOfFd[I];
      auto It = Clients.find(Seq);
      if (It == Clients.end())
        continue; // dropped earlier this sweep
      if (Fds[I].revents & (POLLERR | POLLNVAL)) {
        dropClient(Seq);
        continue;
      }
      if (Fds[I].revents & POLLOUT) {
        if (!flushClient(It->second)) {
          dropClient(Seq);
          continue;
        }
        It = Clients.find(Seq);
        if (It == Clients.end())
          continue;
        if (It->second.Drop && It->second.OutPos >= It->second.OutBuf.size()) {
          dropClient(Seq); // version-rejected peer: reply flushed, close
          continue;
        }
      }
      if (Fds[I].revents & (POLLIN | POLLHUP))
        readClient(Seq);
    }
    Sched.service(Fds, WorkerBase);
  }
  drain();
  shutdown();
}

void Server::acceptClients(int ListenerFd) {
  for (;;) {
    if (Clients.size() >= Opts.MaxClients)
      return;
    int Fd = ::accept(ListenerFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or a transient error; poll will retry
    setNonBlocking(Fd);
    if (ListenerFd == TcpListenFd) {
      // Request/response frames are small and latency-bound; never let
      // Nagle hold a reply hostage to the next write.
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    ClientConn C;
    C.Fd = Fd;
    C.Reader.setMaxFrameBytes(Opts.MaxFrameBytes);
    Clients.emplace(NextClientSeq++, std::move(C));
  }
}

void Server::readClient(std::uint64_t Seq) {
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return;
  ClientConn &C = It->second;
  char Buf[65536];
  for (;;) {
    ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Reader.feed(Buf, static_cast<std::size_t>(N));
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      break;
    if (N < 0 && errno == EINTR)
      continue;
    // EOF or hard error: drain whatever complete frames arrived, then
    // drop. A mid-frame tail here is exactly a torn peer.
    C.Drop = true;
    break;
  }
  MsgType Type{};
  std::string Body;
  while (true) {
    // handleFrame can drop the client (protocol violation) or, via
    // sendResponse, leave it alone; re-find to stay safe.
    auto Cur = Clients.find(Seq);
    if (Cur == Clients.end())
      return;
    if (!Cur->second.Reader.next(Type, Body))
      break;
    handleFrame(Seq, Type, Body);
  }
  auto Cur = Clients.find(Seq);
  if (Cur == Clients.end())
    return;
  // A peer still framing as 'OFR1' is a build from before protocol
  // version 3. It cannot read our frames either, so no Hello goes back:
  // count it as a version reject and close.
  if (Cur->second.Reader.stale())
    ++Counters.VersionRejects;
  if (Cur->second.Reader.corrupt() ||
      (Cur->second.Drop && Cur->second.OutPos >= Cur->second.OutBuf.size()))
    dropClient(Seq);
}

bool Server::flushClient(ClientConn &C) {
  while (C.OutPos < C.OutBuf.size()) {
    // MSG_NOSIGNAL belt on top of the SIG_IGN braces: a fork-exec'd
    // helper or embedding host may reset the disposition between our
    // save and this write, and a hit-and-run client (sent the request,
    // closed without reading) must cost EPIPE, never SIGPIPE.
    ssize_t N = ::send(C.Fd, C.OutBuf.data() + C.OutPos,
                       C.OutBuf.size() - C.OutPos, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<std::size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return true; // poll will call back with POLLOUT
    if (N < 0 && errno == EINTR)
      continue;
    return false; // peer gone
  }
  if (C.OutPos == C.OutBuf.size() && C.OutPos != 0) {
    C.OutBuf.clear();
    C.OutPos = 0;
  }
  return true;
}

void Server::dropClient(std::uint64_t Seq) {
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return;
  ::close(It->second.Fd);
  Clients.erase(It);
  // Results for this client's in-flight jobs still complete and cache
  // (and still release any *other* coalesced waiters); this client's
  // waiter entries just have nowhere to go.
  for (auto &KV : Jobs)
    for (Waiter &W : KV.second.Waiters)
      if (W.ClientSeq == Seq)
        W.ClientSeq = 0;
}

void Server::handleFrame(std::uint64_t Seq, MsgType Type,
                         const std::string &Body) {
  if (Type == MsgType::Hello) {
    // Version handshake / health probe. A matching client gets our
    // Hello back and proceeds; a mismatched one still gets our Hello —
    // so it can *report* the daemon's version — and is then dropped,
    // before either side misparses bodies from a different build.
    auto It = Clients.find(Seq);
    if (It == Clients.end())
      return;
    std::uint32_t PeerVersion = 0;
    if (!decodeHello(Body, PeerVersion)) {
      dropClient(Seq); // malformed handshake: protocol violation
      return;
    }
    It->second.OutBuf += runtime::ipc::frameBytes(
        MsgType::Hello, encodeHello(ProtocolVersion));
    if (PeerVersion != ProtocolVersion) {
      ++Counters.VersionRejects;
      It->second.Drop = true; // flush the reply, then close
    } else {
      ++Counters.Hellos;
    }
    flushClient(It->second);
    return;
  }
  if (Type != MsgType::Request) {
    dropClient(Seq); // only clients speak Request/Hello on this socket
    return;
  }
  switch (peekRequestKind(Body)) {
  case RequestKind::Analyze:
    handleAnalyze(Seq, Body);
    return;
  case RequestKind::Stats: {
    std::uint64_t Id = 0;
    if (!decodeStatsRequest(Body, Id)) {
      dropClient(Seq);
      return;
    }
    auto It = Clients.find(Seq);
    if (It == Clients.end())
      return;
    It->second.OutBuf += runtime::ipc::frameBytes(
        MsgType::Response, encodeStatsResponse(Id, stats()));
    flushClient(It->second);
    return;
  }
  case RequestKind::Invalid:
    dropClient(Seq);
    return;
  }
}

void Server::handleAnalyze(std::uint64_t Seq, const std::string &Body) {
  AnalyzeRequest Req;
  std::string Error;
  if (!decodeAnalyzeRequest(Body, Req, Error)) {
    ++Counters.Rejected;
    AnalyzeResponse R;
    R.Id = Req.Id; // populated whenever the tag line parsed
    R.Ok = false;
    R.Error = Error;
    sendResponse(Seq, R);
    return;
  }
  ++Counters.Requests;
  std::uint64_t Key = requestFingerprint(Req);

  if (!Req.NoCache) {
    // Quarantine gate before the cache: a quarantined key has no cache
    // entry (crash verdicts are never inserted), and its replay is a
    // negative-cache hit, not a cache-counter event.
    auto QIt = Crashes.find(Key);
    if (QIt != Crashes.end() && QIt->second.Quarantined) {
      if (std::chrono::steady_clock::now() < QIt->second.Until) {
        AnalyzeResponse R;
        R.Id = Req.Id;
        R.Ok = true;
        R.Cached = true;
        R.Key = Key;
        ++Counters.QuarantineReplies;
        ++Counters.Served;
        sendResponse(Seq, R, QIt->second.Record);
        return;
      }
      // TTL expired: half-open — forget the ledger and let this request
      // probe with a fresh worker.
      Crashes.erase(QIt);
    }
    if (std::optional<std::string_view> Record = Cache.lookup(Key)) {
      AnalyzeResponse R;
      R.Id = Req.Id;
      R.Ok = true;
      R.Cached = true;
      R.Key = Key;
      ++Counters.Served;
      sendResponse(Seq, R, Record);
      return;
    }
    // Coalesce with an identical in-flight miss: attach as a waiter and
    // share its one worker execution. Counts against the client's
    // pending cap — a waiter still owes a reply.
    if (PendingJob *Leader = findInFlight(Key)) {
      auto It = Clients.find(Seq);
      if (It != Clients.end() && It->second.Pending >= Opts.MaxClientPending) {
        sendOverloaded(Seq, Req.Id, Counters.ShedClientCap,
                       "per-client pending cap reached");
        return;
      }
      Leader->Waiters.push_back({Seq, Req.Id});
      if (It != Clients.end())
        ++It->second.Pending;
      ++Counters.CoalescedReplies;
      return;
    }
  } else {
    // A NoCache request never consults the cache; do not let it skew
    // the hit-rate counters either. It is equally invisible to
    // coalescing (both directions): the bench's cold-latency control
    // must measure real executions.
  }

  // Admission control. Everything above answered from memory; from here
  // the request costs a queue slot and eventually a worker.
  if (Draining) {
    sendOverloaded(Seq, Req.Id, Counters.ShedDraining, "daemon draining");
    return;
  }
  if (Sched.queued() >= Opts.MaxQueueDepth) {
    sendOverloaded(Seq, Req.Id, Counters.ShedQueueFull, "queue full");
    return;
  }
  auto It = Clients.find(Seq);
  if (It != Clients.end() && It->second.Pending >= Opts.MaxClientPending) {
    sendOverloaded(Seq, Req.Id, Counters.ShedClientCap,
                   "per-client pending cap reached");
    return;
  }

  if (It != Clients.end())
    ++It->second.Pending;
  std::uint64_t Tag = NextTag++;
  Jobs[Tag] = PendingJob{{{Seq, Req.Id}}, Key, Req.NoCache};
  Sched.submit(Tag, std::move(Req.Job),
               runtime::ipc::encodeEngineOptions(Req.Engine, Req.MaxDbmCells));
  Counters.QueuePeak =
      std::max<std::uint64_t>(Counters.QueuePeak, Sched.queued());
}

Server::PendingJob *Server::findInFlight(std::uint64_t Key) {
  for (auto &KV : Jobs)
    if (!KV.second.NoCache && KV.second.Key == Key)
      return &KV.second;
  return nullptr;
}

std::uint64_t Server::retryHintMs() const {
  // Base backoff, stretched toward 2x as the queue fills: a deeper
  // backlog pushes retries further out instead of stampeding.
  std::uint64_t Base = Opts.OverloadRetryMs;
  std::size_t Bound = std::max<std::size_t>(1, Opts.MaxQueueDepth);
  return Base + Base * std::min(Sched.queued(), Bound) / Bound;
}

void Server::sendOverloaded(std::uint64_t Seq, std::uint64_t ReqId,
                            std::uint64_t &Counter, const char *Reason) {
  ++Counter;
  AnalyzeResponse R;
  R.Id = ReqId;
  R.Ok = false;
  R.Overloaded = true;
  R.RetryMs = retryHintMs();
  R.Error = Reason;
  sendResponse(Seq, R);
}

void Server::noteReplied(std::uint64_t Seq) {
  auto It = Clients.find(Seq);
  if (It != Clients.end() && It->second.Pending != 0)
    --It->second.Pending;
}

void Server::sendResponse(std::uint64_t Seq, const AnalyzeResponse &R,
                          std::optional<std::string_view> Record) {
  if (Seq == 0)
    return; // requester disconnected while the job ran
  auto It = Clients.find(Seq);
  if (It == Clients.end())
    return;
  // Encoded in place: the header, the body and the checksum over it all
  // land in the connection's buffer, whose capacity outlives each flush.
  std::string &Out = It->second.OutBuf;
  std::size_t Frame = runtime::ipc::beginFrame(Out, MsgType::Response);
  appendAnalyzeResponse(Out, R, Record);
  runtime::ipc::endFrame(Out, Frame);
  if (!flushClient(It->second))
    dropClient(Seq);
}

void Server::onJobDone(std::uint64_t Tag, runtime::Supervisor::Outcome &&O) {
  auto Done = Jobs.find(Tag);
  PendingJob P = std::move(Done->second);
  Jobs.erase(Done);
  if (O.Shed) {
    // Drain: a queued job is shed so its clients can retry elsewhere.
    for (const Waiter &W : P.Waiters)
      if (W.ClientSeq != 0) {
        noteReplied(W.ClientSeq);
        sendOverloaded(W.ClientSeq, W.ReqId, Counters.ShedDraining,
                       "daemon draining");
      }
    return;
  }
  runtime::JobResult &R = O.Result;
  // Charge the quarantine ledger per worker death (crash, OOM kill, or
  // hard kill), including retried attempts: a key that needs
  // MaxAttempts fresh workers per request burns toward its quarantine
  // threshold that much faster.
  if (O.Deaths != 0 && !P.NoCache && Opts.QuarantineAfter != 0)
    Crashes[P.Key].Deaths += O.Deaths;
  bool Terminal = R.Status == runtime::JobStatus::Crashed ||
                  R.Status == runtime::JobStatus::Timeout;
  if (R.Status == runtime::JobStatus::Crashed)
    ++Counters.CrashedReplies;
  if (R.Status == runtime::JobStatus::Timeout)
    ++Counters.TimeoutReplies;
  // Only deterministic outcomes are cacheable: a crash, a timeout or a
  // transient (retryable) failure depends on the environment and must
  // re-run next time.
  bool Cacheable = R.Status == runtime::JobStatus::Ok ||
                   R.Status == runtime::JobStatus::Degraded ||
                   (R.Status == runtime::JobStatus::Failed && !O.Retryable);
  canonicalizeResult(R);
  std::string Record = runtime::serializeJobResult(R);
  if (Cacheable && !P.NoCache) {
    Cache.insert(P.Key, Record);
    // Proof of life resets the crash ledger: a flaky key that finally
    // completed should not carry old deaths toward quarantine.
    Crashes.erase(P.Key);
  } else if (Terminal && !P.NoCache && Opts.QuarantineAfter != 0) {
    // The deaths are charged above; if they crossed the threshold, arm
    // the circuit breaker with this final verdict.
    auto It = Crashes.find(P.Key);
    if (It != Crashes.end() && !It->second.Quarantined &&
        It->second.Deaths >= Opts.QuarantineAfter) {
      It->second.Quarantined = true;
      It->second.Until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(Opts.QuarantineTtlMs);
      It->second.Record = Record;
      ++Counters.QuarantinedTotal;
    }
  }
  if (Draining)
    ++Counters.DrainedJobs;
  AnalyzeResponse Resp;
  Resp.Ok = true;
  Resp.Cached = false;
  Resp.Key = P.Key;
  for (const Waiter &W : P.Waiters) {
    if (W.ClientSeq == 0)
      continue; // disconnected while the job ran
    Resp.Id = W.ReqId;
    Resp.ResultRecord = Record; // byte-identical for every waiter
    ++Counters.Served;
    noteReplied(W.ClientSeq);
    sendResponse(W.ClientSeq, Resp);
  }
}

DaemonStats Server::stats() const {
  DaemonStats S = Counters;
  const CacheCounters &CC = Cache.counters();
  S.CacheHits = CC.Hits;
  S.CacheMisses = CC.Misses;
  S.CacheEntries = Cache.entries();
  S.CacheBytes = Cache.bytes();
  S.CacheEvictions = CC.Evictions;
  const runtime::SupervisorStats &SS = Sched.stats();
  S.WorkersSpawned = SS.WorkersSpawned;
  S.WorkersCrashed = SS.WorkersCrashed;
  S.WorkersRecycled = SS.WorkersRecycled;
  S.HardKills = SS.HardKills;
  S.QueueDepth = Sched.queued();
  auto Now = std::chrono::steady_clock::now();
  for (const auto &KV : Crashes)
    if (KV.second.Quarantined && Now < KV.second.Until)
      ++S.QuarantinedKeys;
  return S;
}

void Server::drain() {
  Draining = true;

  // Stop accepting immediately: the socket file disappears (and the
  // TCP port starts refusing), so fresh connects fail fast instead of
  // queueing behind a dying daemon.
  closeListeners();

  // Shed everything queued but not yet on a worker (onJobDone answers
  // "overloaded"): those clients can retry elsewhere; work already
  // running is worth finishing, without retries — there is no respawn
  // to retry on.
  std::uint64_t ShedBefore = Counters.ShedDraining;
  Sched.shed("daemon draining");
  std::uint64_t Shed = Counters.ShedDraining - ShedBefore;

  // Finish in-flight jobs and flush replies, bounded by DrainMs.
  // Deadline kills stay armed, so a hung worker cannot stall the exit
  // past its ceiling.
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(Opts.DrainMs);
  std::vector<pollfd> Fds;
  std::vector<std::uint64_t> Owner; // parallel: client seq
  for (;;) {
    bool PendingOut = false;
    for (const auto &KV : Clients)
      if (KV.second.OutPos < KV.second.OutBuf.size())
        PendingOut = true;
    if (Sched.running() == 0 && !PendingOut)
      break;
    if (std::chrono::steady_clock::now() >= Deadline)
      break; // shutdown()'s SIGKILL backstop owns the stragglers

    Fds.clear();
    Owner.clear();
    for (auto &KV : Clients) {
      if (KV.second.OutPos >= KV.second.OutBuf.size())
        continue;
      Fds.push_back({KV.second.Fd, POLLOUT, 0});
      Owner.push_back(KV.first);
    }
    std::size_t WorkerBase = Fds.size();
    Sched.addPollFds(Fds);
    ::poll(Fds.data(), Fds.size(), static_cast<int>(runtime::PoolTickMs));
    for (std::size_t I = 0; I != WorkerBase; ++I) {
      if (Fds[I].revents == 0)
        continue;
      auto It = Clients.find(Owner[I]);
      if (It != Clients.end() && !flushClient(It->second))
        dropClient(Owner[I]);
    }
    Sched.service(Fds, WorkerBase);
  }

  // Only a shutdown that actually had work to wind down merits a log
  // line; a quiet exit stays quiet.
  if (Counters.DrainedJobs != 0 || Shed != 0)
    std::fprintf(stderr,
                 "optoctd: drained %llu in-flight job(s), shed %llu queued "
                 "request(s)\n",
                 static_cast<unsigned long long>(Counters.DrainedJobs),
                 static_cast<unsigned long long>(Shed));
  Draining = false;
}

void Server::closeListeners() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    if (!Opts.SocketPath.empty())
      ::unlink(Opts.SocketPath.c_str());
  }
  if (TcpListenFd >= 0) {
    ::close(TcpListenFd);
    TcpListenFd = -1;
  }
}

void Server::shutdown() {
  // Clients first: no new requests land while the pool retires.
  closeListeners();
  for (auto &KV : Clients)
    ::close(KV.second.Fd);
  Clients.clear();
  Sched.retire();
  Jobs.clear();

  // The wake pipe is deliberately NOT closed here: requestStop() may be
  // called from another thread at any point in the object's lifetime,
  // and closing the fds under it would let a late stop request write
  // into whatever fd the kernel reused. The destructor closes them
  // once no other thread can hold a reference.

  // A cache that only served hits since it loaded holds what the file
  // holds: rewriting it would re-map, re-check and fsync the same bytes.
  if (!Opts.CachePath.empty() && Cache.entries() != 0 && Cache.dirty()) {
    std::string Error;
    // saveShared, not save: N replicas may point at one cache file, and
    // a plain overwrite would clobber whatever a sibling persisted.
    if (!Cache.saveShared(Opts.CachePath, Error))
      std::fprintf(stderr, "optoctd: cache save failed: %s\n", Error.c_str());
  }
}
