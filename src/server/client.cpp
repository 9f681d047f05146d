//===- server/client.cpp - Blocking daemon client -------------------------===//

#include "server/client.h"

#include "runtime/ipc.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::server;
using runtime::ipc::MsgType;

namespace {

constexpr const char *StaleFrameError =
    "stale daemon: it frames replies as OFR1 (protocol version 2), this "
    "client speaks OFR2 (version 3)";

/// "tcp:<host>:<port>" marks a TCP endpoint; anything else is a Unix
/// socket path (paths may contain ':' only after a leading '/' or '.',
/// which "tcp:" never has, so the prefix is unambiguous).
bool isTcpEndpoint(const std::string &Endpoint) {
  return Endpoint.rfind("tcp:", 0) == 0;
}

bool parseTcpEndpoint(const std::string &Endpoint, sockaddr_in &Addr,
                      std::string &Error) {
  std::string HostPort = Endpoint.substr(4);
  std::size_t Colon = HostPort.rfind(':');
  if (Colon == std::string::npos || Colon == 0 ||
      Colon + 1 == HostPort.size()) {
    Error = "bad TCP endpoint (want tcp:host:port): " + Endpoint;
    return false;
  }
  std::string Host = HostPort.substr(0, Colon);
  if (Host == "localhost")
    Host = "127.0.0.1";
  char *End = nullptr;
  unsigned long Port = std::strtoul(HostPort.c_str() + Colon + 1, &End, 10);
  if (End == nullptr || *End != '\0' || Port == 0 || Port > 65535) {
    Error = "bad TCP port in endpoint: " + Endpoint;
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    Error = "bad TCP host (numeric IPv4 or localhost): " + Endpoint;
    return false;
  }
  return true;
}

/// send(2) with MSG_NOSIGNAL: a daemon that died mid-request must
/// surface as an error return, not a SIGPIPE in the client process
/// (a library cannot politely change the process signal disposition).
bool sendAll(int Fd, const std::string &Bytes) {
  const char *P = Bytes.data();
  std::size_t Len = Bytes.size();
  while (Len != 0) {
    ssize_t N = ::send(Fd, P, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<std::size_t>(N);
  }
  return true;
}

} // namespace

DaemonClient::~DaemonClient() { close(); }

void DaemonClient::close() {
  std::lock_guard<std::mutex> G(FdMutex);
  int F = Fd.exchange(-1);
  if (F >= 0)
    ::close(F);
}

bool DaemonClient::connect(const std::string &Endpoint, std::string &Error) {
  close();
  if (Aborted.load()) {
    Error = "connection aborted: " + Endpoint;
    return false;
  }
  if (isTcpEndpoint(Endpoint)) {
    sockaddr_in Addr;
    if (!parseTcpEndpoint(Endpoint, Addr, Error))
      return false;
    int NewFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (NewFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    // Publish before the blocking connect so an abort can reach it.
    {
      std::lock_guard<std::mutex> G(FdMutex);
      Fd.store(NewFd);
    }
    if (::connect(NewFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      Error = "connect " + Endpoint + ": " + std::strerror(errno);
      close();
      return false;
    }
    int One = 1;
    ::setsockopt(NewFd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  } else {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (Endpoint.size() >= sizeof(Addr.sun_path)) {
      Error = "socket path too long: " + Endpoint;
      return false;
    }
    std::memcpy(Addr.sun_path, Endpoint.c_str(), Endpoint.size() + 1);
    int NewFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (NewFd < 0) {
      Error = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    {
      std::lock_guard<std::mutex> G(FdMutex);
      Fd.store(NewFd);
    }
    if (::connect(NewFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      Error = "connect " + Endpoint + ": " + std::strerror(errno);
      close();
      return false;
    }
  }
  if (Aborted.load()) {
    Error = "connection aborted: " + Endpoint;
    close();
    return false;
  }
  if (RecvTimeoutMs != 0) {
    timeval Tv;
    Tv.tv_sec = static_cast<time_t>(RecvTimeoutMs / 1000);
    Tv.tv_usec = static_cast<suseconds_t>((RecvTimeoutMs % 1000) * 1000);
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  }
  // Hello handshake: version pinning plus a liveness probe (the daemon
  // answered from its event loop, not just its kernel accept queue).
  if (!sendAll(Fd, runtime::ipc::frameBytes(MsgType::Hello,
                                            encodeHello(ProtocolVersion)))) {
    Error = "hello send failed: " + Endpoint;
    close();
    return false;
  }
  MsgType Type{};
  std::string Body;
  switch (runtime::ipc::readFrame(Fd, Type, Body)) {
  case runtime::ipc::ReadStatus::Ok:
    break;
  case runtime::ipc::ReadStatus::Eof:
    Error = "daemon closed during hello: " + Endpoint;
    close();
    return false;
  case runtime::ipc::ReadStatus::Torn:
    Error = "torn hello reply: " + Endpoint;
    close();
    return false;
  case runtime::ipc::ReadStatus::Stale:
    Error = std::string(StaleFrameError) + ": " + Endpoint;
    close();
    return false;
  }
  std::uint32_t DaemonVersion = 0;
  if (Type != MsgType::Hello || !decodeHello(Body, DaemonVersion)) {
    Error = "bad hello reply: " + Endpoint;
    close();
    return false;
  }
  if (DaemonVersion != ProtocolVersion) {
    Error = "protocol version mismatch: daemon " +
            std::to_string(DaemonVersion) + ", client " +
            std::to_string(ProtocolVersion) + " (" + Endpoint + ")";
    close();
    return false;
  }
  return true;
}

void DaemonClient::abortConnection() {
  // Sticky first, then shutdown under the lock: an owner between
  // sockets sees the flag on its next connect() step, an owner blocked
  // on the live fd is woken, and the lock guarantees the fd we shut
  // down is still ours — never a kernel-reissued number.
  Aborted.store(true);
  std::lock_guard<std::mutex> G(FdMutex);
  int F = Fd.load();
  if (F >= 0)
    ::shutdown(F, SHUT_RDWR);
}

bool DaemonClient::roundTrip(const std::string &ReqBody, std::string &RespBody,
                             std::string &Error) {
  if (Fd < 0) {
    Error = "not connected";
    return false;
  }
  if (!sendAll(Fd, runtime::ipc::frameBytes(MsgType::Request, ReqBody))) {
    Error = "send failed (daemon gone?)";
    close();
    return false;
  }
  MsgType Type{};
  switch (runtime::ipc::readFrame(Fd, Type, RespBody)) {
  case runtime::ipc::ReadStatus::Ok:
    break;
  case runtime::ipc::ReadStatus::Eof:
    Error = "daemon closed the connection";
    close();
    return false;
  case runtime::ipc::ReadStatus::Torn:
    Error = "torn or corrupt response frame";
    close();
    return false;
  case runtime::ipc::ReadStatus::Stale:
    Error = StaleFrameError;
    close();
    return false;
  }
  if (Type != MsgType::Response) {
    Error = "unexpected frame type from daemon";
    close();
    return false;
  }
  return true;
}

bool DaemonClient::analyze(AnalyzeRequest Req, AnalyzeResponse &Out,
                           std::string &Error) {
  Req.Id = NextId++;
  std::string Body;
  if (!roundTrip(encodeAnalyzeRequest(Req), Body, Error))
    return false;
  if (!decodeAnalyzeResponse(Body, Out, Error)) {
    close();
    return false;
  }
  if (Out.Id != Req.Id) {
    // One request in flight per connection: any mismatch is a protocol
    // bug, not something to silently resynchronize.
    Error = "response id mismatch";
    close();
    return false;
  }
  return true;
}

bool DaemonClient::analyze(const std::string &Name, const std::string &Source,
                           AnalyzeResponse &Out, std::string &Error) {
  AnalyzeRequest Req;
  Req.Job.Name = Name;
  Req.Job.Source = Source;
  return analyze(std::move(Req), Out, Error);
}

bool DaemonClient::queryStats(DaemonStats &Out, std::string &Error) {
  std::uint64_t Id = NextId++;
  std::string Body;
  if (!roundTrip(encodeStatsRequest(Id), Body, Error))
    return false;
  std::uint64_t GotId = 0;
  if (!decodeStatsResponse(Body, GotId, Out, Error)) {
    close();
    return false;
  }
  if (GotId != Id) {
    Error = "response id mismatch";
    close();
    return false;
  }
  return true;
}
