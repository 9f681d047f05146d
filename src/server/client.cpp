//===- server/client.cpp - Blocking daemon client -------------------------===//

#include "server/client.h"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::server;
using runtime::ipc::MsgType;
using runtime::ipc::ReadStatus;

namespace {

constexpr const char *StaleFrameError =
    "stale daemon: it frames replies as OFR1 (protocol version 2), this "
    "client speaks OFR2 (version 3)";

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
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

bool DaemonClient::connect(const std::string &SocketPath, std::string &Error) {
  close();
  TimedOut = false;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: " + SocketPath;
    return false;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Error = "connect " + SocketPath + ": " + std::strerror(errno);
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
    Error = "hello send failed: " + SocketPath;
    close();
    return false;
  }
  std::string Body;
  if (!readReply(MsgType::Hello, Body, Error)) {
    Error += " during hello: " + SocketPath;
    return false;
  }
  std::uint32_t DaemonVersion = 0;
  if (!decodeHello(Body, DaemonVersion)) {
    Error = "bad hello reply: " + SocketPath;
    close();
    return false;
  }
  if (DaemonVersion != ProtocolVersion) {
    Error = "protocol version mismatch: daemon " +
            std::to_string(DaemonVersion) + ", client " +
            std::to_string(ProtocolVersion) + " (" + SocketPath + ")";
    close();
    return false;
  }
  return true;
}

bool DaemonClient::readReply(MsgType Want, std::string &Body,
                             std::string &Error) {
  MsgType Type{};
  ReadStatus S = runtime::ipc::readFrame(Fd, Type, Body);
  TimedOut = S == ReadStatus::Timeout;
  switch (S) {
  case ReadStatus::Ok:
    if (Type == Want)
      return true;
    Error = "unexpected frame type from daemon";
    break;
  case ReadStatus::Eof:
    Error = "daemon closed the connection";
    break;
  case ReadStatus::Torn:
    Error = "torn or corrupt frame";
    break;
  case ReadStatus::Stale:
    Error = StaleFrameError;
    break;
  case ReadStatus::Timeout:
    Error = "no reply within the " + std::to_string(RecvTimeoutMs) +
            " ms receive timeout";
    break;
  }
  close();
  return false;
}

bool DaemonClient::roundTrip(const std::string &ReqBody, std::string &RespBody,
                             std::string &Error) {
  TimedOut = false;
  if (Fd < 0) {
    Error = "not connected";
    return false;
  }
  if (!sendAll(Fd, runtime::ipc::frameBytes(MsgType::Request, ReqBody))) {
    Error = "send failed (daemon gone?)";
    close();
    return false;
  }
  return readReply(MsgType::Response, RespBody, Error);
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
