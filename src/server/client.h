//===- server/client.h - Blocking daemon client -----------------*- C++ -*-===//
///
/// \file
/// The client side of the daemon protocol: connect to optoctd's Unix
/// socket, handshake protocol versions (Hello), send one Request frame,
/// block for the matching Response. The single-connection transport
/// under server/replica.h's ReplicaClient (which owns every retry,
/// failover and backoff policy), and the client perfbench and the tests
/// drive directly when they want exactly one round trip and nothing
/// else.
///
/// Strictly sequential (one request in flight per connection) and
/// owned by one thread; the daemon itself multiplexes across
/// *connections*, so concurrency means more clients, not pipelining —
/// which keeps the blocking client trivial and the failure model
/// obvious: any transport error poisons the connection and every later
/// call fails fast until connect().
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_CLIENT_H
#define OPTOCT_SERVER_CLIENT_H

#include "runtime/ipc.h"
#include "server/protocol.h"

#include <cstdint>
#include <string>

namespace optoct::server {

class DaemonClient {
public:
  DaemonClient() = default;
  ~DaemonClient();
  DaemonClient(const DaemonClient &) = delete;
  DaemonClient &operator=(const DaemonClient &) = delete;

  /// Connects to the Unix socket \p SocketPath and performs the Hello
  /// handshake. The handshake (send our ProtocolVersion, read the
  /// daemon's) makes every successful connect a health probe — the
  /// daemon answered from its event loop, not just its accept queue —
  /// and fails cleanly with "protocol version mismatch" against a
  /// replica from another build. False with \p Error if the daemon is
  /// not there (no retry loop — ReplicaClient owns the backoff policy).
  bool connect(const std::string &SocketPath, std::string &Error);
  void close();
  bool connected() const { return Fd >= 0; }

  /// Bounds every recv on this connection (SO_RCVTIMEO); past the
  /// timeout the call fails with an error that names it. 0 = no bound.
  /// The replica client arms this so a SIGSTOPped or half-open daemon
  /// costs a bounded stall and a failover, never a hang.
  void setRecvTimeoutMs(std::uint64_t Ms) { RecvTimeoutMs = Ms; }

  /// The last failed connect or call waited out the receive timeout:
  /// the daemon is alive or frozen, not gone, so a resend would only
  /// wait out another timeout.
  bool timedOut() const { return TimedOut; }

  /// One analyze round trip. \p Req.Id is overwritten with a
  /// connection-unique id. Returns false only on transport failure
  /// (send/recv/framing); a daemon-side rejection returns true with
  /// Out.Ok == false and the reason in Out.Error.
  bool analyze(AnalyzeRequest Req, AnalyzeResponse &Out, std::string &Error);

  /// Convenience: analyze \p Name/\p Source with default options.
  bool analyze(const std::string &Name, const std::string &Source,
               AnalyzeResponse &Out, std::string &Error);

  bool queryStats(DaemonStats &Out, std::string &Error);

private:
  bool roundTrip(const std::string &ReqBody, std::string &RespBody,
                 std::string &Error);

  /// Reads one frame of type \p Want; on any failure closes the
  /// connection and says why in \p Error.
  bool readReply(runtime::ipc::MsgType Want, std::string &Body,
                 std::string &Error);

  int Fd = -1;
  bool TimedOut = false;
  std::uint64_t NextId = 1;
  std::uint64_t RecvTimeoutMs = 0; ///< Applied to the fd at connect().
};

} // namespace optoct::server

#endif // OPTOCT_SERVER_CLIENT_H
