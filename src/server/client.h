//===- server/client.h - Blocking daemon client -----------------*- C++ -*-===//
///
/// \file
/// The client side of the daemon protocol: connect to optoctd's Unix
/// socket or TCP port ("tcp:host:port"), handshake protocol versions
/// (Hello), send one Request frame, block for the matching Response.
/// The single-connection transport under server/replica.h's
/// ReplicaClient (which owns every retry, failover and backoff policy),
/// and the client perfbench and the tests drive directly when they
/// want exactly one round trip and nothing else.
///
/// Strictly sequential (one request in flight per connection); the
/// daemon itself multiplexes across *connections*, so concurrency means
/// more clients, not pipelining — which keeps the blocking client
/// trivial and the failure model obvious: any transport error poisons
/// the connection and every later call fails fast until connect().
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_CLIENT_H
#define OPTOCT_SERVER_CLIENT_H

#include "server/protocol.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace optoct::server {

class DaemonClient {
public:
  DaemonClient() = default;
  ~DaemonClient();
  DaemonClient(const DaemonClient &) = delete;
  DaemonClient &operator=(const DaemonClient &) = delete;

  /// Connects to \p Endpoint and performs the Hello handshake:
  ///   * "tcp:<host>:<port>" — TCP to a numeric IPv4 address or
  ///     "localhost"; everything else is a Unix socket path.
  /// The handshake (send our ProtocolVersion, read the daemon's) makes
  /// every successful connect a health probe — the daemon answered from
  /// its event loop, not just its accept queue — and fails cleanly with
  /// "protocol version mismatch" against a replica from another build.
  /// False with \p Error if the daemon is not there (no retry loop —
  /// ReplicaClient owns the backoff policy).
  bool connect(const std::string &Endpoint, std::string &Error);
  void close();
  bool connected() const { return Fd >= 0; }

  /// Bounds every recv on this connection (SO_RCVTIMEO); past the
  /// timeout the read fails like any transport error. 0 = no bound.
  /// The replica client arms this so a SIGSTOPped or half-open daemon
  /// costs a bounded stall and a failover, never a hang.
  void setRecvTimeoutMs(std::uint64_t Ms) { RecvTimeoutMs = Ms; }

  /// Hard-aborts the connection from another thread: shutdown(2) on the
  /// fd wakes any blocked send/recv with an error, after which the
  /// owning thread's call fails and close()s as usual. The hedging path
  /// uses this to cancel the losing request. The fd itself is *not*
  /// closed here (the owner still holds it). The abort is sticky: if it
  /// lands while the owner is *between* sockets (closed the old fd, not
  /// yet connected the next), the owner's next connect() step fails
  /// instead of opening a fresh connection the abort would miss —
  /// clearAbort() re-arms the client for its next request.
  void abortConnection();
  void clearAbort() { Aborted.store(false, std::memory_order_relaxed); }

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

  /// Fd is atomic and its lifecycle transitions (publish in connect,
  /// close, shutdown in abortConnection) are serialized by FdMutex:
  /// abortConnection must never shutdown(2) an fd number the owner has
  /// already closed and the kernel re-issued to someone else. Blocking
  /// I/O on the fd happens outside the lock, so an abort can always
  /// reach the live fd and wake it.
  std::atomic<int> Fd{-1};
  std::atomic<bool> Aborted{false};
  std::mutex FdMutex;
  std::uint64_t NextId = 1;
  std::uint64_t RecvTimeoutMs = 0; ///< Applied to the fd at connect().
};

} // namespace optoct::server

#endif // OPTOCT_SERVER_CLIENT_H
