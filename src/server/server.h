//===- server/server.h - Persistent analysis daemon -------------*- C++ -*-===//
///
/// \file
/// The optoctd core: a single-threaded poll(2) event loop that accepts
/// analysis requests over a Unix-domain stream socket and/or a TCP
/// listener (ServerOptions::TcpBind — both speak the same checksummed
/// frames, and a Hello handshake pins the protocol version so
/// mixed-version replicas reject cleanly) and runs its cache misses on
/// the batch's job scheduler (runtime::Supervisor): the same fenced,
/// recyclable fork workers, retries, hard kills and death texts, so one
/// segfaulting request costs one worker and one "crashed" response,
/// never the daemon or any other in-flight request. The scheduler's
/// worker pipes join the client sockets in the loop's one poll(2).
///
///   clients ──frames──► poll loop ──job pipes──► worker 1..N
///      ▲                   │    ▲──result pipes────┘
///      └──────responses────┘
///                │
///         invariant cache (server/cache.h)
///
/// Request lifecycle:
///   1. A Request frame arrives; the body decodes to an AnalyzeRequest
///      (server/protocol.h). Malformed bodies get a rejection; framing
///      violations (bad magic, oversize length prefix) drop the client.
///   2. The request's fingerprint is looked up in the invariant cache;
///      a hit replays the stored record immediately — byte-identical to
///      the cold response, because records are canonicalized before
///      both caching and cold replies.
///   3. A miss is submitted to the scheduler under a fresh tag, with the
///      request's engine options; a tag -> PendingJob map holds its
///      waiters. The scheduler hands back the terminal result once; it
///      is canonicalized, cached (deterministic outcomes only: never a
///      crash, a timeout or a transient failure), and sent.
///   4. A worker that dies mid-job yields a crashed (or, after a
///      SIGKILL past the deadline or MaxRequestMs, timeout) result for
///      that one request, after Worker.MaxAttempts attempts; the worker
///      is respawned at the next loop round and the queue drains on.
///
/// Overload ladder (each rung bounded, none lies):
///   * coalescing — concurrent misses on one fingerprint attach to the
///     in-flight computation; all waiters get the byte-identical reply
///     for one worker execution.
///   * admission control — the pending queue is bounded (MaxQueueDepth)
///     with a per-client cap (MaxClientPending); past either, the
///     daemon replies "overloaded" with a suggested backoff instead of
///     buffering unboundedly. ReplicaClient's retry policy
///     (server/replica.h) is the matching client half.
///   * quarantine — a fingerprint whose worker dies QuarantineAfter
///     times is negatively cached for QuarantineTtlMs: further requests
///     replay the crashed verdict instead of consuming fresh workers.
///
/// Shutdown (requestStop, async-signal-safe): stop accepting, shed the
/// queue with "overloaded" (the scheduler's shed mode, which also stops
/// retries), *finish* in-flight jobs and their coalesced waiters
/// (bounded by DrainMs), then retire the worker pool (job pipes closed,
/// runtime::RetireGrace to exit, SIGKILL backstop), persist the cache
/// if a path is configured.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_SERVER_H
#define OPTOCT_SERVER_SERVER_H

#include "runtime/ipc.h"
#include "runtime/supervisor.h"
#include "server/cache.h"
#include "server/protocol.h"

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace optoct::server {

struct ServerOptions {
  /// Unix-domain listener. May be empty when TcpBind is set — a
  /// TCP-only replica needs no socket file.
  std::string SocketPath;

  /// TCP listener as "host:port" (numeric IPv4 or "localhost"; port 0
  /// binds an ephemeral port readable via Server::tcpPort()). Empty =
  /// Unix socket only. Both listeners speak the identical framed
  /// protocol; the TCP edge is what replica clients fail over across.
  std::string TcpBind;

  /// Worker processes; 0 = one per hardware thread.
  unsigned Workers = 1;

  /// Invariant cache byte budget (the --cache-mb knob).
  std::size_t CacheMaxBytes = 64u << 20;
  /// Cache persistence file; empty = in-memory only. Loaded on start
  /// (the warm handoff: a fresh replica starts from the newest valid
  /// snapshot), written on shutdown under an flock guard with an
  /// atomic rename — N replicas may share one cache file, and a saver
  /// merges entries persisted by its siblings instead of clobbering
  /// them (see InvariantCache::saveShared).
  std::string CachePath;

  /// Per-frame body bound for *client* connections — the hostile-input
  /// edge. Worker pipes keep the default ipc::MaxFrameBytes.
  std::uint64_t MaxFrameBytes = 16u << 20;
  unsigned MaxClients = 64;

  /// Admission control: jobs queued (not yet on a worker) past this
  /// bound are shed with an "overloaded" reply instead of buffered.
  std::size_t MaxQueueDepth = 256;
  /// Unanswered admitted requests (queued, running, or coalesced) per
  /// client connection before further ones are shed.
  unsigned MaxClientPending = 32;
  /// Base of the server-suggested backoff hint in overloaded replies;
  /// the hint scales with queue depth up to ~2x this base.
  unsigned OverloadRetryMs = 50;

  /// Worker deaths (crash or hard-kill) on one fingerprint before it is
  /// quarantined: further requests replay the negatively-cached verdict
  /// for QuarantineTtlMs instead of consuming fresh workers. 0 = off.
  unsigned QuarantineAfter = 3;
  std::uint64_t QuarantineTtlMs = 60'000;

  /// Hard per-request wall-clock ceiling applied when no deadline is
  /// configured (Worker.Budget.DeadlineMs == 0), so a hung worker can
  /// never wedge its coalesced waiters forever: the scheduler's hard
  /// limit. 0 = genuinely unlimited (opt-in).
  std::uint64_t MaxRequestMs = 300'000;

  /// Graceful-drain budget on stop: in-flight jobs get this long to
  /// finish (deadline kills stay armed) before teardown proceeds.
  std::uint64_t DrainMs = 5'000;

  /// Worker policy: Budget.DeadlineMs, MaxRssMb, RecycleAfter,
  /// HardKillGraceMs, MaxAttempts and the backoff apply exactly as in
  /// batch process mode (one scheduler runs both). Engine options here
  /// are ignored — each request carries its own.
  runtime::BatchOptions Worker;
};

class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket (replacing a stale file), spawns the pool, then
  /// loads the cache, so the first workers never map it. False with
  /// \p Error on any failure, nothing left bound.
  bool start(std::string &Error);

  /// Runs the event loop until requestStop(). Calls shutdown() on the
  /// way out. Must follow a successful start().
  void serve();

  /// Stops serve() from another thread or a signal handler: sets the
  /// stop flag and pokes the self-pipe (both async-signal-safe).
  void requestStop();

  /// Idempotent teardown; serve() calls it, the destructor backstops.
  void shutdown();

  bool started() const { return ListenFd >= 0 || TcpListenFd >= 0; }
  const ServerOptions &options() const { return Opts; }

  /// Port the TCP listener actually bound (resolves port 0), 0 when
  /// TCP is not enabled. Valid after start().
  unsigned tcpPort() const { return TcpPort; }

  /// Counters merged with the live cache statistics.
  DaemonStats stats() const;

private:
  struct ClientConn {
    int Fd = -1;
    runtime::ipc::FrameReader Reader;
    std::string OutBuf;     ///< Frames rendered but not yet written.
    std::size_t OutPos = 0; ///< Written prefix of OutBuf.
    bool Drop = false;      ///< Close once OutBuf drains.
    unsigned Pending = 0;   ///< Admitted, unanswered requests.
  };

  /// One party awaiting a job's result: the admitting requester or a
  /// coalesced duplicate. ClientSeq 0 = already disconnected.
  struct Waiter {
    std::uint64_t ClientSeq = 0;
    std::uint64_t ReqId = 0;
  };

  /// A submitted miss, queued or running, keyed by its scheduler tag.
  struct PendingJob {
    std::vector<Waiter> Waiters; ///< [0] is the admitting request.
    std::uint64_t Key = 0;
    bool NoCache = false;
  };

  /// Per-fingerprint crash ledger backing the poison quarantine.
  struct CrashEntry {
    unsigned Deaths = 0;     ///< Worker deaths attributed to this key.
    bool Quarantined = false;
    std::chrono::steady_clock::time_point Until{}; ///< TTL expiry.
    std::string Record; ///< Canonicalized verdict replayed while quarantined.
  };

  void acceptClients(int Fd);
  void readClient(std::uint64_t Seq);
  bool flushClient(ClientConn &C);
  void dropClient(std::uint64_t Seq);
  void handleFrame(std::uint64_t Seq, runtime::ipc::MsgType Type,
                   const std::string &Body);
  void handleAnalyze(std::uint64_t Seq, const std::string &Body);
  /// Queues \p R's reply frame for client \p Seq; \p Record, when
  /// given, is the result payload in place of R.ResultRecord (a cache
  /// or quarantine hit replies from the stored bytes, uncopied).
  void sendResponse(std::uint64_t Seq, const AnalyzeResponse &R,
                    std::optional<std::string_view> Record = std::nullopt);
  /// The scheduler's completion callback: caches, quarantines and
  /// answers every waiter of job \p Tag (or sheds them while draining).
  void onJobDone(std::uint64_t Tag, runtime::Supervisor::Outcome &&O);
  /// The in-flight or queued non-NoCache job for \p Key, if any — the
  /// coalescing target for a concurrent duplicate miss.
  PendingJob *findInFlight(std::uint64_t Key);
  /// Server-suggested backoff for an overloaded reply: scales with the
  /// current queue depth so a deeper backlog pushes clients further out.
  std::uint64_t retryHintMs() const;
  /// Sheds one request with an "overloaded" reply, bumping \p Counter.
  void sendOverloaded(std::uint64_t Seq, std::uint64_t ReqId,
                      std::uint64_t &Counter, const char *Reason);
  /// Bookkeeping for any reply to an *admitted* waiter.
  void noteReplied(std::uint64_t Seq);
  /// Graceful drain: shed the queue, finish in-flight jobs (bounded by
  /// DrainMs), flush client buffers. Runs between serve() and shutdown().
  void drain();
  /// Closes both listeners and removes the socket file (idempotent).
  void closeListeners();

  ServerOptions Opts;
  InvariantCache Cache;
  DaemonStats Counters; ///< Cache fields filled lazily by stats().

  int ListenFd = -1;    ///< Unix-domain listener (-1 = disabled).
  int TcpListenFd = -1; ///< TCP listener (-1 = disabled).
  unsigned TcpPort = 0; ///< Bound TCP port (ephemeral ports resolved).
  int WakePipe[2] = {-1, -1}; ///< Self-pipe: requestStop pokes [1].
  std::atomic<bool> StopFlag{false}; ///< Lock-free: signal-handler safe.
  std::map<std::uint64_t, ClientConn> Clients; ///< By accept sequence.
  std::uint64_t NextClientSeq = 1;
  std::map<std::uint64_t, PendingJob> Jobs; ///< By scheduler tag.
  std::uint64_t NextTag = 1;
  std::map<std::uint64_t, CrashEntry> Crashes; ///< Quarantine ledger.
  /// The cache-miss scheduler and its workers. Its pool also keeps
  /// SIGPIPE ignored: a client or worker vanishing mid-write costs EPIPE.
  runtime::Supervisor Sched;
  bool Draining = false; ///< In drain(): shed admissions, no retries.
};

} // namespace optoct::server

#endif // OPTOCT_SERVER_SERVER_H
