//===- server/replica.h - Replica-aware daemon client -----------*- C++ -*-===//
///
/// \file
/// The daemon client: the one retrying, failover-aware way to talk to
/// optoctd, whether there is one daemon or N replicas. Wraps one
/// DaemonClient (the single-connection transport, server/client.h) per
/// endpoint (a Unix socket path) and layers the availability policy on
/// top:
///
///   * retry and failover — endpoints are tried in order from a sticky
///     preferred replica (the last one that answered); a transport error
///     or a version-mismatched replica moves on to the next, and a
///     pooled connection gone stale (the daemon restarted) gets one
///     reconnect-and-resend first. A receive timeout is not staleness:
///     the replica is frozen or busy, and a resend would wait out a
///     second timeout, so it fails over at once. Stickiness means a dead
///     or frozen replica costs one request per client, not one per
///     request. A full sweep with no answer backs off (RetryPolicy's
///     jittered schedule, floored by the daemon's own backoff hint) and
///     sweeps again, up to Retry.MaxAttempts cycles. With one endpoint
///     this is plain retry-with-reconnect: what `optoctd --client
///     --socket=P` and opt_oct_daemon_connect use.
///   * overload honesty — a shed ("overloaded") reply is the daemon's
///     verdict, not a transport error: it fails over within the cycle,
///     but if *every* replica sheds through every cycle the caller gets
///     the daemon's last word back (Out.Overloaded set). Rejections and
///     served-but-crashed results are never retried: the former are
///     permanent, the latter are the daemon's verdict.
///   * local degrade — when every replica is transport-dead and
///     Opts.LocalFallback holds, the request runs in-process through
///     the same single-attempt path the daemon's workers use, then the
///     same canonicalize + serialize pipeline — so even the degraded
///     reply is byte-identical to what a healthy replica would have
///     sent (for deterministic programs). The reply is flagged
///     ReplyPath::Local so callers can tell they paid local CPU.
///
/// Every reply reports its path (ReplicaReplyInfo), which is how the
/// chaos harness proves a SIGKILLed replica cost a failover, not a
/// failure.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_REPLICA_H
#define OPTOCT_SERVER_REPLICA_H

#include "server/client.h"
#include "support/random.h"

#include <memory>
#include <string>
#include <vector>

namespace optoct::server {

/// Client-side retry discipline for retryable daemon failures.
struct RetryPolicy {
  unsigned MaxAttempts = 4;    ///< Total tries, including the first.
  unsigned BaseBackoffMs = 25; ///< Delay after the first failure.
  unsigned MaxBackoffMs = 2000; ///< Cap on the exponential growth.
  /// Delay is drawn uniformly from [d*(1-Jitter), d*(1+Jitter)] so a
  /// shed burst does not retry in lockstep. Clamped to [0, 1].
  double Jitter = 0.5;
  /// Jitter stream seed. 0 (the default) derives a per-process seed
  /// from pid + monotonic time at retry time (derivedRetrySeed) — a
  /// fleet of clients restarted together must not jitter in lockstep,
  /// which is exactly what a shared compile-time constant produced.
  /// Tests that assert a specific schedule set an explicit seed.
  std::uint64_t Seed = 0;
};

/// The backoff schedule, exposed for tests: delay before retrying after
/// the \p Attempt-th failure (1-based). The exponential base-2 ramp is
/// floored by the server's \p HintMs (the server knows its own queue)
/// and capped by MaxBackoffMs, then jittered via \p R.
std::uint64_t retryDelayMs(const RetryPolicy &P, unsigned Attempt,
                           std::uint64_t HintMs, Rng &R);

/// The seed a RetryPolicy with Seed == 0 jitters with: mixed from the
/// pid and the monotonic clock, so two clients — or two retry loops in
/// one client — never share a jitter stream by accident.
std::uint64_t derivedRetrySeed();

/// Splits a comma-separated endpoint list ("a.sock, b.sock") into
/// endpoints, trimming ASCII spaces around each and dropping empty
/// items. The one parser behind `optoctd --endpoints` and
/// opt_oct_daemon_connect_replicas. Throws std::invalid_argument on an
/// endpoint of the removed TCP transport, as ReplicaClient does.
std::vector<std::string> parseEndpointList(const std::string &List);

/// How a replica-tier reply was obtained.
enum class ReplyPath {
  Primary,  ///< The preferred replica answered first try.
  Failover, ///< A different replica (or a later cycle) answered.
  Local,    ///< All replicas down: in-process analysis served it.
};

const char *replyPathName(ReplyPath P);

struct ReplicaOptions {
  /// Unix socket paths, tried in order from the sticky preferred
  /// replica.
  std::vector<std::string> Endpoints;

  /// Cycle policy: MaxAttempts full endpoint sweeps, with the jittered
  /// exponential backoff between sweeps (not between endpoints — a
  /// dead replica should cost microseconds, not a backoff).
  RetryPolicy Retry;

  /// Degrade to in-process analysis when every replica is transport
  /// dead (never on shed — overload is a verdict, not an outage).
  bool LocalFallback = true;

  /// SO_RCVTIMEO per connection: the bound on how long a SIGSTOPped or
  /// half-open replica can stall one attempt before it reads as a
  /// transport error and fails over. 0 = unbounded (not recommended
  /// with more than one endpoint; see singleDaemonOptions).
  std::uint64_t RecvTimeoutMs = 30'000;
};

/// The options of a client for exactly one daemon (`optoctd --client
/// --socket`, opt_oct_daemon_connect): \p Endpoint under \p Retry, no
/// local fallback (the caller asked for that daemon's answer) and no
/// receive timeout (with nowhere to fail over to, a long analysis must
/// not read as a dead daemon).
ReplicaOptions singleDaemonOptions(std::string Endpoint,
                                   RetryPolicy Retry = {});

/// Provenance of one reply, for logging and the chaos assertions.
struct ReplicaReplyInfo {
  ReplyPath Path = ReplyPath::Primary;
  std::string Endpoint; ///< Which replica answered; empty for Local.
  unsigned Cycles = 1;  ///< Endpoint sweeps consumed (1 = first sweep).
  unsigned Connects = 0; ///< Connection attempts across the call.
};

class ReplicaClient {
public:
  /// Throws std::invalid_argument on an endpoint of the removed TCP
  /// transport: tried as a Unix path it would fail every request over
  /// to the local degrade without a word.
  explicit ReplicaClient(ReplicaOptions Opts);
  ~ReplicaClient();
  ReplicaClient(const ReplicaClient &) = delete;
  ReplicaClient &operator=(const ReplicaClient &) = delete;

  /// Opens the preferred endpoint's pooled connection now instead of on
  /// the first request: a health probe for callers whose contract is
  /// "fail at connect when no daemon listens". False with \p Error
  /// (the transport's own message) when it does not answer.
  bool connect(std::string &Error);

  /// One analysis through the availability policy above. Returns true
  /// whenever the caller holds a decoded response — served, rejected,
  /// or (after exhausting every cycle against shedding replicas) the
  /// last overloaded verdict. False only when every replica failed at
  /// the transport *and* local fallback is disabled; \p Error then
  /// aggregates the per-endpoint failures.
  bool analyze(const AnalyzeRequest &Req, AnalyzeResponse &Out,
               std::string &Error, ReplicaReplyInfo *Info = nullptr);

  /// Stats from the first replica that answers, sweeping from the
  /// preferred one. False when none does (stats have no local fallback
  /// — there is no daemon to describe).
  bool queryStats(DaemonStats &Out, std::string &Error,
                  std::string *FromEndpoint = nullptr);

  const ReplicaOptions &options() const { return Opts; }

  /// Mutable cycle/backoff policy — retunable between calls (the C API
  /// exposes this); endpoints themselves are fixed at construction.
  RetryPolicy &retryPolicy() { return Opts.Retry; }

  /// The endpoint new sweeps start from (the last one that answered);
  /// empty when no endpoints are configured.
  std::string preferredEndpoint() const {
    return Opts.Endpoints.empty() ? std::string() : Opts.Endpoints[Preferred];
  }

private:
  /// In-process degrade: same single-attempt + canonicalize + serialize
  /// pipeline as a daemon worker, so the bytes match a healthy reply.
  void runLocal(const AnalyzeRequest &Req, AnalyzeResponse &Out);

  ReplicaOptions Opts;
  /// One persistent connection per endpoint (index-aligned with
  /// Opts.Endpoints); dead ones reconnect lazily on the next try.
  std::vector<std::unique_ptr<DaemonClient>> Clients;
  std::size_t Preferred = 0;
};

} // namespace optoct::server

#endif // OPTOCT_SERVER_REPLICA_H
