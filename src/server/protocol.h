//===- server/protocol.h - Daemon request/response bodies -------*- C++ -*-===//
///
/// \file
/// Message bodies for the analysis daemon (server/server.h), riding in
/// MsgType::Request / MsgType::Response frames of the runtime's pipe
/// protocol (runtime/ipc.h) over a Unix-domain stream socket. See
/// docs/protocol.md for the full wire specification.
///
/// Bodies are line-oriented "key value\n" text with percent-escaped
/// values (support/textcodec.h) — the same shape as journal records, so
/// program sources and serialized results are binary-safe within one
/// line. Every body opens with a tag line carrying the client's request
/// id and closes with "end"; unknown keys are skipped for forward
/// compatibility, malformed values reject the request (never crash —
/// socket bytes are untrusted).
///
/// Two request kinds:
///   * analyze ("areq"): one named mini-IMP program plus the
///     result-shaping engine options. The response ("ares") carries a
///     serialized JobResult (runtime/journal.h) — the daemon's cache
///     stores exactly these bytes, so a cache hit is byte-identical to
///     the cold response it replays.
///   * stats ("sreq"/"sres"): the daemon's counters, for monitoring and
///     the CI smoke's cache-hit assertions.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_PROTOCOL_H
#define OPTOCT_SERVER_PROTOCOL_H

#include "runtime/batch.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace optoct::server {

/// Version of the daemon wire protocol, negotiated by the Hello
/// handshake (MsgType::Hello): the client sends its version on connect,
/// the daemon echoes its own, and each side rejects a mismatch cleanly
/// instead of misparsing a peer from a different build. Bump on any
/// incompatible change to the frame bodies below or to the framing.
///   1: Unix-socket protocol (no handshake).
///   2: Hello handshake + TCP transport, 'OFR1' frames (FNV-1a 64).
///   3: 'OFR2' frames, checksummed with CRC32C. A version 2 peer never
///      gets as far as a Hello: its first frame's magic marks it stale
///      (runtime/ipc.h).
///   4: Same frames; a result record's num_closures comes from the
///      engine that tests inclusion before it joins and so counts fewer
///      closures per job. A version 3 peer frames as 'OFR2' and is
///      refused at the Hello, so a fleet never mixes records whose
///      closure counts disagree.
///   5: Same frames; num_closures counts full closures only. Guards
///      close incrementally and a loop head's widening iterate is closed
///      once, so it counts fewer again. A version 4 peer is refused at
///      the Hello for the same reason.
///   6: Same frames; an invariant lists its constraints by variable, so
///      its text no longer follows the representation, and a record's
///      num_closures is 0 (this version). A version 5 peer orders the
///      same constraints differently and is refused at the Hello.
constexpr std::uint32_t ProtocolVersion = 6;

/// Hello body ("helo <version>\nend\n"), symmetric in both directions.
/// Doubles as the replica client's health probe: a daemon that answers
/// Hello has a live event loop, not just a listening socket.
std::string encodeHello(std::uint32_t Version);
bool decodeHello(const std::string &Body, std::uint32_t &Version);

/// First-line dispatch over a Request frame body.
enum class RequestKind {
  Analyze, ///< "areq": run (or replay from cache) one analysis.
  Stats,   ///< "sreq": report daemon counters.
  Invalid, ///< Unrecognized tag — protocol violation.
};

RequestKind peekRequestKind(const std::string &Body);

/// One analysis request. Engine options default-construct to the same
/// values the batch CLI uses; only the result-shaping knobs travel
/// (timing knobs like deadlines are daemon policy, not request data).
struct AnalyzeRequest {
  std::uint64_t Id = 0; ///< Client-chosen correlation id, echoed back.
  runtime::BatchJob Job;
  analysis::AnalysisOptions Engine;
  std::uint64_t MaxDbmCells = 0; ///< DBM-cell budget; 0 = unlimited.
  /// Bypass the cache entirely — no lookup, no insertion, no counter
  /// movement: the bench's cold-latency control must not warm or skew
  /// the cache it is being compared against.
  bool NoCache = false;
};

std::string encodeAnalyzeRequest(const AnalyzeRequest &R);

/// False with \p Error on malformed input. R.Id is populated whenever
/// the tag line parsed, so a rejection can still be correlated.
bool decodeAnalyzeRequest(const std::string &Body, AnalyzeRequest &R,
                          std::string &Error);

std::string encodeStatsRequest(std::uint64_t Id);
bool decodeStatsRequest(const std::string &Body, std::uint64_t &Id);

/// Analysis response. Ok means the request was *served* — the payload
/// is a serialized JobResult whose own status may still be failed,
/// crashed, or timeout. !Ok means the request itself was not run:
/// either rejected (malformed body — permanent, do not retry) or
/// overloaded (shed by admission control — retryable; RetryMs carries
/// the server's suggested backoff).
struct AnalyzeResponse {
  std::uint64_t Id = 0;
  bool Ok = false;
  /// The daemon shed this request under load (queue bound, per-client
  /// cap, or drain). The one *retryable* failure: same request later
  /// can succeed. Mutually exclusive with Ok.
  bool Overloaded = false;
  std::uint64_t RetryMs = 0;  ///< Suggested backoff when Overloaded.
  bool Cached = false;        ///< Replayed from the invariant cache
                              ///< (including the quarantine's negative
                              ///< cache).
  std::uint64_t Key = 0;      ///< Content-address of the request.
  std::string Error;          ///< Rejection/overload reason when !Ok.
  std::string ResultRecord;   ///< serializeJobResult bytes when Ok.
};

std::string encodeAnalyzeResponse(const AnalyzeResponse &R);
/// Appends encodeAnalyzeResponse(R) to \p Out. \p Record, when given,
/// is the result payload in place of R.ResultRecord, so a reply can be
/// encoded from bytes the caller holds elsewhere (a cache entry, owned
/// or in a mapped snapshot) without copying them.
void appendAnalyzeResponse(
    std::string &Out, const AnalyzeResponse &R,
    std::optional<std::string_view> Record = std::nullopt);
bool decodeAnalyzeResponse(const std::string &Body, AnalyzeResponse &R,
                           std::string &Error);

/// Daemon counters, as served by a stats request. Cache fields come
/// from the invariant cache (server/cache.h); the worker fields mirror
/// runtime::SupervisorStats.
struct DaemonStats {
  std::uint64_t Requests = 0;       ///< Analyze requests accepted.
  std::uint64_t Served = 0;         ///< Ok analyze responses sent.
  std::uint64_t Rejected = 0;       ///< Rejections sent.
  std::uint64_t CrashedReplies = 0; ///< Served with a crashed result.
  std::uint64_t TimeoutReplies = 0; ///< Served with a hard-kill timeout.
  std::uint64_t CacheHits = 0;
  std::uint64_t CacheMisses = 0;
  std::uint64_t CacheEntries = 0;
  std::uint64_t CacheBytes = 0;
  std::uint64_t CacheEvictions = 0;
  std::uint64_t Workers = 0;         ///< Pool size.
  std::uint64_t WorkersSpawned = 0;  ///< Forks, including respawns.
  std::uint64_t WorkersCrashed = 0;  ///< Died with a request in flight.
  std::uint64_t WorkersRecycled = 0; ///< Clean retirements.
  std::uint64_t HardKills = 0;       ///< SIGKILL escalations.
  // Overload / robustness counters (all zero on an unloaded daemon).
  std::uint64_t ShedQueueFull = 0;   ///< Overloaded: queue high-water.
  std::uint64_t ShedClientCap = 0;   ///< Overloaded: per-client cap.
  std::uint64_t ShedDraining = 0;    ///< Overloaded: shed during drain.
  std::uint64_t QueueDepth = 0;      ///< Gauge: queued, not running.
  std::uint64_t QueuePeak = 0;       ///< High-water mark of QueueDepth.
  std::uint64_t CoalescedReplies = 0; ///< Waiters attached to an
                                      ///< in-flight same-key request.
  std::uint64_t QuarantineReplies = 0; ///< Served from the negative
                                       ///< (crash-quarantine) cache.
  std::uint64_t QuarantinedKeys = 0;  ///< Gauge: keys under quarantine.
  std::uint64_t QuarantinedTotal = 0; ///< Keys ever quarantined.
  std::uint64_t DrainedJobs = 0;      ///< In-flight jobs finished
                                      ///< during graceful drain.
  std::uint64_t Hellos = 0;           ///< Hello handshakes answered.
  std::uint64_t VersionRejects = 0;   ///< Hellos rejected for a
                                      ///< mismatched protocol version.
};

std::string encodeStatsResponse(std::uint64_t Id, const DaemonStats &S);
bool decodeStatsResponse(const std::string &Body, std::uint64_t &Id,
                         DaemonStats &S, std::string &Error);

/// Zeroes the timing fields (WallSeconds, cycle counters) that vary
/// between identical runs, and both closure counts, which are telemetry
/// and never part of a record: a change that only skips closures moves
/// no canonical byte. Applied to every result before
/// caching *and* before any cold response, so a cached replay is
/// byte-identical to the cold response for the same request — the
/// property the CI smoke diffs.
void canonicalizeResult(runtime::JobResult &R);

/// Content-address of a request: the journal's job-set fingerprint
/// (runtime/journal.h) of the singleton job set with the request's
/// result-shaping options — same inputs, same key, across daemon
/// restarts and versions that keep the fingerprint stable.
std::uint64_t requestFingerprint(const AnalyzeRequest &R);

} // namespace optoct::server

#endif // OPTOCT_SERVER_PROTOCOL_H
