//===- runtime/ipc.h - Framed supervisor/worker pipe protocol ---*- C++ -*-===//
///
/// \file
/// The wire protocol between the batch supervisor and its forked
/// worker processes (runtime/supervisor.h): length-prefixed, CRC32C
/// checksummed frames over pipes. The checksum (support/crc32c.h) is
/// the one the journal and the cache snapshot use, for the same reason
/// the journal has one — the peer can die mid-write, and a torn or
/// corrupt frame must be *detected* (and attributed to a dead worker),
/// never parsed.
///
/// Frame layout (all integers little-endian, fixed width):
///
///   'O' 'F' 'R' '2'   magic (4 bytes)
///   u32 type          MsgType
///   u64 body length   bounded by MaxFrameBytes
///   u64 crc32c(body)  checksum over the body bytes only, zero-extended
///   body bytes
///
/// 'OFR1' was the same layout with an FNV-1a 64 checksum (protocol
/// version 2). A reader meeting it reports a stale peer (ReadStatus::
/// Stale, FrameReader::stale()), never a torn frame and never a parse.
///
/// Two message bodies ride on top:
///   * Job    (supervisor -> worker): job index, attempt number, and
///     the full BatchJob (name + source) — the protocol is
///     self-contained; a worker needs nothing but its pipes.
///   * Result (worker -> supervisor): job index, the retryable flag,
///     and a serialized JobResult, reusing the journal's lossless
///     record serialization (runtime/journal.h).
///
/// optoctd's client traffic (Request, Response, Hello) uses the same
/// frames; its bodies live in server/protocol.h.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_IPC_H
#define OPTOCT_RUNTIME_IPC_H

#include "runtime/batch.h"

#include <cstdint>
#include <string>

namespace optoct::runtime::ipc {

enum class MsgType : std::uint32_t {
  Job = 1,       ///< Supervisor -> worker: run this job.
  Result = 2,    ///< Worker -> supervisor: the job's attempt result.
  Request = 3,   ///< Daemon client -> optoctd (server/protocol.h bodies).
  Response = 4,  ///< optoctd -> daemon client.
  // 5-7 are unassigned. The values travel on the wire: never renumber.
  Hello = 8,     ///< Daemon <-> client: version handshake / health probe.
};

/// Default sanity bound on a frame body; anything larger is treated as
/// a corrupt frame (a real result for our workloads is a few KiB).
/// Readers exposed to less trusted peers than our own forked workers —
/// the daemon's client sockets — tighten this with setMaxFrameBytes /
/// the readFrame parameter: the length prefix is attacker-controlled
/// bytes, and the bound is what stands between a corrupt or hostile
/// prefix and an unbounded allocation.
constexpr std::uint64_t MaxFrameBytes = 64ull << 20;

/// Renders one complete frame (header + body) as bytes, for callers
/// that buffer writes themselves.
std::string frameBytes(MsgType Type, const std::string &Body);

/// Builds a frame in place at the end of \p Out: beginFrame appends the
/// header and returns its offset, the caller appends the body, and
/// endFrame fills in the length and the checksum over the bytes already
/// there. The daemon encodes replies straight into a connection's
/// output buffer this way, with no frame built first and then copied.
std::size_t beginFrame(std::string &Out, MsgType Type);
void endFrame(std::string &Out, std::size_t FrameStart);

/// Writes one framed message, retrying EINTR and short writes. Returns
/// false on any I/O error (EPIPE with SIGPIPE ignored = peer died).
bool writeFrame(int Fd, MsgType Type, const std::string &Body);

/// Outcome of a blocking readFrame.
enum class ReadStatus {
  Ok,    ///< A whole, checksum-valid frame was read.
  Eof,   ///< Clean close before any byte of a frame (peer finished).
  Torn,  ///< Partial frame, bad magic, oversize, or checksum mismatch.
  Stale, ///< The peer speaks the previous frame format ('OFR1').
  /// The socket's receive timeout (SO_RCVTIMEO) expired first: the
  /// peer is alive or frozen, not gone.
  Timeout,
};

/// Blocking read of exactly one frame (the worker side; its only job
/// source is this pipe, so blocking is the point). A header announcing
/// a body larger than \p MaxFrame is Torn — rejected before any body
/// allocation happens.
ReadStatus readFrame(int Fd, MsgType &Type, std::string &Body,
                     std::uint64_t MaxFrame = MaxFrameBytes);

/// Incremental decoder for the supervisor side, which multiplexes many
/// nonblocking result pipes through poll(2): feed() whatever bytes
/// arrived, next() yields complete frames. A framing violation —
/// including a length prefix above the configured maximum — sets
/// corrupt() permanently; the supervisor treats the worker as dead and
/// the daemon drops the client connection.
class FrameReader {
public:
  FrameReader() = default;
  explicit FrameReader(std::uint64_t MaxFrame) : MaxFrame(MaxFrame) {}

  /// Tightens (or relaxes) the per-frame body bound. Takes effect at
  /// the next header parse; bytes already buffered are unaffected.
  void setMaxFrameBytes(std::uint64_t Max) { MaxFrame = Max; }
  std::uint64_t maxFrameBytes() const { return MaxFrame; }

  void feed(const char *Data, std::size_t Len);
  /// Extracts the next complete, checksum-valid frame.
  bool next(MsgType &Type, std::string &Body);
  bool corrupt() const { return Corrupt; }
  /// The corruption is a peer speaking the previous frame format
  /// ('OFR1'): a stale build, not a torn stream.
  bool stale() const { return Stale; }
  /// True if a frame prefix is buffered but incomplete (a torn tail if
  /// the peer is known dead).
  bool midFrame() const { return !Corrupt && Buf.size() != Pos; }
  /// Bytes buffered but not yet consumed as frames (flow-control input
  /// for servers deciding when a peer is flooding).
  std::size_t bufferedBytes() const { return Buf.size() - Pos; }

private:
  std::string Buf;
  std::size_t Pos = 0; ///< Consumed prefix (compacted lazily).
  bool Corrupt = false;
  bool Stale = false;
  std::uint64_t MaxFrame = MaxFrameBytes;
};

// --- Message body codecs (text first line + raw payload bytes). -------------

/// Per-job engine-option override blob. The batch supervisor never
/// sends one — its workers inherit a uniform BatchOptions at fork — but
/// the analysis daemon's workers serve heterogeneous requests, so each
/// Job frame may carry the result-shaping options (AnalysisOptions plus
/// the DBM-cell budget) to apply for that one job.
std::string encodeEngineOptions(const analysis::AnalysisOptions &Engine,
                                std::uint64_t MaxDbmCells);
bool decodeEngineOptions(const std::string &Blob,
                         analysis::AnalysisOptions &Engine,
                         std::uint64_t &MaxDbmCells);

/// \p EngineBlob, when non-empty, must be an encodeEngineOptions blob;
/// decodeJob hands it back for the worker to apply over its forked
/// defaults (empty = run with the defaults, the batch path).
std::string encodeJob(std::size_t Index, unsigned Attempt, const BatchJob &Job,
                      const std::string &EngineBlob = {});
bool decodeJob(const std::string &Body, std::size_t &Index,
               unsigned &Attempt, BatchJob &Job,
               std::string *EngineBlob = nullptr);

std::string encodeResult(std::size_t Index, bool Retryable,
                         const JobResult &R);
bool decodeResult(const std::string &Body, std::size_t &Index,
                  bool &Retryable, JobResult &R, std::string &Error);

} // namespace optoct::runtime::ipc

#endif // OPTOCT_RUNTIME_IPC_H
