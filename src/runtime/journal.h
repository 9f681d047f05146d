//===- runtime/journal.h - Crash-safe batch checkpoint journal --*- C++ -*-===//
///
/// \file
/// Level 2 of the recovery ladder: an fsync'd, append-only journal of
/// completed batch jobs, so a SIGKILL'd or OOM-killed batch restarts
/// from the last good record instead of losing the whole run.
///
/// File format (text framing, binary-safe percent-escaped bodies):
///
///   optoct-journal v2
///   meta <fingerprint-hex> <jobcount>
///   rec <index> <bodybytes> <crc32c-hex16>
///   <body>
///   rec ...
///
/// Each `rec` line frames one serialized JobResult (serializeJobResult
/// below); the checksum (support/crc32c.h, zero-extended to 16 hex
/// digits) covers the body bytes. A v1 journal, the same format with
/// FNV-1a 64 checksums, is refused as stale by name, never salvaged.
/// Records are written with a single write(2) each and fsync'd before
/// the append returns, so after a crash the file is a valid prefix plus
/// at most one torn tail record — loadJournal keeps the prefix and
/// flags the tail, it never fails on truncation.
///
/// The fingerprint hashes the job names, sources, and the
/// result-shaping engine options: a journal can only resume the exact
/// batch that wrote it (same inputs => the merged report is
/// byte-identical, in canonical rendering, to an uninterrupted run).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_RUNTIME_JOURNAL_H
#define OPTOCT_RUNTIME_JOURNAL_H

#include "runtime/batch.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace optoct::runtime {

/// Identifies the (job set, result-shaping options) a journal belongs
/// to. Timing-only knobs (worker count, backoff, watchdog period) are
/// deliberately excluded: resuming on a different machine or with a
/// different --jobs value is valid.
std::uint64_t jobSetFingerprint(const std::vector<BatchJob> &Jobs,
                                const BatchOptions &Opts);

/// Lossless text serialization of one JobResult (the journal record
/// body; also the unit of the round-trip property tests).
std::string serializeJobResult(const JobResult &R);

/// Parses a record body; returns false with \p Error set on malformed
/// input (never throws, never crashes — journal bytes are untrusted
/// after a crash).
bool deserializeJobResult(const std::string &Text, JobResult &R,
                          std::string &Error);

/// Result of reading a journal file back.
struct JournalLoad {
  bool HeaderOk = false;        ///< Magic + meta line parsed.
  std::uint64_t Fingerprint = 0;
  std::size_t JobCount = 0;
  /// Valid records in file order (index, result). Duplicate indices are
  /// possible if a crash raced a retry wave; later records win.
  std::vector<std::pair<std::size_t, JobResult>> Records;
  /// Trailing bytes did not frame/checksum/parse as a record (the torn
  /// write of the crash). The prefix in Records is still good.
  bool TailCorrupt = false;
  /// Byte length of the valid prefix (header + whole records); resume
  /// truncates the file here before appending so new records never land
  /// after crash debris.
  std::size_t ValidBytes = 0;
  std::string Error; ///< Hard failure (unreadable file, bad magic).
};

/// Reads \p Path, salvaging the longest valid prefix. Only I/O-level
/// problems (missing file, bad or stale magic) set Error; torn tails
/// are normal crash debris and only set TailCorrupt.
JournalLoad loadJournal(const std::string &Path);

/// Append side. open() either starts a fresh journal (truncating) or
/// continues an existing one (resume); append() is thread-safe — batch
/// workers checkpoint jobs as they complete, in completion order.
class JournalWriter {
public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;

  /// Starts a fresh journal at \p Path: truncates, writes and fsyncs
  /// the header. Returns false with \p Error on I/O failure.
  bool open(const std::string &Path, std::uint64_t Fingerprint,
            std::size_t JobCount, std::string &Error);

  /// Continues an existing journal whose metadata the caller has
  /// already loaded and checked: truncates to \p KeepBytes (the load's
  /// ValidBytes — dropping any torn tail) and appends after it.
  bool openResume(const std::string &Path, std::size_t KeepBytes,
                  std::string &Error);

  /// Serializes, frames, writes (one write(2)), and fsyncs one record;
  /// then visits the "journal.append" fault point (the deterministic
  /// crash-at-checkpoint hook — the record is already durable when the
  /// injected crash fires). Returns false on I/O failure.
  bool append(std::size_t Index, const JobResult &R);

  bool isOpen() const { return Fd >= 0; }
  void close();

private:
  std::mutex Mu;
  int Fd = -1;
};

/// Writes \p Contents to \p Path atomically: temp file in the same
/// directory, fsync, rename over the target. Readers never observe a
/// half-written report.
bool writeFileAtomic(const std::string &Path, const std::string &Contents,
                     std::string &Error);

} // namespace optoct::runtime

#endif // OPTOCT_RUNTIME_JOURNAL_H
