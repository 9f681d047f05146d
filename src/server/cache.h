//===- server/cache.h - Content-addressed invariant cache -------*- C++ -*-===//
///
/// \file
/// The daemon's memo table: serialized JobResult records keyed by the
/// request fingerprint (server/protocol.h). Two requests with the same
/// program bytes and result-shaping options share a key, so the second
/// one replays the first one's record — byte-identical, because records
/// are canonicalized (timing zeroed) before insertion.
///
/// Eviction is LRU under a byte budget: each entry is charged its
/// record size plus a fixed bookkeeping overhead, and inserts evict
/// from the cold end until the budget holds. A record alone larger than
/// the whole budget is simply not cached.
///
/// Persistence reuses the journal's crash-safety idioms
/// (runtime/journal.h): save() renders every entry — cold to hot, so a
/// reload restores recency order — with per-record CRC32C checksums
/// (support/crc32c.h) and writes the file atomically (temp + fsync +
/// rename); load() salvages the longest valid prefix and treats
/// anything after the first bad record as a torn tail, never an error.
/// A daemon killed mid-save leaves either the old cache file or the new
/// one, nothing in between.
///
/// File format ("optoct-cache v2"; v1 was the same with FNV-1a 64
/// checksums, and load() names such a file stale rather than corrupt):
///
///   optoct-cache v2
///   ent <key-hex16> <recordbytes> <crc32c-hex16>
///   <record bytes>
///   ent ...
///
/// load() streams: it reads the file through a fixed buffer one entry
/// at a time, reads each record body straight into the string the cache
/// keeps, checks that record's checksum, and moves it in. No copy of the
/// whole file is held, so a warm start peaks at the cache's own bytes
/// plus the buffer. saveShared()'s merge pass reads through the same
/// streaming reader.
///
/// Single-threaded by design: the daemon's event loop is the only
/// caller. (The forked workers never see the cache — it lives in the
/// server process only, and the daemon forks its first workers before
/// it loads the snapshot.)
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_CACHE_H
#define OPTOCT_SERVER_CACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace optoct::server {

/// What InvariantCache::load found on disk — the daemon logs this so a
/// corrupt cache file is a visible event (with a cold or warm start),
/// never a silent one and never a fatal one.
struct CacheLoadStats {
  std::size_t EntriesLoaded = 0;   ///< Records inserted from the file.
  std::size_t BytesKept = 0;       ///< File bytes covered by them.
  std::size_t BytesDiscarded = 0;  ///< File bytes after the salvage stop.
  /// Empty on a clean load; otherwise why the salvage stopped
  /// ("record checksum mismatch", "truncated record body", ...).
  std::string Corruption;
};

/// Monotonic cache counters (never reset by eviction).
struct CacheCounters {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Insertions = 0;
  std::uint64_t Evictions = 0;
};

class InvariantCache {
public:
  /// Per-entry bookkeeping charge on top of the record bytes, so a
  /// million tiny records cannot hide from the byte budget.
  static constexpr std::size_t EntryOverheadBytes = 64;

  explicit InvariantCache(std::size_t MaxBytes = 64u << 20)
      : MaxBytes_(MaxBytes) {}
  /// A copy gets its own index: the entries' list positions are
  /// per-cache, so the index is rebuilt over the copied list.
  InvariantCache(const InvariantCache &Other);
  InvariantCache &operator=(const InvariantCache &Other);
  InvariantCache(InvariantCache &&) = default;
  InvariantCache &operator=(InvariantCache &&) = default;

  /// The cached record on a hit (the entry becomes most-recently-used),
  /// null on a miss. Counts a hit or a miss either way. The record is
  /// the cache's own: valid until the next insert, load or copy-assign.
  const std::string *lookup(std::uint64_t Key);
  /// The same, copying the record into \p Record on a hit.
  bool lookup(std::uint64_t Key, std::string &Record);

  /// Inserts or refreshes \p Key, then evicts cold entries until the
  /// byte budget holds. An over-budget record is dropped silently.
  void insert(std::uint64_t Key, const std::string &Record);
  /// The same, taking the record's bytes without copying them.
  void insert(std::uint64_t Key, std::string &&Record);

  std::size_t entries() const { return Map.size(); }
  std::size_t bytes() const { return Bytes; }
  std::size_t maxBytes() const { return MaxBytes_; }
  const CacheCounters &counters() const { return Counters; }

  /// Atomic whole-cache snapshot to \p Path (cold-to-hot order).
  bool save(const std::string &Path, std::string &Error) const;

  /// save() for a cache file shared between N daemons: takes an
  /// exclusive flock on "<Path>.lock" (a sidecar file, because the
  /// atomic rename replaces the data file's inode and any lock on it),
  /// re-reads whatever snapshot is on disk, and writes our entries
  /// *merged over* the foreign ones — entries persisted by sibling
  /// replicas that we never saw survive our save, trimmed cold-first to
  /// the byte budget. Crash-safety is save()'s: rename is atomic, so a
  /// reader (or a replica killed mid-save) sees the previous valid
  /// snapshot, never a torn one. The deterministic fault site
  /// "cache.persist" fires between the merge and the rename, for
  /// crash-during-persist tests.
  bool saveShared(const std::string &Path, std::string &Error) const;

  /// Loads a save() file into the current cache (entries insert in file
  /// order, restoring recency). A missing file is a fresh start (true);
  /// a bad record stops the load keeping the valid prefix (true, with
  /// the reason and discarded byte count in \p Stats); only an
  /// unreadable file or bad magic returns false with \p Error ("stale
  /// cache snapshot ..." for a v1 file) — and even then the caller is
  /// expected to log and cold-start, not abort.
  bool load(const std::string &Path, std::string &Error,
            CacheLoadStats *Stats = nullptr);

private:
  struct Entry {
    std::uint64_t Key = 0;
    std::string Record;
  };

  void evictToBudget();

  /// Front = hottest, back = coldest.
  std::list<Entry> Lru;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> Map;
  std::size_t Bytes = 0;
  std::size_t MaxBytes_ = 0;
  CacheCounters Counters;
};

} // namespace optoct::server

#endif // OPTOCT_SERVER_CACHE_H
