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
/// File format ("optoct-cache v5"; v1 was the same with FNV-1a 64
/// checksums, v2 and v3 the same with records whose num_closures an
/// older engine counted, v4 the same with invariants listed component
/// by component, and load() names each stale rather than corrupt):
///
///   optoct-cache v5
///   ent <key-hex16> <recordbytes> <crc32c-hex16>
///   <record bytes>
///   ent ...
///
/// load() does not copy the records. It opens the snapshot, takes a
/// read lease on it (F_SETLEASE F_RDLCK), maps it read-only and
/// populated, checks each record's CRC32C in place, and indexes the
/// entries as views into the mapping. The records then live in the page
/// cache, and a warm start allocates and faults in no memory for them.
/// A record inserted later is an owned copy. Copies of the cache share
/// the mapping, and it is unmapped when the last entry viewing it
/// leaves (evicted, replaced or dropped). Where the lease is refused
/// (another owner, an open writer, a filesystem without leases), or the
/// file is smaller than MapMinBytes, the same parser runs over one heap
/// buffer filled by read(), and the entries view that. saveShared()'s
/// merge pass reads through the same open-and-parse path.
///
/// The lease is what makes the mapping safe. Anyone who opens or
/// truncates the file for writing first breaks it, and blocks until the
/// holder lets go (or, after /proc/sys/fs/lease-break-time, the kernel
/// does); a non-blocking open fails with EAGAIN meanwhile. The lease has no owner (F_SETOWN 0), so the break raises no
/// signal; the holder polls checkSnapshotLease() instead (the daemon
/// once per runtime::PoolTickMs). On a pending break the cache drops
/// every entry viewing the mapping, unmaps it and releases the lease. So
/// a cache never serves a byte it did not verify, and a truncation can
/// never fault it with SIGBUS. Replace a live snapshot by rename, as
/// save() does: a rename breaks no lease.
///
/// Single-threaded by design: the daemon's event loop is the only
/// caller. The forked workers never see the cache. It lives in the
/// server process only, the daemon forks its first workers before it
/// loads the snapshot, the mapping is MADV_DONTFORK, and a worker forked
/// later closes snapshotFd().
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SERVER_CACHE_H
#define OPTOCT_SERVER_CACHE_H

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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

/// The bytes of one opened snapshot file (defined in cache.cpp).
struct SnapshotImage;

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

  /// Where the entries loaded from a snapshot live.
  enum class Backing {
    None,   ///< No loaded entry is left (or none was ever loaded).
    Mapped, ///< A leased read-only mapping of the snapshot file.
    Buffer, ///< One heap buffer the file was read into.
  };

  /// Snapshots smaller than this are read into a buffer, not mapped:
  /// for them the mapping and the lease cost more than they save, and a
  /// small file is the kind a process rewrites in place while it holds
  /// the cache (its own write would block on its own lease).
  static constexpr std::size_t MapMinBytes = 256u << 10;

  /// The cached record on a hit (the entry becomes most-recently-used),
  /// nullopt on a miss. Counts a hit or a miss either way. The bytes are
  /// the cache's own: valid until the next insert, load, lease check or
  /// copy-assign.
  std::optional<std::string_view> lookup(std::uint64_t Key);
  /// The same, copying the record into \p Record on a hit.
  bool lookup(std::uint64_t Key, std::string &Record);

  /// Inserts (a copy of) \p Record under \p Key, or refreshes it, then
  /// evicts cold entries until the byte budget holds. An over-budget
  /// record is dropped silently.
  void insert(std::uint64_t Key, std::string_view Record);

  std::size_t entries() const { return Map.size(); }
  std::size_t bytes() const { return Bytes; }
  std::size_t maxBytes() const { return MaxBytes_; }
  const CacheCounters &counters() const { return Counters; }
  Backing backing() const;
  /// The leased descriptor of the mapped snapshot, -1 if none. A forked
  /// child must close it.
  int snapshotFd() const;
  /// True once the entries may differ from the snapshot last loaded:
  /// insert, eviction, a lease-break drop, and a load that salvaged a
  /// prefix, skipped a record or discarded the file all set it. Lookups
  /// reorder recency only and leave it alone, so a daemon that served
  /// nothing but hits has no reason to rewrite its snapshot.
  bool dirty() const { return Dirty; }

  /// Polls the lease on the mapped snapshot. If a break is pending
  /// (someone opened or truncated the file for writing), drops every
  /// entry that views the mapping and lets go of it, and returns how
  /// many entries went. Returns 0 when nothing is mapped or the lease
  /// holds. A copy shares the mapping, so the lease is released only
  /// once every copy has polled, or has dropped its loaded entries.
  std::size_t checkSnapshotLease();

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
  /// cache snapshot ..." for a v1 or v2 file) — and even then the caller
  /// is expected to log and cold-start, not abort. The loaded entries view
  /// the file's bytes (see the file comment); a cache views one snapshot
  /// at a time, so a second load while entries of the first remain
  /// copies its records instead.
  bool load(const std::string &Path, std::string &Error,
            CacheLoadStats *Stats = nullptr);

private:
  struct Entry {
    std::uint64_t Key = 0;
    std::string_view Record;       ///< Into Owned, or into Snap's bytes.
    std::unique_ptr<char[]> Owned; ///< Null for a loaded record.

    Entry() = default;
    /// Copies an owned record; a loaded one stays a view.
    Entry(const Entry &Other);
    Entry &operator=(const Entry &) = delete;
  };

  bool fits(std::size_t RecordBytes) const {
    return RecordBytes + EntryOverheadBytes <= MaxBytes_;
  }
  /// The entry for \p Key, hottest and charged \p RecordBytes, with any
  /// record it held released; the caller stores the new record.
  Entry &place(std::uint64_t Key, std::size_t RecordBytes);
  /// Accounts for \p E leaving Snap's views; unmaps with the last one.
  void unview(const Entry &E);
  void evictToBudget();

  /// Front = hottest, back = coldest.
  std::list<Entry> Lru;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> Map;
  std::size_t Bytes = 0;
  std::size_t MaxBytes_ = 0;
  CacheCounters Counters;
  /// The snapshot the loaded entries view, shared with copies; null
  /// once no entry views it.
  std::shared_ptr<const SnapshotImage> Snap;
  std::size_t SnapEntries = 0; ///< Entries viewing Snap.
  bool Dirty = false;
};

} // namespace optoct::server

#endif // OPTOCT_SERVER_CACHE_H
