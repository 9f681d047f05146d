//===- server/cache.cpp - Content-addressed invariant cache ---------------===//

#include "server/cache.h"

#include "runtime/journal.h"
#include "support/crc32c.h"
#include "support/faultinject.h"
#include "support/textcodec.h"

#include <cerrno>
#include <cstring>
#include <deque>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::server;

struct optoct::server::SnapshotImage {
  std::string_view Bytes;
  int Fd = -1; ///< The leased descriptor of a mapping; -1 for a buffer.
  std::unique_ptr<char[]> Buffer;

  SnapshotImage() = default;
  SnapshotImage(const SnapshotImage &) = delete;
  SnapshotImage &operator=(const SnapshotImage &) = delete;
  ~SnapshotImage() {
    if (Fd < 0)
      return;
    ::munmap(const_cast<char *>(Bytes.data()), Bytes.size());
    // Released outright: a descriptor a forked child still holds would
    // otherwise keep the lease, and the writer blocked.
    ::fcntl(Fd, F_SETLEASE, F_UNLCK);
    ::close(Fd);
  }
};

namespace {

using support::crc32c;
using support::hex64;
using support::parseHex64;
using support::parseU64;

constexpr const char *CacheMagic = "optoct-cache v5";
/// The formats before it, refused by name as stale rather than corrupt:
/// v1 checksummed records with FNV-1a 64; v2 holds records whose
/// num_closures counts the closures of the engine that joined before it
/// tested inclusion; v3 holds records whose num_closures also counts
/// the full closures that guards and stored widening iterates now skip;
/// v4 holds invariants listed component by component.
constexpr const char *StaleCacheMagics[] = {
    "optoct-cache v1", "optoct-cache v2", "optoct-cache v3",
    "optoct-cache v4"};

std::size_t entryCost(std::size_t RecordBytes) {
  return RecordBytes + InvariantCache::EntryOverheadBytes;
}

std::unique_ptr<char[]> copyOf(std::string_view Bytes) {
  std::unique_ptr<char[]> Copy(new char[Bytes.size()]);
  std::memcpy(Copy.get(), Bytes.data(), Bytes.size());
  return Copy;
}

/// "ent <key> <len> <sum>\n" then the record. The header is at most 59
/// bytes, inside EntryOverheadBytes, so a snapshot never exceeds the
/// magic line plus bytes().
void appendEntry(std::string &Out, std::uint64_t Key,
                 std::string_view Record) {
  Out += "ent ";
  Out += hex64(Key);
  Out += ' ';
  Out += std::to_string(Record.size());
  Out += ' ';
  Out += hex64(crc32c(Record.data(), Record.size()));
  Out += '\n';
  Out += Record;
}

bool isFieldSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

/// Splits off the next whitespace-delimited field of \p Line at \p Pos
/// into \p Field, as `istream >> std::string` does. False if none is left.
bool nextField(std::string_view Line, std::size_t &Pos, std::string &Field) {
  while (Pos != Line.size() && isFieldSpace(Line[Pos]))
    ++Pos;
  std::size_t Start = Pos;
  while (Pos != Line.size() && !isFieldSpace(Line[Pos]))
    ++Pos;
  Field.assign(Line.substr(Start, Pos - Start));
  return Pos != Start;
}

/// Opens the save() file at \p Path and takes its bytes: a leased,
/// populated, read-only mapping (see server/cache.h), or one buffer
/// filled by read() where the lease is refused or the file is smaller
/// than MapMinBytes. Null if the file cannot be opened: no snapshot yet.
std::shared_ptr<const SnapshotImage> openSnapshot(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return nullptr;
  auto FileSize = [Fd] {
    struct stat St;
    return ::fstat(Fd, &St) == 0 ? static_cast<std::size_t>(St.st_size) : 0;
  };
  auto Img = std::make_shared<SnapshotImage>();
  std::size_t Size = FileSize();
  if (Size >= InvariantCache::MapMinBytes &&
      ::fcntl(Fd, F_SETLEASE, F_RDLCK) == 0) {
    // Breaks are polled, not signalled: with no owner, no SIGIO. The
    // size is taken again under the lease, which a truncation must
    // break first.
    ::fcntl(Fd, F_SETOWN, 0);
    Size = FileSize();
    void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE | MAP_POPULATE,
                       Fd, 0);
    if (Map != MAP_FAILED) {
      ::madvise(Map, Size, MADV_DONTFORK);
      Img->Bytes = {static_cast<const char *>(Map), Size};
      Img->Fd = Fd;
      return Img;
    }
    ::fcntl(Fd, F_SETLEASE, F_UNLCK);
  }
  Img->Buffer.reset(new char[Size]);
  std::size_t Got = 0;
  while (Got != Size) {
    ssize_t N = ::read(Fd, Img->Buffer.get() + Got, Size - Got);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Got += static_cast<std::size_t>(N);
  }
  ::close(Fd);
  Img->Bytes = {Img->Buffer.get(), Got};
  return Img;
}

/// Parses the save() bytes \p Data, handing each checksum-verified
/// entry to \p OnEntry(Key, Record) in file order; Record views \p Data.
/// Salvage: a bad record stops the parse keeping the valid prefix
/// (true, with the reason and byte counts in \p S); only bad magic is
/// false.
template <typename EntryFn>
bool parseSnapshot(std::string_view Data, CacheLoadStats &S,
                   std::string &Error, EntryFn &&OnEntry) {
  const std::size_t Size = Data.size();
  std::size_t Nl = Data.find('\n');
  std::string_view Magic = Data.substr(0, Nl);
  if (Nl == std::string_view::npos || Magic != CacheMagic) {
    Error = "bad cache magic";
    for (const char *Stale : StaleCacheMagics)
      if (Nl != std::string_view::npos && Magic == Stale)
        Error = "stale cache snapshot (" + std::string(Magic) +
                ", this build reads v5)";
    S.BytesDiscarded = Size;
    return false;
  }
  std::size_t Pos = Nl + 1;
  auto Salvage = [&](const char *Why) {
    S.Corruption = Why;
    S.BytesKept = Pos;
    S.BytesDiscarded = Size - Pos;
    return true;
  };
  std::string KeyS, LenS, SumS;
  while (Pos < Size) {
    Nl = Data.find('\n', Pos);
    if (Nl == std::string_view::npos)
      return Salvage("torn entry header");
    std::string_view Line = Data.substr(Pos, Nl - Pos);
    if (Line.substr(0, 4) != "ent ")
      return Salvage("unrecognized entry line");
    std::size_t At = 4;
    std::uint64_t Key = 0, Len = 0, Sum = 0;
    if (!nextField(Line, At, KeyS) || !nextField(Line, At, LenS) ||
        !nextField(Line, At, SumS) || !parseHex64(KeyS, Key) ||
        !parseU64(LenS, Len) || !parseHex64(SumS, Sum))
      return Salvage("malformed entry header");
    std::size_t BodyStart = Nl + 1;
    if (Len > Size - BodyStart)
      return Salvage("truncated record body");
    std::string_view Record = Data.substr(BodyStart, Len);
    if (crc32c(Record.data(), Record.size()) != Sum)
      return Salvage("record checksum mismatch");
    Pos = BodyStart + Record.size();
    OnEntry(Key, Record);
    ++S.EntriesLoaded;
    S.BytesKept = Pos;
  }
  return true;
}

} // namespace

InvariantCache::InvariantCache(const InvariantCache &Other)
    : Lru(Other.Lru), Bytes(Other.Bytes), MaxBytes_(Other.MaxBytes_),
      Counters(Other.Counters), Snap(Other.Snap),
      SnapEntries(Other.SnapEntries), Dirty(Other.Dirty) {
  for (auto It = Lru.begin(); It != Lru.end(); ++It)
    Map.emplace(It->Key, It);
}

InvariantCache &InvariantCache::operator=(const InvariantCache &Other) {
  if (this != &Other)
    *this = InvariantCache(Other);
  return *this;
}

InvariantCache::Entry::Entry(const Entry &Other)
    : Key(Other.Key), Record(Other.Record) {
  if (Other.Owned) {
    Owned = copyOf(Other.Record);
    Record = {Owned.get(), Other.Record.size()};
  }
}

InvariantCache::Backing InvariantCache::backing() const {
  if (!Snap)
    return Backing::None;
  return Snap->Fd >= 0 ? Backing::Mapped : Backing::Buffer;
}

int InvariantCache::snapshotFd() const { return Snap ? Snap->Fd : -1; }

std::optional<std::string_view> InvariantCache::lookup(std::uint64_t Key) {
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Counters.Misses;
    return std::nullopt;
  }
  ++Counters.Hits;
  Lru.splice(Lru.begin(), Lru, It->second); // promote to hottest
  return It->second->Record;
}

bool InvariantCache::lookup(std::uint64_t Key, std::string &Record) {
  std::optional<std::string_view> Found = lookup(Key);
  if (Found)
    Record = *Found;
  return Found.has_value();
}

void InvariantCache::insert(std::uint64_t Key, std::string_view Record) {
  if (!fits(Record.size()))
    return; // cannot ever fit; not worth evicting the world for
  Dirty = true;
  // Copied first: Record may view the very record place() releases.
  std::unique_ptr<char[]> Copy = copyOf(Record);
  Entry &E = place(Key, Record.size());
  E.Record = {Copy.get(), Record.size()};
  E.Owned = std::move(Copy);
  evictToBudget();
}

InvariantCache::Entry &InvariantCache::place(std::uint64_t Key,
                                             std::size_t RecordBytes) {
  auto It = Map.find(Key);
  if (It != Map.end()) {
    // Same key, same canonical record (content addressing) — only the
    // recency changes. Replace anyway so a salvaged-but-stale disk
    // entry heals on the next cold run-through.
    Entry &E = *It->second;
    Bytes -= entryCost(E.Record.size());
    unview(E);
    E.Owned.reset();
    E.Record = {};
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Lru.emplace_front().Key = Key;
    Map.emplace(Key, Lru.begin());
    ++Counters.Insertions;
  }
  Bytes += entryCost(RecordBytes);
  return Lru.front();
}

void InvariantCache::unview(const Entry &E) {
  if (!E.Owned && --SnapEntries == 0)
    Snap.reset();
}

void InvariantCache::evictToBudget() {
  while (Bytes > MaxBytes_ && !Lru.empty()) {
    const Entry &Cold = Lru.back();
    Bytes -= entryCost(Cold.Record.size());
    unview(Cold);
    Map.erase(Cold.Key);
    Lru.pop_back();
    ++Counters.Evictions;
    Dirty = true;
  }
}

std::size_t InvariantCache::checkSnapshotLease() {
  if (!Snap || Snap->Fd < 0 || ::fcntl(Snap->Fd, F_GETLEASE) == F_RDLCK)
    return 0;
  std::size_t Dropped = 0;
  for (auto It = Lru.begin(); It != Lru.end();) {
    if (It->Owned) {
      ++It;
      continue;
    }
    Bytes -= entryCost(It->Record.size());
    Map.erase(It->Key);
    It = Lru.erase(It);
    ++Dropped;
    Dirty = true;
  }
  SnapEntries = 0;
  Snap.reset();
  return Dropped;
}

bool InvariantCache::save(const std::string &Path, std::string &Error) const {
  std::string Out;
  Out.reserve(std::strlen(CacheMagic) + 1 + Bytes);
  Out += CacheMagic;
  Out += '\n';
  // Cold to hot: load() inserts in file order and insertion promotes,
  // so the reloaded cache ends with the same recency ranking.
  for (auto It = Lru.rbegin(); It != Lru.rend(); ++It)
    appendEntry(Out, It->Key, It->Record);
  return runtime::writeFileAtomic(Path, Out, Error);
}

bool InvariantCache::load(const std::string &Path, std::string &Error,
                          CacheLoadStats *Stats) {
  Error.clear();
  CacheLoadStats Local;
  CacheLoadStats &S = Stats ? *Stats : Local;
  S = CacheLoadStats();
  std::shared_ptr<const SnapshotImage> Img = openSnapshot(Path);
  if (!Img)
    // No cache yet — a fresh daemon. Only an *unreadable existing* file
    // would be suspicious, and we cannot distinguish portably; treat
    // all open failures as cold start.
    return true;
  bool Usable = parseSnapshot(
      Img->Bytes, S, Error, [&](std::uint64_t Key, std::string_view Record) {
        if (Snap && Snap != Img)
          return insert(Key, Record);
        if (!fits(Record.size())) {
          Dirty = true;
          return;
        }
        Entry &E = place(Key, Record.size());
        // place() lets go of Snap with the last entry it replaces.
        if (!Snap) {
          Snap = Img;
          SnapEntries = 0;
        }
        E.Record = Record;
        ++SnapEntries;
        evictToBudget();
      });
  if (!Usable || !S.Corruption.empty())
    Dirty = true; // the file holds bytes a save would not write back
  return Usable;
}

bool InvariantCache::saveShared(const std::string &Path,
                                std::string &Error) const {
  // The lock rides a sidecar file: writeFileAtomic's rename swaps the
  // data file's *inode*, so an flock on the data file itself would
  // guard a corpse after the first save.
  std::string LockPath = Path + ".lock";
  int LockFd = ::open(LockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (LockFd < 0) {
    Error = "open " + LockPath + ": " + std::strerror(errno);
    return false;
  }
  if (::flock(LockFd, LOCK_EX) != 0) {
    Error = "flock " + LockPath + ": " + std::strerror(errno);
    ::close(LockFd);
    return false;
  }

  // Merge pass: entries a sibling replica persisted that we never saw
  // must survive our save. Our own keys are re-emitted from memory (at
  // least as fresh); foreign keys ride along under whatever headroom
  // our byte budget leaves, preferring the file's hot end: the longest
  // suffix of the file's foreign entries that fits, kept as we parse.
  // Bad magic or a torn tail just shrinks the merge set — a save must
  // never fail because a sibling's snapshot was damaged.
  const std::size_t Headroom = MaxBytes_ > Bytes ? MaxBytes_ - Bytes : 0;
  std::deque<std::pair<std::uint64_t, std::string_view>> Foreign; // OnDisk
  std::size_t ForeignBytes = 0;
  std::shared_ptr<const SnapshotImage> OnDisk = openSnapshot(Path);
  if (OnDisk) {
    CacheLoadStats S;
    std::string ReadError;
    parseSnapshot(OnDisk->Bytes, S, ReadError,
                  [&](std::uint64_t Key, std::string_view Record) {
                    if (Map.find(Key) != Map.end())
                      return;
                    ForeignBytes += entryCost(Record.size());
                    Foreign.emplace_back(Key, Record);
                    while (ForeignBytes > Headroom) {
                      ForeignBytes -= entryCost(Foreign.front().second.size());
                      Foreign.pop_front();
                    }
                  });
  }

  std::string Out;
  Out.reserve(std::strlen(CacheMagic) + 1 + ForeignBytes + Bytes);
  Out += CacheMagic;
  Out += '\n';
  // Foreign survivors first (they were colder), file order preserved;
  // then ours cold-to-hot, exactly as save() writes them.
  for (const auto &[Key, Record] : Foreign)
    appendEntry(Out, Key, Record);
  for (auto It = Lru.rbegin(); It != Lru.rend(); ++It)
    appendEntry(Out, It->Key, It->Record);

  // Crash-during-persist drill point: a kill here must leave the
  // previous snapshot intact (writeFileAtomic has not renamed yet).
  support::faultPoint("cache.persist");

  bool Ok = runtime::writeFileAtomic(Path, Out, Error);
  ::flock(LockFd, LOCK_UN);
  ::close(LockFd);
  return Ok;
}
