//===- server/cache.cpp - Content-addressed invariant cache ---------------===//

#include "server/cache.h"

#include "runtime/journal.h"
#include "support/faultinject.h"
#include "support/fnv.h"
#include "support/textcodec.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::server;

namespace {

using support::fnv1a64;
using support::hex64;
using support::parseHex64;
using support::parseU64;

constexpr const char *CacheMagic = "optoct-cache v1";

std::size_t entryCost(const std::string &Record) {
  return Record.size() + InvariantCache::EntryOverheadBytes;
}

/// "ent <key> <len> <sum>\n" then the record. The header is at most 59
/// bytes, inside EntryOverheadBytes, so a snapshot never exceeds the
/// magic line plus bytes().
void appendEntry(std::string &Out, std::uint64_t Key,
                 const std::string &Record) {
  Out += "ent ";
  Out += hex64(Key);
  Out += ' ';
  Out += std::to_string(Record.size());
  Out += ' ';
  Out += hex64(fnv1a64(Record));
  Out += '\n';
  Out += Record;
}

/// Buffered sequential reads from a file descriptor it owns.
class FileReader {
public:
  explicit FileReader(int Fd) : Fd(Fd), Buf(BufBytes) {}
  ~FileReader() { ::close(Fd); }
  FileReader(const FileReader &) = delete;
  FileReader &operator=(const FileReader &) = delete;

  /// Replaces \p Line with the bytes up to the next '\n' and consumes
  /// the newline. Stores at most \p Keep bytes of the line but always
  /// consumes all of it. False if the file ends first.
  bool readLine(std::string &Line, std::size_t Keep) {
    Line.clear();
    for (;;) {
      if (Pos == End && !fill())
        return false;
      const char *Start = Buf.data() + Pos;
      const char *Nl =
          static_cast<const char *>(std::memchr(Start, '\n', End - Pos));
      std::size_t Len = Nl ? static_cast<std::size_t>(Nl - Start) : End - Pos;
      Line.append(Start, std::min(Len, Keep - Line.size()));
      Pos += Len;
      if (Nl) {
        ++Pos;
        return true;
      }
    }
  }

  /// Reads \p Len bytes into \p Dst; reads past the buffer go straight
  /// to \p Dst. False if the file ends first.
  bool read(char *Dst, std::size_t Len) {
    std::size_t Take = std::min(Len, End - Pos);
    std::memcpy(Dst, Buf.data() + Pos, Take);
    Pos += Take;
    for (std::size_t Got = Take; Got != Len;) {
      ssize_t N = ::read(Fd, Dst + Got, Len - Got);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Got += static_cast<std::size_t>(N);
    }
    return true;
  }

private:
  static constexpr std::size_t BufBytes = 64u << 10;

  bool fill() {
    ssize_t N;
    do
      N = ::read(Fd, Buf.data(), Buf.size());
    while (N < 0 && errno == EINTR);
    Pos = 0;
    End = N > 0 ? static_cast<std::size_t>(N) : 0;
    return End != 0;
  }

  int Fd;
  std::vector<char> Buf;
  std::size_t Pos = 0, End = 0;
};

bool isFieldSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

/// Splits off the next whitespace-delimited field of \p Line at \p Pos
/// into \p Field, as `istream >> std::string` does. False if none is left.
bool nextField(const std::string &Line, std::size_t &Pos, std::string &Field) {
  while (Pos != Line.size() && isFieldSpace(Line[Pos]))
    ++Pos;
  std::size_t Start = Pos;
  while (Pos != Line.size() && !isFieldSpace(Line[Pos]))
    ++Pos;
  Field.assign(Line, Start, Pos - Start);
  return Pos != Start;
}

/// Streams the save() file at \p Path one entry at a time, handing
/// each checksum-verified entry to \p OnEntry(Key, std::string &&) in
/// file order. Only the read buffer and the current entry are held; no
/// copy of the whole file ever exists. The header line is kept whole
/// (it ends at the first newline, so in a sound file it is tiny).
/// Salvage: a bad record stops the read keeping the valid prefix (true,
/// with the reason and byte counts in \p S); only bad magic is false. A
/// file that cannot be opened reads as empty: no snapshot yet.
template <typename EntryFn>
bool readSnapshot(const std::string &Path, CacheLoadStats &S,
                  std::string &Error, EntryFn &&OnEntry) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    // No cache yet — a fresh daemon. Only an *unreadable existing* file
    // would be suspicious, and we cannot distinguish portably; treat
    // all open failures as cold start.
    return true;
  FileReader In(Fd);
  struct stat St;
  std::uint64_t Size =
      ::fstat(Fd, &St) == 0 ? static_cast<std::uint64_t>(St.st_size) : 0;

  std::string Line;
  const std::size_t MagicLen = std::strlen(CacheMagic);
  // One byte past the magic is enough to tell a longer line apart.
  if (!In.readLine(Line, MagicLen + 1) || Line != CacheMagic) {
    Error = "bad cache magic";
    S.BytesDiscarded = Size;
    return false;
  }
  std::uint64_t Pos = MagicLen + 1;
  auto Salvage = [&](const char *Why) {
    S.Corruption = Why;
    S.BytesKept = Pos;
    S.BytesDiscarded = Size - Pos;
    return true;
  };
  std::string KeyS, LenS, SumS;
  while (Pos < Size) {
    if (!In.readLine(Line, std::string::npos))
      return Salvage("torn entry header");
    if (Line.rfind("ent ", 0) != 0)
      return Salvage("unrecognized entry line");
    std::size_t At = 4;
    std::uint64_t Key = 0, Len = 0, Sum = 0;
    if (!nextField(Line, At, KeyS) || !nextField(Line, At, LenS) ||
        !nextField(Line, At, SumS) || !parseHex64(KeyS, Key) ||
        !parseU64(LenS, Len) || !parseHex64(SumS, Sum))
      return Salvage("malformed entry header");
    std::uint64_t BodyStart = Pos + Line.size() + 1;
    if (BodyStart > Size || Len > Size - BodyStart)
      return Salvage("truncated record body");
    std::string Record(static_cast<std::size_t>(Len), '\0');
    if (!In.read(Record.data(), Record.size()))
      return Salvage("truncated record body");
    if (fnv1a64(Record) != Sum)
      return Salvage("record checksum mismatch");
    Pos = BodyStart + Len;
    OnEntry(Key, std::move(Record));
    ++S.EntriesLoaded;
    S.BytesKept = Pos;
  }
  return true;
}

} // namespace

InvariantCache::InvariantCache(const InvariantCache &Other)
    : Lru(Other.Lru), Bytes(Other.Bytes), MaxBytes_(Other.MaxBytes_),
      Counters(Other.Counters) {
  for (auto It = Lru.begin(); It != Lru.end(); ++It)
    Map.emplace(It->Key, It);
}

InvariantCache &InvariantCache::operator=(const InvariantCache &Other) {
  if (this != &Other)
    *this = InvariantCache(Other);
  return *this;
}

bool InvariantCache::lookup(std::uint64_t Key, std::string &Record) {
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++Counters.Misses;
    return false;
  }
  ++Counters.Hits;
  Lru.splice(Lru.begin(), Lru, It->second); // promote to hottest
  Record = It->second->Record;
  return true;
}

void InvariantCache::insert(std::uint64_t Key, const std::string &Record) {
  insert(Key, std::string(Record));
}

void InvariantCache::insert(std::uint64_t Key, std::string &&Record) {
  if (entryCost(Record) > MaxBytes_)
    return; // cannot ever fit; not worth evicting the world for
  auto It = Map.find(Key);
  if (It != Map.end()) {
    // Same key, same canonical record (content addressing) — only the
    // recency changes. Replace anyway so a salvaged-but-stale disk
    // entry heals on the next cold run-through.
    Bytes -= entryCost(It->second->Record);
    Bytes += entryCost(Record);
    It->second->Record = std::move(Record);
    Lru.splice(Lru.begin(), Lru, It->second);
  } else {
    Bytes += entryCost(Record);
    Lru.push_front(Entry{Key, std::move(Record)});
    Map.emplace(Key, Lru.begin());
    ++Counters.Insertions;
  }
  evictToBudget();
}

void InvariantCache::evictToBudget() {
  while (Bytes > MaxBytes_ && !Lru.empty()) {
    const Entry &Cold = Lru.back();
    Bytes -= entryCost(Cold.Record);
    Map.erase(Cold.Key);
    Lru.pop_back();
    ++Counters.Evictions;
  }
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
  return readSnapshot(Path, S, Error,
                      [this](std::uint64_t Key, std::string &&Record) {
                        insert(Key, std::move(Record));
                      });
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
  // suffix of the file's foreign entries that fits, kept as we stream.
  // Bad magic or a torn tail just shrinks the merge set — a save must
  // never fail because a sibling's snapshot was damaged.
  const std::size_t Headroom = MaxBytes_ > Bytes ? MaxBytes_ - Bytes : 0;
  std::deque<Entry> Foreign;
  std::size_t ForeignBytes = 0;
  CacheLoadStats S;
  std::string ReadError;
  readSnapshot(Path, S, ReadError,
               [&](std::uint64_t Key, std::string &&Record) {
                 if (Map.find(Key) != Map.end())
                   return;
                 ForeignBytes += entryCost(Record);
                 Foreign.push_back(Entry{Key, std::move(Record)});
                 while (ForeignBytes > Headroom) {
                   ForeignBytes -= entryCost(Foreign.front().Record);
                   Foreign.pop_front();
                 }
               });

  std::string Out;
  Out.reserve(std::strlen(CacheMagic) + 1 + ForeignBytes + Bytes);
  Out += CacheMagic;
  Out += '\n';
  // Foreign survivors first (they were colder), file order preserved;
  // then ours cold-to-hot, exactly as save() writes them.
  for (const Entry &E : Foreign)
    appendEntry(Out, E.Key, E.Record);
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
