//===- runtime/journal.cpp - Crash-safe batch checkpoint journal ----------===//

#include "runtime/journal.h"

#include "support/crc32c.h"
#include "support/faultinject.h"
#include "support/fnv.h"
#include "support/textcodec.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace optoct::runtime;

namespace {

// Record checksums are CRC32C (support/crc32c.h), shared with the pipe
// framing (runtime/ipc.h) and the cache snapshot. The job-set
// fingerprint is a content address and keeps FNV-1a 64 (support/fnv.h).
using optoct::support::crc32c;
using optoct::support::fnv1a64;

constexpr const char *JournalMagic = "optoct-journal v5";
/// The formats before it, refused by name as stale rather than corrupt:
/// v1 checksummed records with FNV-1a 64; v2 holds records whose
/// num_closures counts the closures of the engine that joined before it
/// tested inclusion; v3 holds records whose num_closures also counts
/// the full closures that guards and stored widening iterates now skip;
/// v4 holds invariants listed component by component.
constexpr const char *StaleJournalMagics[] = {
    "optoct-journal v1", "optoct-journal v2", "optoct-journal v3",
    "optoct-journal v4"};

/// Mixes one string into a running fingerprint, length-prefixed so
/// ("ab","c") and ("a","bc") hash differently.
void fingerprintString(std::uint64_t &H, const std::string &S) {
  std::string Len = std::to_string(S.size()) + ":";
  H ^= fnv1a64(Len);
  H *= optoct::support::Fnv1a64Prime;
  H ^= fnv1a64(S);
  H *= optoct::support::Fnv1a64Prime;
}

/// Record bodies are line-oriented key-value text; values are
/// percent-escaped (support/textcodec.h) so embedded newlines, '%',
/// and control bytes are binary-safe within one line.
using optoct::support::percentEscape;
using optoct::support::percentUnescape;
const auto &escapeValue = percentEscape;
const auto &unescapeValue = percentUnescape;

// Numeric field codecs are shared with the daemon cache/protocol for
// the same one-implementation reason.
using optoct::support::formatDouble;
using optoct::support::hex64;
using optoct::support::parseHex64;
using optoct::support::parseU64;

bool parseI64(const std::string &S, long long &V) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  long long X = std::strtoll(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size())
    return false;
  V = X;
  return true;
}

bool statusFromName(const std::string &S, JobStatus &Out) {
  if (S == "ok")
    Out = JobStatus::Ok;
  else if (S == "degraded")
    Out = JobStatus::Degraded;
  else if (S == "failed")
    Out = JobStatus::Failed;
  else if (S == "timeout")
    Out = JobStatus::Timeout;
  else if (S == "crashed")
    Out = JobStatus::Crashed;
  else
    return false;
  return true;
}

/// Retries a write(2) across EINTR/short writes. One logical record is
/// one call site, so a crash tears at most the final record.
bool writeAll(int Fd, const char *Data, std::size_t Len) {
  while (Len != 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<std::size_t>(N);
  }
  return true;
}

std::string errnoString(const char *What) {
  return std::string(What) + ": " + std::strerror(errno);
}

} // namespace

std::uint64_t
optoct::runtime::jobSetFingerprint(const std::vector<BatchJob> &Jobs,
                                   const BatchOptions &Opts) {
  std::uint64_t H = optoct::support::Fnv1a64Offset;
  fingerprintString(H, "optoct-journal-fp-v1");
  fingerprintString(H, std::to_string(Jobs.size()));
  for (const BatchJob &J : Jobs) {
    fingerprintString(H, J.Name);
    fingerprintString(H, J.Source);
  }
  // Result-shaping options only: engine knobs, fuel budgets, and
  // invariant capture change what a record contains; worker count,
  // backoff, watchdog period, and the deadline (wall-clock, so already
  // nondeterministic) do not.
  fingerprintString(H, std::to_string(Opts.Engine.WideningDelay));
  fingerprintString(H, std::to_string(Opts.Engine.NarrowingPasses));
  fingerprintString(H, std::to_string(Opts.Engine.MaxBlockVisits));
  fingerprintString(H, Opts.Engine.LinearizeGuards ? "1" : "0");
  for (double T : Opts.Engine.WideningThresholds)
    fingerprintString(H, formatDouble(T));
  fingerprintString(H, Opts.CaptureInvariants ? "1" : "0");
  fingerprintString(H, std::to_string(Opts.Budget.MaxDbmCells));
  return H;
}

std::string optoct::runtime::serializeJobResult(const JobResult &R) {
  std::ostringstream Out;
  Out << "name " << escapeValue(R.Name) << "\n";
  Out << "ok " << (R.Ok ? 1 : 0) << "\n";
  Out << "status " << jobStatusName(R.Status) << "\n";
  Out << "attempts " << R.Attempts << "\n";
  if (!R.Error.empty())
    Out << "error " << escapeValue(R.Error) << "\n";
  if (!R.Detail.empty())
    Out << "detail " << escapeValue(R.Detail) << "\n";
  for (const std::string &L : R.FailureLog)
    Out << "flog " << escapeValue(L) << "\n";
  Out << "asserts " << R.AssertsProven << " " << R.AssertsTotal << "\n";
  for (int Line : R.UnprovenAssertLines)
    Out << "uline " << Line << "\n";
  for (const std::string &Inv : R.LoopInvariants)
    Out << "inv " << escapeValue(Inv) << "\n";
  Out << "counters " << R.NumClosures << " " << R.ClosureCycles << " "
      << R.OctagonCycles << " " << R.BlockVisits << " " << R.NMin << " "
      << R.NMax;
  // The incremental closure count trails only when set, so a
  // canonicalized record, which zeroes it, keeps its six counters.
  if (R.IncrementalClosures != 0)
    Out << " " << R.IncrementalClosures;
  Out << "\n";
  Out << "wall " << formatDouble(R.WallSeconds) << "\n";
  Out << "audit " << R.AuditValidations << " " << R.AuditCrossChecks << " "
      << R.AuditIncidentCount << "\n";
  for (const std::string &I : R.AuditIncidents)
    Out << "ainc " << escapeValue(I) << "\n";
  return Out.str();
}

bool optoct::runtime::deserializeJobResult(const std::string &Text,
                                           JobResult &R, std::string &Error) {
  R = JobResult();
  bool SawName = false, SawStatus = false;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::size_t Sp = Line.find(' ');
    std::string Key = Line.substr(0, Sp);
    std::string Rest = Sp == std::string::npos ? std::string() : Line.substr(Sp + 1);
    auto Fail = [&](const char *Why) {
      Error = "record field '" + Key + "': " + Why;
      return false;
    };
    std::uint64_t U = 0;
    if (Key == "name") {
      if (!unescapeValue(Rest, R.Name))
        return Fail("bad escape");
      SawName = true;
    } else if (Key == "ok") {
      if (Rest != "0" && Rest != "1")
        return Fail("not a flag");
      R.Ok = Rest == "1";
    } else if (Key == "status") {
      if (!statusFromName(Rest, R.Status))
        return Fail("unknown status");
      SawStatus = true;
    } else if (Key == "attempts") {
      if (!parseU64(Rest, U))
        return Fail("not a number");
      R.Attempts = static_cast<unsigned>(U);
    } else if (Key == "error") {
      if (!unescapeValue(Rest, R.Error))
        return Fail("bad escape");
    } else if (Key == "detail") {
      if (!unescapeValue(Rest, R.Detail))
        return Fail("bad escape");
    } else if (Key == "flog") {
      std::string V;
      if (!unescapeValue(Rest, V))
        return Fail("bad escape");
      R.FailureLog.push_back(std::move(V));
    } else if (Key == "asserts") {
      std::istringstream F(Rest);
      if (!(F >> R.AssertsProven >> R.AssertsTotal))
        return Fail("expected two counts");
    } else if (Key == "uline") {
      long long V = 0;
      if (!parseI64(Rest, V))
        return Fail("not a number");
      R.UnprovenAssertLines.push_back(static_cast<int>(V));
    } else if (Key == "inv") {
      std::string V;
      if (!unescapeValue(Rest, V))
        return Fail("bad escape");
      R.LoopInvariants.push_back(std::move(V));
    } else if (Key == "counters") {
      std::istringstream F(Rest);
      if (!(F >> R.NumClosures >> R.ClosureCycles >> R.OctagonCycles >>
            R.BlockVisits >> R.NMin >> R.NMax))
        return Fail("expected six or seven counters");
      if (!(F >> std::ws).eof() &&
          (!(F >> R.IncrementalClosures) || !(F >> std::ws).eof()))
        return Fail("expected six or seven counters");
    } else if (Key == "wall") {
      errno = 0;
      char *End = nullptr;
      R.WallSeconds = std::strtod(Rest.c_str(), &End);
      if (errno != 0 || End != Rest.c_str() + Rest.size() || Rest.empty())
        return Fail("not a double");
    } else if (Key == "audit") {
      std::istringstream F(Rest);
      if (!(F >> R.AuditValidations >> R.AuditCrossChecks >>
            R.AuditIncidentCount))
        return Fail("expected three counters");
    } else if (Key == "ainc") {
      std::string V;
      if (!unescapeValue(Rest, V))
        return Fail("bad escape");
      R.AuditIncidents.push_back(std::move(V));
    } else {
      // Unknown keys are corruption, not forward compatibility: the
      // format version lives in the journal header.
      return Fail("unknown key");
    }
  }
  if (!SawName || !SawStatus) {
    Error = "record missing required fields";
    return false;
  }
  return true;
}

JournalLoad optoct::runtime::loadJournal(const std::string &Path) {
  JournalLoad L;
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    L.Error = "cannot open journal: " + Path;
    return L;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Bytes = Buf.str();

  std::size_t Pos = 0;
  auto NextLine = [&](std::string &Line) -> bool {
    std::size_t Nl = Bytes.find('\n', Pos);
    if (Nl == std::string::npos)
      return false; // no terminator => torn line, not a valid line
    Line = Bytes.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  };

  std::string Line;
  if (!NextLine(Line) || Line != JournalMagic) {
    L.Error = "bad journal magic";
    for (const char *Stale : StaleJournalMagics)
      if (Line == Stale)
        L.Error = "stale journal (" + Line +
                  ", this build reads v5); rerun without --resume";
    return L;
  }
  if (!NextLine(Line) || Line.rfind("meta ", 0) != 0) {
    L.Error = "missing journal meta line";
    return L;
  }
  {
    std::istringstream Meta(Line.substr(5));
    std::string FpHex, Count;
    if (!(Meta >> FpHex >> Count) || !parseHex64(FpHex, L.Fingerprint)) {
      L.Error = "bad journal meta line";
      return L;
    }
    std::uint64_t JobCount = 0;
    if (!parseU64(Count, JobCount)) {
      L.Error = "bad journal meta line";
      return L;
    }
    L.JobCount = static_cast<std::size_t>(JobCount);
  }
  L.HeaderOk = true;
  L.ValidBytes = Pos;

  // Records: keep every fully valid one; the first framing, checksum,
  // or parse failure ends the salvage (crash debris, not an error).
  while (Pos < Bytes.size()) {
    std::size_t RecStart = Pos;
    if (!NextLine(Line) || Line.rfind("rec ", 0) != 0) {
      L.TailCorrupt = true;
      break;
    }
    std::uint64_t Index = 0, BodyLen = 0, Sum = 0;
    {
      std::istringstream F(Line.substr(4));
      std::string IdxS, LenS, SumS;
      if (!(F >> IdxS >> LenS >> SumS) || !parseU64(IdxS, Index) ||
          !parseU64(LenS, BodyLen) || !parseHex64(SumS, Sum)) {
        L.TailCorrupt = true;
        Pos = RecStart;
        break;
      }
    }
    if (BodyLen > Bytes.size() - Pos ||
        Pos + BodyLen >= Bytes.size() /* need trailing '\n' too */ ||
        Bytes[Pos + BodyLen] != '\n') {
      L.TailCorrupt = true;
      Pos = RecStart;
      break;
    }
    std::string Body = Bytes.substr(Pos, static_cast<std::size_t>(BodyLen));
    Pos += static_cast<std::size_t>(BodyLen) + 1;
    if (crc32c(Body) != Sum) {
      L.TailCorrupt = true;
      Pos = RecStart;
      break;
    }
    JobResult R;
    std::string ParseError;
    if (!deserializeJobResult(Body, R, ParseError)) {
      L.TailCorrupt = true;
      Pos = RecStart;
      break;
    }
    L.Records.emplace_back(static_cast<std::size_t>(Index), std::move(R));
    L.ValidBytes = Pos;
  }
  if (!L.TailCorrupt && Pos != Bytes.size())
    L.TailCorrupt = true; // unreachable, but keep the invariant explicit
  return L;
}

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool JournalWriter::open(const std::string &Path, std::uint64_t Fingerprint,
                         std::size_t JobCount, std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0) {
    Error = "journal already open";
    return false;
  }
  Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Error = errnoString("open journal");
    return false;
  }
  std::string Header = std::string(JournalMagic) + "\nmeta " +
                       hex64(Fingerprint) + " " + std::to_string(JobCount) +
                       "\n";
  if (!writeAll(Fd, Header.data(), Header.size()) || ::fsync(Fd) != 0) {
    Error = errnoString("write journal header");
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool JournalWriter::openResume(const std::string &Path, std::size_t KeepBytes,
                               std::string &Error) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Fd >= 0) {
    Error = "journal already open";
    return false;
  }
  Fd = ::open(Path.c_str(), O_WRONLY, 0644);
  if (Fd < 0) {
    Error = errnoString("open journal");
    return false;
  }
  if (::ftruncate(Fd, static_cast<off_t>(KeepBytes)) != 0 ||
      ::lseek(Fd, 0, SEEK_END) < 0 || ::fsync(Fd) != 0) {
    Error = errnoString("truncate journal tail");
    ::close(Fd);
    Fd = -1;
    return false;
  }
  return true;
}

bool JournalWriter::append(std::size_t Index, const JobResult &R) {
  std::string Body = serializeJobResult(R);
  std::string Frame = "rec " + std::to_string(Index) + " " +
                      std::to_string(Body.size()) + " " + hex64(crc32c(Body)) +
                      "\n" + Body + "\n";
  bool Ok;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Fd < 0)
      return false;
    Ok = writeAll(Fd, Frame.data(), Frame.size()) && ::fsync(Fd) == 0;
  }
  // The crash-at-checkpoint fault site sits *after* durability: an
  // injected crash here models dying between a completed checkpoint and
  // the next job, the worst honest place to die.
  support::faultPoint("journal.append");
  return Ok;
}

bool optoct::runtime::writeFileAtomic(const std::string &Path,
                                      const std::string &Contents,
                                      std::string &Error) {
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0) {
    Error = errnoString("open temp file");
    return false;
  }
  if (!writeAll(Fd, Contents.data(), Contents.size()) || ::fsync(Fd) != 0) {
    Error = errnoString("write temp file");
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return false;
  }
  ::close(Fd);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error = errnoString("rename into place");
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}
