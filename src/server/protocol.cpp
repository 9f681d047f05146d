//===- server/protocol.cpp - Daemon request/response bodies ---------------===//

#include "server/protocol.h"

#include "runtime/journal.h"
#include "support/textcodec.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <sstream>

using namespace optoct;
using namespace optoct::server;

namespace {

using support::appendPercentEscaped;
using support::formatDouble;
using support::hex64;
using support::parseHex64;
using support::parseU64;
using support::percentEscape;
using support::percentUnescape;

/// Splits "key value" ("value" may contain spaces; only the first space
/// separates). Returns false on a keyless line.
bool splitKeyValue(const std::string &Line, std::string &Key,
                   std::string &Val) {
  std::size_t Sp = Line.find(' ');
  if (Sp == std::string::npos || Sp == 0)
    return false;
  Key = Line.substr(0, Sp);
  Val = Line.substr(Sp + 1);
  return true;
}

/// Iterates body lines after the tag line, calling \p OnField for each
/// "key value" until the closing "end". Returns false (with \p Error)
/// on a structural violation: missing "end", keyless line, or a field
/// handler rejecting its value.
template <typename Fn>
bool forEachField(const std::string &Body, std::size_t Pos, Fn OnField,
                  std::string &Error) {
  while (Pos < Body.size()) {
    std::size_t Nl = Body.find('\n', Pos);
    std::string Line = Nl == std::string::npos ? Body.substr(Pos)
                                               : Body.substr(Pos, Nl - Pos);
    Pos = Nl == std::string::npos ? Body.size() : Nl + 1;
    if (Line.empty())
      continue;
    if (Line == "end")
      return true;
    std::string Key, Val;
    if (!splitKeyValue(Line, Key, Val)) {
      Error = "malformed line: " + Line.substr(0, 64);
      return false;
    }
    if (!OnField(Key, Val)) {
      if (Error.empty())
        Error = "bad value for field: " + Key;
      return false;
    }
  }
  Error = "missing end line";
  return false;
}

/// Parses a tag line "<tag> <id>\n", returning the offset past it, or
/// npos if the tag does not match.
std::size_t parseTagLine(const std::string &Body, const char *Tag,
                         std::uint64_t &Id) {
  std::string Prefix = std::string(Tag) + " ";
  if (Body.rfind(Prefix, 0) != 0)
    return std::string::npos;
  std::size_t Nl = Body.find('\n');
  if (Nl == std::string::npos)
    return std::string::npos;
  if (!parseU64(Body.substr(Prefix.size(), Nl - Prefix.size()), Id))
    return std::string::npos;
  return Nl + 1;
}

bool parseBool01(const std::string &Val, bool &Out) {
  if (Val != "0" && Val != "1")
    return false;
  Out = Val == "1";
  return true;
}

bool parseDoubleStrict(const std::string &Val, double &Out) {
  if (Val.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  double D = std::strtod(Val.c_str(), &End);
  if (errno != 0 || End != Val.c_str() + Val.size())
    return false;
  Out = D;
  return true;
}

} // namespace

std::string optoct::server::encodeHello(std::uint32_t Version) {
  return "helo " + std::to_string(Version) + "\nend\n";
}

bool optoct::server::decodeHello(const std::string &Body,
                                 std::uint32_t &Version) {
  std::uint64_t V = 0;
  if (parseTagLine(Body, "helo", V) == std::string::npos ||
      V > 0xffffffffull)
    return false;
  Version = static_cast<std::uint32_t>(V);
  return true;
}

RequestKind optoct::server::peekRequestKind(const std::string &Body) {
  if (Body.rfind("areq ", 0) == 0)
    return RequestKind::Analyze;
  if (Body.rfind("sreq ", 0) == 0)
    return RequestKind::Stats;
  return RequestKind::Invalid;
}

std::string optoct::server::encodeAnalyzeRequest(const AnalyzeRequest &R) {
  std::ostringstream Out;
  Out << "areq " << R.Id << "\n";
  Out << "name " << percentEscape(R.Job.Name) << "\n";
  Out << "source " << percentEscape(R.Job.Source) << "\n";
  Out << "wdelay " << R.Engine.WideningDelay << "\n";
  Out << "narrow " << R.Engine.NarrowingPasses << "\n";
  Out << "maxvisits " << R.Engine.MaxBlockVisits << "\n";
  Out << "linearize " << (R.Engine.LinearizeGuards ? 1 : 0) << "\n";
  for (double T : R.Engine.WideningThresholds)
    Out << "thr " << formatDouble(T) << "\n";
  Out << "maxcells " << R.MaxDbmCells << "\n";
  Out << "nocache " << (R.NoCache ? 1 : 0) << "\n";
  Out << "end\n";
  return Out.str();
}

bool optoct::server::decodeAnalyzeRequest(const std::string &Body,
                                          AnalyzeRequest &R,
                                          std::string &Error) {
  R = AnalyzeRequest();
  Error.clear();
  std::size_t Pos = parseTagLine(Body, "areq", R.Id);
  if (Pos == std::string::npos) {
    Error = "malformed areq tag line";
    return false;
  }
  bool HaveName = false, HaveSource = false;
  R.Engine.WideningThresholds.clear();
  bool FieldsOk = forEachField(
      Body, Pos,
      [&](const std::string &Key, const std::string &Val) {
        std::uint64_t U = 0;
        if (Key == "name") {
          HaveName = true;
          return percentUnescape(Val, R.Job.Name);
        }
        if (Key == "source") {
          HaveSource = true;
          return percentUnescape(Val, R.Job.Source);
        }
        if (Key == "wdelay") {
          if (!parseU64(Val, U))
            return false;
          R.Engine.WideningDelay = static_cast<unsigned>(U);
          return true;
        }
        if (Key == "narrow") {
          if (!parseU64(Val, U))
            return false;
          R.Engine.NarrowingPasses = static_cast<unsigned>(U);
          return true;
        }
        if (Key == "maxvisits") {
          if (!parseU64(Val, U))
            return false;
          R.Engine.MaxBlockVisits = static_cast<unsigned>(U);
          return true;
        }
        if (Key == "linearize")
          return parseBool01(Val, R.Engine.LinearizeGuards);
        if (Key == "thr") {
          double T = 0;
          if (!parseDoubleStrict(Val, T))
            return false;
          R.Engine.WideningThresholds.push_back(T);
          return true;
        }
        if (Key == "maxcells")
          return parseU64(Val, R.MaxDbmCells);
        if (Key == "nocache")
          return parseBool01(Val, R.NoCache);
        return true; // unknown key: forward compatibility
      },
      Error);
  if (!FieldsOk)
    return false;
  if (!HaveName || !HaveSource) {
    Error = "missing required field: name/source";
    return false;
  }
  return true;
}

std::string optoct::server::encodeStatsRequest(std::uint64_t Id) {
  return "sreq " + std::to_string(Id) + "\nend\n";
}

bool optoct::server::decodeStatsRequest(const std::string &Body,
                                        std::uint64_t &Id) {
  return parseTagLine(Body, "sreq", Id) != std::string::npos;
}

std::string optoct::server::encodeAnalyzeResponse(const AnalyzeResponse &R) {
  std::string Out;
  appendAnalyzeResponse(Out, R);
  return Out;
}

void optoct::server::appendAnalyzeResponse(std::string &Out,
                                           const AnalyzeResponse &R,
                                           const std::string *Record) {
  const std::string &Payload =
      R.Ok ? (Record ? *Record : R.ResultRecord) : R.Error;
  // The fixed lines plus the payload with room for an escape (two extra
  // bytes) every 16 bytes, more than a record has, so a reply is built
  // in at most one allocation. Growth stays geometric when \p Out holds
  // earlier replies still unsent.
  std::size_t Need = Out.size() + 96 + Payload.size() + Payload.size() / 8;
  if (Need > Out.capacity())
    Out.reserve(std::max(Need, 2 * Out.capacity()));
  Out += "ares ";
  Out += std::to_string(R.Id);
  Out += "\noutcome ";
  Out += R.Ok ? "ok" : (R.Overloaded ? "overloaded" : "rejected");
  Out += "\ncached ";
  Out += R.Cached ? '1' : '0';
  Out += "\nkey ";
  Out += hex64(R.Key);
  Out += '\n';
  if (R.Overloaded) {
    Out += "retry_ms ";
    Out += std::to_string(R.RetryMs);
    Out += '\n';
  }
  Out += R.Ok ? "result " : "error ";
  appendPercentEscaped(Out, Payload);
  Out += "\nend\n";
}

bool optoct::server::decodeAnalyzeResponse(const std::string &Body,
                                           AnalyzeResponse &R,
                                           std::string &Error) {
  R = AnalyzeResponse();
  Error.clear();
  std::size_t Pos = parseTagLine(Body, "ares", R.Id);
  if (Pos == std::string::npos) {
    Error = "malformed ares tag line";
    return false;
  }
  bool HaveOutcome = false;
  bool FieldsOk = forEachField(
      Body, Pos,
      [&](const std::string &Key, const std::string &Val) {
        if (Key == "outcome") {
          if (Val != "ok" && Val != "rejected" && Val != "overloaded")
            return false;
          R.Ok = Val == "ok";
          R.Overloaded = Val == "overloaded";
          HaveOutcome = true;
          return true;
        }
        if (Key == "cached")
          return parseBool01(Val, R.Cached);
        if (Key == "key")
          return parseHex64(Val, R.Key);
        if (Key == "retry_ms")
          return parseU64(Val, R.RetryMs);
        if (Key == "result")
          return percentUnescape(Val, R.ResultRecord);
        if (Key == "error")
          return percentUnescape(Val, R.Error);
        return true;
      },
      Error);
  if (!FieldsOk)
    return false;
  if (!HaveOutcome) {
    Error = "missing outcome field";
    return false;
  }
  // A decoded rejection reports its reason through R.Error; the decode
  // itself succeeded.
  return true;
}

std::string optoct::server::encodeStatsResponse(std::uint64_t Id,
                                                const DaemonStats &S) {
  std::ostringstream Out;
  Out << "sres " << Id << "\n";
  Out << "requests " << S.Requests << "\n";
  Out << "served " << S.Served << "\n";
  Out << "rejected " << S.Rejected << "\n";
  Out << "crashed_replies " << S.CrashedReplies << "\n";
  Out << "timeout_replies " << S.TimeoutReplies << "\n";
  Out << "cache_hits " << S.CacheHits << "\n";
  Out << "cache_misses " << S.CacheMisses << "\n";
  Out << "cache_entries " << S.CacheEntries << "\n";
  Out << "cache_bytes " << S.CacheBytes << "\n";
  Out << "cache_evictions " << S.CacheEvictions << "\n";
  Out << "workers " << S.Workers << "\n";
  Out << "workers_spawned " << S.WorkersSpawned << "\n";
  Out << "workers_crashed " << S.WorkersCrashed << "\n";
  Out << "workers_recycled " << S.WorkersRecycled << "\n";
  Out << "hard_kills " << S.HardKills << "\n";
  Out << "shed_queue_full " << S.ShedQueueFull << "\n";
  Out << "shed_client_cap " << S.ShedClientCap << "\n";
  Out << "shed_draining " << S.ShedDraining << "\n";
  Out << "queue_depth " << S.QueueDepth << "\n";
  Out << "queue_peak " << S.QueuePeak << "\n";
  Out << "coalesced_replies " << S.CoalescedReplies << "\n";
  Out << "quarantine_replies " << S.QuarantineReplies << "\n";
  Out << "quarantined_keys " << S.QuarantinedKeys << "\n";
  Out << "quarantined_total " << S.QuarantinedTotal << "\n";
  Out << "drained_jobs " << S.DrainedJobs << "\n";
  Out << "hellos " << S.Hellos << "\n";
  Out << "version_rejects " << S.VersionRejects << "\n";
  Out << "end\n";
  return Out.str();
}

bool optoct::server::decodeStatsResponse(const std::string &Body,
                                         std::uint64_t &Id, DaemonStats &S,
                                         std::string &Error) {
  S = DaemonStats();
  Error.clear();
  std::size_t Pos = parseTagLine(Body, "sres", Id);
  if (Pos == std::string::npos) {
    Error = "malformed sres tag line";
    return false;
  }
  return forEachField(
      Body, Pos,
      [&](const std::string &Key, const std::string &Val) {
        std::uint64_t *Field = nullptr;
        if (Key == "requests")
          Field = &S.Requests;
        else if (Key == "served")
          Field = &S.Served;
        else if (Key == "rejected")
          Field = &S.Rejected;
        else if (Key == "crashed_replies")
          Field = &S.CrashedReplies;
        else if (Key == "timeout_replies")
          Field = &S.TimeoutReplies;
        else if (Key == "cache_hits")
          Field = &S.CacheHits;
        else if (Key == "cache_misses")
          Field = &S.CacheMisses;
        else if (Key == "cache_entries")
          Field = &S.CacheEntries;
        else if (Key == "cache_bytes")
          Field = &S.CacheBytes;
        else if (Key == "cache_evictions")
          Field = &S.CacheEvictions;
        else if (Key == "workers")
          Field = &S.Workers;
        else if (Key == "workers_spawned")
          Field = &S.WorkersSpawned;
        else if (Key == "workers_crashed")
          Field = &S.WorkersCrashed;
        else if (Key == "workers_recycled")
          Field = &S.WorkersRecycled;
        else if (Key == "hard_kills")
          Field = &S.HardKills;
        else if (Key == "shed_queue_full")
          Field = &S.ShedQueueFull;
        else if (Key == "shed_client_cap")
          Field = &S.ShedClientCap;
        else if (Key == "shed_draining")
          Field = &S.ShedDraining;
        else if (Key == "queue_depth")
          Field = &S.QueueDepth;
        else if (Key == "queue_peak")
          Field = &S.QueuePeak;
        else if (Key == "coalesced_replies")
          Field = &S.CoalescedReplies;
        else if (Key == "quarantine_replies")
          Field = &S.QuarantineReplies;
        else if (Key == "quarantined_keys")
          Field = &S.QuarantinedKeys;
        else if (Key == "quarantined_total")
          Field = &S.QuarantinedTotal;
        else if (Key == "drained_jobs")
          Field = &S.DrainedJobs;
        else if (Key == "hellos")
          Field = &S.Hellos;
        else if (Key == "version_rejects")
          Field = &S.VersionRejects;
        else
          return true;
        return parseU64(Val, *Field);
      },
      Error);
}

void optoct::server::canonicalizeResult(runtime::JobResult &R) {
  R.WallSeconds = 0.0;
  R.ClosureCycles = 0;
  R.OctagonCycles = 0;
}

std::uint64_t optoct::server::requestFingerprint(const AnalyzeRequest &R) {
  runtime::BatchOptions Opts;
  Opts.Engine = R.Engine;
  Opts.Budget.MaxDbmCells = R.MaxDbmCells;
  // The daemon always captures invariants — they are the product being
  // cached. Timing knobs are excluded by jobSetFingerprint itself.
  Opts.CaptureInvariants = true;
  return runtime::jobSetFingerprint({R.Job}, Opts);
}
