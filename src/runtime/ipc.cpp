//===- runtime/ipc.cpp - Framed supervisor/worker pipe protocol -----------===//

#include "runtime/ipc.h"

#include "runtime/journal.h"
#include "support/crc32c.h"
#include "support/textcodec.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;
using namespace optoct::runtime::ipc;

namespace {

constexpr char Magic[4] = {'O', 'F', 'R', '2'};
/// The magic of the FNV-1a framed format before it (ProtocolVersion 2):
/// a peer that still speaks it is stale, not corrupt.
constexpr char StaleMagic[4] = {'O', 'F', 'R', '1'};
constexpr std::size_t HeaderBytes = 4 + 4 + 8 + 8;

void putU32(char *P, std::uint32_t V) {
  for (int I = 0; I != 4; ++I)
    P[I] = static_cast<char>((V >> (8 * I)) & 0xff);
}

void putU64(char *P, std::uint64_t V) {
  for (int I = 0; I != 8; ++I)
    P[I] = static_cast<char>((V >> (8 * I)) & 0xff);
}

std::uint32_t getU32(const char *P) {
  std::uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<std::uint32_t>(static_cast<unsigned char>(P[I]))
         << (8 * I);
  return V;
}

std::uint64_t getU64(const char *P) {
  std::uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<std::uint64_t>(static_cast<unsigned char>(P[I]))
         << (8 * I);
  return V;
}

bool writeAllFd(int Fd, const char *Data, std::size_t Len) {
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

/// Blocking full read; returns bytes read, short only at EOF, on an
/// error, or when the socket's receive timeout (SO_RCVTIMEO) expires,
/// which sets \p TimedOut.
std::size_t readAllFd(int Fd, char *Data, std::size_t Len, bool &TimedOut) {
  std::size_t Got = 0;
  while (Got != Len) {
    ssize_t N = ::read(Fd, Data + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      TimedOut = errno == EAGAIN || errno == EWOULDBLOCK;
      break;
    }
    if (N == 0)
      break;
    Got += static_cast<std::size_t>(N);
  }
  return Got;
}

/// Parses a header buffer: Stale on the previous format's magic, Torn
/// on any other bad magic or a body length above \p MaxFrame (the
/// reader's configured allocation bound).
ReadStatus parseHeader(const char *H, MsgType &Type, std::uint64_t &BodyLen,
                       std::uint64_t &Sum, std::uint64_t MaxFrame) {
  if (std::memcmp(H, Magic, 4) != 0)
    return std::memcmp(H, StaleMagic, 4) == 0 ? ReadStatus::Stale
                                              : ReadStatus::Torn;
  Type = static_cast<MsgType>(getU32(H + 4));
  BodyLen = getU64(H + 8);
  Sum = getU64(H + 16);
  return BodyLen <= MaxFrame ? ReadStatus::Ok : ReadStatus::Torn;
}

} // namespace

std::size_t optoct::runtime::ipc::beginFrame(std::string &Out, MsgType Type) {
  std::size_t Start = Out.size();
  Out.append(HeaderBytes, '\0');
  std::memcpy(Out.data() + Start, Magic, 4);
  putU32(Out.data() + Start + 4, static_cast<std::uint32_t>(Type));
  return Start;
}

void optoct::runtime::ipc::endFrame(std::string &Out, std::size_t Start) {
  char *Header = Out.data() + Start;
  std::size_t BodyLen = Out.size() - Start - HeaderBytes;
  putU64(Header + 8, BodyLen);
  putU64(Header + 16, support::crc32c(Header + HeaderBytes, BodyLen));
}

std::string optoct::runtime::ipc::frameBytes(MsgType Type,
                                             const std::string &Body) {
  std::string Frame;
  Frame.reserve(HeaderBytes + Body.size());
  std::size_t Start = beginFrame(Frame, Type);
  Frame.append(Body);
  endFrame(Frame, Start);
  return Frame;
}

bool optoct::runtime::ipc::writeFrame(int Fd, MsgType Type,
                                      const std::string &Body) {
  // One buffer, one writeAll: pipe writes up to PIPE_BUF are atomic,
  // and larger frames are only ever written by the single owner of the
  // fd, so interleaving cannot occur either way.
  std::string Frame = frameBytes(Type, Body);
  return writeAllFd(Fd, Frame.data(), Frame.size());
}

ReadStatus optoct::runtime::ipc::readFrame(int Fd, MsgType &Type,
                                           std::string &Body,
                                           std::uint64_t MaxFrame) {
  char Header[HeaderBytes];
  bool TimedOut = false;
  std::size_t Got = readAllFd(Fd, Header, HeaderBytes, TimedOut);
  if (TimedOut)
    return ReadStatus::Timeout;
  if (Got == 0)
    return ReadStatus::Eof;
  if (Got != HeaderBytes)
    return ReadStatus::Torn;
  std::uint64_t BodyLen = 0, Sum = 0;
  if (ReadStatus S = parseHeader(Header, Type, BodyLen, Sum, MaxFrame);
      S != ReadStatus::Ok)
    return S;
  Body.resize(static_cast<std::size_t>(BodyLen));
  if (readAllFd(Fd, Body.data(), Body.size(), TimedOut) != Body.size())
    return TimedOut ? ReadStatus::Timeout : ReadStatus::Torn;
  if (support::crc32c(Body) != Sum)
    return ReadStatus::Torn;
  return ReadStatus::Ok;
}

void FrameReader::feed(const char *Data, std::size_t Len) {
  if (Corrupt)
    return;
  Buf.append(Data, Len);
}

bool FrameReader::next(MsgType &Type, std::string &Body) {
  if (Corrupt)
    return false;
  // Validate the magic as soon as it could be present: a peer speaking
  // the wrong protocol is flagged on its first four bytes instead of
  // sitting mid-"frame" until it happens to deliver a header's worth.
  if (Buf.size() - Pos >= 4 &&
      std::memcmp(Buf.data() + Pos, Magic, 4) != 0) {
    Stale = std::memcmp(Buf.data() + Pos, StaleMagic, 4) == 0;
    Corrupt = true;
    return false;
  }
  if (Buf.size() - Pos < HeaderBytes)
    return false;
  std::uint64_t BodyLen = 0, Sum = 0;
  if (parseHeader(Buf.data() + Pos, Type, BodyLen, Sum, MaxFrame) !=
      ReadStatus::Ok) {
    Corrupt = true;
    return false;
  }
  if (Buf.size() - Pos - HeaderBytes < BodyLen)
    return false;
  const char *Start = Buf.data() + Pos + HeaderBytes;
  if (support::crc32c(Start, static_cast<std::size_t>(BodyLen)) != Sum) {
    Corrupt = true;
    return false;
  }
  Body.assign(Start, static_cast<std::size_t>(BodyLen));
  Pos += HeaderBytes + static_cast<std::size_t>(BodyLen);
  // Compact once the consumed prefix dominates, keeping feed() O(1)
  // amortized without unbounded growth across a long batch.
  if (Pos > 4096 && Pos * 2 > Buf.size()) {
    Buf.erase(0, Pos);
    Pos = 0;
  }
  return true;
}

std::string
optoct::runtime::ipc::encodeEngineOptions(const analysis::AnalysisOptions &E,
                                          std::uint64_t MaxDbmCells) {
  // The same key-value lines as the daemon's request body, restricted
  // to the result-shaping knobs (the fields jobSetFingerprint hashes).
  std::string Out;
  Out += "wdelay " + std::to_string(E.WideningDelay) + "\n";
  Out += "narrow " + std::to_string(E.NarrowingPasses) + "\n";
  Out += "maxvisits " + std::to_string(E.MaxBlockVisits) + "\n";
  Out += std::string("linearize ") + (E.LinearizeGuards ? "1" : "0") + "\n";
  Out += "maxcells " + std::to_string(MaxDbmCells) + "\n";
  for (double T : E.WideningThresholds)
    Out += "thr " + support::formatDouble(T) + "\n";
  return Out;
}

bool optoct::runtime::ipc::decodeEngineOptions(const std::string &Blob,
                                               analysis::AnalysisOptions &E,
                                               std::uint64_t &MaxDbmCells) {
  E = analysis::AnalysisOptions();
  E.WideningThresholds.clear();
  MaxDbmCells = 0;
  std::size_t Pos = 0;
  while (Pos < Blob.size()) {
    std::size_t Nl = Blob.find('\n', Pos);
    if (Nl == std::string::npos)
      return false; // every line is terminated; a bare tail is a tear
    std::string Line = Blob.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    std::size_t Sp = Line.find(' ');
    if (Sp == std::string::npos)
      return false;
    std::string Key = Line.substr(0, Sp), Val = Line.substr(Sp + 1);
    std::uint64_t U = 0;
    if (Key == "wdelay") {
      if (!support::parseU64(Val, U))
        return false;
      E.WideningDelay = static_cast<unsigned>(U);
    } else if (Key == "narrow") {
      if (!support::parseU64(Val, U))
        return false;
      E.NarrowingPasses = static_cast<unsigned>(U);
    } else if (Key == "maxvisits") {
      if (!support::parseU64(Val, U))
        return false;
      E.MaxBlockVisits = static_cast<unsigned>(U);
    } else if (Key == "linearize") {
      if (Val != "0" && Val != "1")
        return false;
      E.LinearizeGuards = Val == "1";
    } else if (Key == "maxcells") {
      if (!support::parseU64(Val, MaxDbmCells))
        return false;
    } else if (Key == "thr") {
      errno = 0;
      char *End = nullptr;
      double T = std::strtod(Val.c_str(), &End);
      if (errno != 0 || End != Val.c_str() + Val.size())
        return false;
      E.WideningThresholds.push_back(T);
    }
    // Unknown keys skip silently: same forward-compatibility stance as
    // the journal's record parser.
  }
  return true;
}

std::string optoct::runtime::ipc::encodeJob(std::size_t Index,
                                            unsigned Attempt,
                                            const BatchJob &Job,
                                            const std::string &EngineBlob) {
  // "job <index> <attempt> <namebytes> <optbytes>\n" then raw name,
  // options blob, and source.
  std::string Body = "job " + std::to_string(Index) + " " +
                     std::to_string(Attempt) + " " +
                     std::to_string(Job.Name.size()) + " " +
                     std::to_string(EngineBlob.size()) + "\n";
  Body += Job.Name;
  Body += EngineBlob;
  Body += Job.Source;
  return Body;
}

bool optoct::runtime::ipc::decodeJob(const std::string &Body,
                                     std::size_t &Index, unsigned &Attempt,
                                     BatchJob &Job, std::string *EngineBlob) {
  std::size_t Nl = Body.find('\n');
  if (Nl == std::string::npos || Body.rfind("job ", 0) != 0)
    return false;
  unsigned long long Idx = 0, Att = 0, NameLen = 0, OptLen = 0;
  if (std::sscanf(Body.c_str() + 4, "%llu %llu %llu %llu", &Idx, &Att,
                  &NameLen, &OptLen) != 4)
    return false;
  std::size_t Payload = Nl + 1;
  if (NameLen > Body.size() - Payload ||
      OptLen > Body.size() - Payload - NameLen)
    return false;
  Index = static_cast<std::size_t>(Idx);
  Attempt = static_cast<unsigned>(Att);
  Job.Name = Body.substr(Payload, static_cast<std::size_t>(NameLen));
  std::string Blob = Body.substr(Payload + static_cast<std::size_t>(NameLen),
                                 static_cast<std::size_t>(OptLen));
  if (EngineBlob)
    *EngineBlob = Blob;
  Job.Source = Body.substr(Payload + static_cast<std::size_t>(NameLen) +
                           static_cast<std::size_t>(OptLen));
  return true;
}

std::string optoct::runtime::ipc::encodeResult(std::size_t Index,
                                               bool Retryable,
                                               const JobResult &R) {
  return "res " + std::to_string(Index) + " " + (Retryable ? "1" : "0") +
         "\n" + serializeJobResult(R);
}

bool optoct::runtime::ipc::decodeResult(const std::string &Body,
                                        std::size_t &Index, bool &Retryable,
                                        JobResult &R, std::string &Error) {
  std::size_t Nl = Body.find('\n');
  if (Nl == std::string::npos || Body.rfind("res ", 0) != 0) {
    Error = "malformed result frame";
    return false;
  }
  unsigned long long Idx = 0;
  int Retry = 0;
  if (std::sscanf(Body.c_str() + 4, "%llu %d", &Idx, &Retry) != 2 ||
      (Retry != 0 && Retry != 1)) {
    Error = "malformed result frame";
    return false;
  }
  Index = static_cast<std::size_t>(Idx);
  Retryable = Retry == 1;
  return deserializeJobResult(Body.substr(Nl + 1), R, Error);
}
