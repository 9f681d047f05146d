//===- support/textcodec.h - Percent-escaped line-safe text -----*- C++ -*-===//
///
/// \file
/// The one percent-escape used by every line-oriented record format in
/// the runtime: journal record bodies (runtime/journal.cpp) and the
/// daemon's request/response protocol (server/protocol.cpp). Values are
/// binary-safe within one line — embedded newlines, '%', and control
/// bytes are escaped as %XX — so a "key value\n" framing can carry
/// arbitrary program sources and error text without a length prefix.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_TEXTCODEC_H
#define OPTOCT_SUPPORT_TEXTCODEC_H

#include <bit>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace optoct::support {

/// 0x80 in each byte of \p W that percentEscape must escape ('%', a
/// byte below 0x20, DEL), 0 in every other byte. Exact per byte: every
/// sum stays inside its byte's low seven bits plus the high bit, so no
/// carry crosses into a neighbour and a match cannot flag another byte.
constexpr std::uint64_t escapeMask(std::uint64_t W) {
  constexpr std::uint64_t Ones = 0x0101010101010101ull;
  constexpr std::uint64_t High = Ones * 0x80, Low7 = Ones * 0x7f;
  // High bit set iff the byte's low seven bits are >= 0x20.
  std::uint64_t Ge20 = (W & Low7) + Ones * 0x60;
  // High bit clear iff the byte equals '%' (resp. DEL).
  std::uint64_t Pct = W ^ (Ones * '%'), Del = W ^ Low7;
  std::uint64_t NotPct = ((Pct & Low7) + Low7) | Pct;
  std::uint64_t NotDel = ((Del & Low7) + Low7) | Del;
  // A byte is below 0x20 iff its high bit is clear and Ge20's is too.
  return ~((Ge20 | W) & NotPct & NotDel) & High;
}

/// Appends \p S to \p Out with '%', control bytes, and DEL escaped as
/// %XX (lowercase hex); everything else passes through verbatim. Scans
/// eight bytes at a time and appends the runs between escapes whole.
inline void appendPercentEscaped(std::string &Out, std::string_view S) {
  static constexpr char HexDigits[] = "0123456789abcdef";
  const char *P = S.data();
  const std::size_t N = S.size();
  std::size_t Run = 0; // start of the verbatim run not yet appended
  auto Escape = [&](std::size_t At) {
    unsigned char U = static_cast<unsigned char>(P[At]);
    Out.append(P + Run, At - Run);
    const char Esc[3] = {'%', HexDigits[U >> 4], HexDigits[U & 0xf]};
    Out.append(Esc, 3);
    Run = At + 1;
  };
  std::size_t I = 0;
  for (; N - I >= 8; I += 8) {
    std::uint64_t W;
    std::memcpy(&W, P + I, 8);
    if constexpr (std::endian::native == std::endian::big)
      W = __builtin_bswap64(W); // byte I in the low bits, as below
    for (std::uint64_t M = escapeMask(W); M != 0; M &= M - 1)
      Escape(I + static_cast<std::size_t>(std::countr_zero(M) / 8));
  }
  for (; I != N; ++I) {
    unsigned char U = static_cast<unsigned char>(P[I]);
    if (U == '%' || U < 0x20 || U == 0x7f)
      Escape(I);
  }
  Out.append(P + Run, N - Run);
}

/// The escaped copy of \p S. The output never contains '\n'.
inline std::string percentEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + S.size() / 8);
  appendPercentEscaped(Out, S);
  return Out;
}

/// Inverse of percentEscape. Returns false on a malformed escape
/// (truncated or non-hex) — escaped bytes are untrusted input after a
/// crash or over a socket, so this must reject, never assert.
inline bool percentUnescape(const std::string &S, std::string &Out) {
  auto Hex = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  };
  Out.clear();
  Out.reserve(S.size());
  std::size_t I = 0;
  for (std::size_t Pct; (Pct = S.find('%', I)) != std::string::npos;
       I = Pct + 3) {
    Out.append(S, I, Pct - I);
    if (Pct + 2 >= S.size())
      return false;
    int Hi = Hex(S[Pct + 1]), Lo = Hex(S[Pct + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out += static_cast<char>(Hi * 16 + Lo);
  }
  Out.append(S, I);
  return true;
}

/// Strict full-string parses: the whole value must consume, no sign,
/// no trailing junk. Record fields are untrusted bytes (crash debris,
/// socket input), so every parse must reject, never wrap or crash.
inline bool parseU64(const std::string &S, std::uint64_t &V) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long X = std::strtoull(S.c_str(), &End, 10);
  if (errno != 0 || End != S.c_str() + S.size() || S[0] == '-')
    return false;
  V = X;
  return true;
}

inline bool parseHex64(const std::string &S, std::uint64_t &V) {
  if (S.empty())
    return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long X = std::strtoull(S.c_str(), &End, 16);
  if (errno != 0 || End != S.c_str() + S.size() || S[0] == '-')
    return false;
  V = X;
  return true;
}

/// Fixed-width lowercase hex, the journal's and cache's key rendering.
inline std::string hex64(std::uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// %.17g round-trips IEEE doubles exactly (same contract as the
/// octagon serializer); "inf"/"-inf"/"nan" are normalized by strtod.
inline std::string formatDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace optoct::support

#endif // OPTOCT_SUPPORT_TEXTCODEC_H
