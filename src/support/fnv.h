//===- support/fnv.h - FNV-1a 64-bit hashing --------------------*- C++ -*-===//
///
/// \file
/// FNV-1a 64, for content addresses only: the daemon's request
/// fingerprint and the journal's job-set fingerprint
/// (server/protocol.h, runtime/journal.h), and the result digest
/// optoctd prints and bench_server compares. These need 64 bits of width so
/// distinct inputs do not share a key. Error detection — frames,
/// snapshot records, journal records — is CRC32C (support/crc32c.h).
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_FNV_H
#define OPTOCT_SUPPORT_FNV_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace optoct::support {

inline constexpr std::uint64_t Fnv1a64Offset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t Fnv1a64Prime = 0x100000001b3ull;

inline std::uint64_t fnv1a64(const char *Data, std::size_t Len,
                             std::uint64_t Seed = Fnv1a64Offset) {
  std::uint64_t H = Seed;
  for (std::size_t I = 0; I != Len; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= Fnv1a64Prime;
  }
  return H;
}

inline std::uint64_t fnv1a64(const std::string &S,
                             std::uint64_t Seed = Fnv1a64Offset) {
  return fnv1a64(S.data(), S.size(), Seed);
}

} // namespace optoct::support

#endif // OPTOCT_SUPPORT_FNV_H
