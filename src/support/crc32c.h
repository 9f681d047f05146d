//===- support/crc32c.h - CRC32C (Castagnoli) checksums ---------*- C++ -*-===//
///
/// \file
/// The one error-detection checksum of the runtime: IPC frames
/// (runtime/ipc.cpp), cache snapshot records (server/cache.cpp) and
/// journal records (runtime/journal.cpp). The threat model is a crash
/// or a half-dead peer mid-write, not an adversary, so a 32-bit CRC is
/// enough — and CRC32C has an x86 instruction (SSE4.2 `crc32`), which
/// checksums a 16 KB reply frame in about 1 µs where a byte-serial hash
/// takes over 25.
///
/// Two implementations compute the same function: an SSE4.2 path
/// running three lanes and a portable slice-by-8 table. The active one
/// is chosen once at startup, the same way the octagon SIMD tier is
/// (oct/simd_dispatch.h): hardware when the CPU has SSE4.2, unless
/// OPTOCT_SIMD=scalar asks for the portable code everywhere.
///
/// Content addresses keep FNV-1a 64 (support/fnv.h): they need 64 bits
/// of width, not error detection.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_CRC32C_H
#define OPTOCT_SUPPORT_CRC32C_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace optoct::support {

/// CRC32C of \p Len bytes at \p Data through the implementation chosen
/// at startup.
std::uint32_t crc32c(const void *Data, std::size_t Len);

inline std::uint32_t crc32c(const std::string &S) {
  return crc32c(S.data(), S.size());
}

/// The portable table-driven implementation, always available.
std::uint32_t crc32cPortable(const void *Data, std::size_t Len);

/// True if the CPU has the SSE4.2 crc32 instruction.
bool crc32cHardwareSupported();

/// The SSE4.2 implementation. Only call it when
/// crc32cHardwareSupported(); on other targets it is the portable one.
std::uint32_t crc32cHardware(const void *Data, std::size_t Len);

/// "sse4.2" or "portable": the implementation crc32c() runs.
const char *crc32cImplName();

} // namespace optoct::support

#endif // OPTOCT_SUPPORT_CRC32C_H
