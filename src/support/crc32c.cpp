//===- support/crc32c.cpp - CRC32C (Castagnoli) checksums -----------------===//

#include "support/crc32c.h"

#include <array>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define OPTOCT_CRC32C_X86 1
#else
#define OPTOCT_CRC32C_X86 0
#endif

using namespace optoct;

namespace {

/// Reflected CRC32C polynomial.
constexpr std::uint32_t Poly = 0x82f63b78u;

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables: T[0] is the byte-at-a-time table, and T[K][B] is
/// the CRC of byte B followed by K zero bytes.
constexpr Tables makeTables() {
  Tables T{};
  for (std::uint32_t B = 0; B != 256; ++B) {
    std::uint32_t C = B;
    for (int Bit = 0; Bit != 8; ++Bit)
      C = (C >> 1) ^ (C & 1 ? Poly : 0);
    T[0][B] = C;
  }
  for (std::size_t K = 1; K != 8; ++K)
    for (std::uint32_t B = 0; B != 256; ++B)
      T[K][B] = (T[K - 1][B] >> 8) ^ T[0][T[K - 1][B] & 0xff];
  return T;
}

constexpr Tables T = makeTables();

std::uint32_t loadLe32(const unsigned char *P) {
  return static_cast<std::uint32_t>(P[0]) |
         static_cast<std::uint32_t>(P[1]) << 8 |
         static_cast<std::uint32_t>(P[2]) << 16 |
         static_cast<std::uint32_t>(P[3]) << 24;
}

using CrcFn = std::uint32_t (*)(const void *, std::size_t);

/// Set once during dynamic initialization, while the process is still
/// single-threaded. Until then (another TU's static constructor) the
/// portable code answers, with the same result.
constinit CrcFn Active = &support::crc32cPortable;

const bool StartupSelected = [] {
  const char *Simd = std::getenv("OPTOCT_SIMD");
  bool Portable = Simd && std::strcmp(Simd, "scalar") == 0;
  if (!Portable && support::crc32cHardwareSupported())
    Active = &support::crc32cHardware;
  return true;
}();

} // namespace

std::uint32_t support::crc32cPortable(const void *Data, std::size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  std::uint32_t C = ~0u;
  for (; Len >= 8; P += 8, Len -= 8) {
    std::uint32_t Lo = C ^ loadLe32(P), Hi = loadLe32(P + 4);
    C = T[7][Lo & 0xff] ^ T[6][(Lo >> 8) & 0xff] ^ T[5][(Lo >> 16) & 0xff] ^
        T[4][Lo >> 24] ^ T[3][Hi & 0xff] ^ T[2][(Hi >> 8) & 0xff] ^
        T[1][(Hi >> 16) & 0xff] ^ T[0][Hi >> 24];
  }
  for (; Len != 0; ++P, --Len)
    C = T[0][(C ^ *P) & 0xff] ^ (C >> 8);
  return ~C;
}

bool support::crc32cHardwareSupported() {
#if OPTOCT_CRC32C_X86
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

#if OPTOCT_CRC32C_X86
namespace {

/// The hardware path runs three independent lanes over consecutive
/// blocks of this many bytes, then folds them together.
constexpr std::size_t LaneBytes = 512;

/// A linear map on the raw (unconditioned) CRC register as a 32x32
/// GF(2) matrix: entry N is the image of bit N.
using Matrix = std::array<std::uint32_t, 32>;

constexpr std::uint32_t apply(const Matrix &M, std::uint32_t V) {
  std::uint32_t Out = 0;
  for (int N = 0; V != 0; ++N, V >>= 1)
    if (V & 1)
      Out ^= M[N];
  return Out;
}

/// Tables for advancing a raw register over LaneBytes zero bytes, one
/// per register byte: CRC(A || B) = shift(CRC(A)) ^ CRC(B) for a B of
/// LaneBytes, registers unconditioned. This is what joins the lanes.
constexpr std::array<std::array<std::uint32_t, 256>, 4> makeShiftTables() {
  // One zero bit: shift right, folding the polynomial in. Each
  // squaring doubles the number of zero bits the operator appends.
  Matrix Op{};
  Op[0] = Poly;
  for (int N = 1; N != 32; ++N)
    Op[N] = 1u << (N - 1);
  static_assert((LaneBytes & (LaneBytes - 1)) == 0, "a power of two");
  for (std::size_t Bits = 1; Bits != 8 * LaneBytes; Bits *= 2) {
    Matrix Sq{};
    for (int N = 0; N != 32; ++N)
      Sq[N] = apply(Op, Op[N]);
    Op = Sq;
  }
  std::array<std::array<std::uint32_t, 256>, 4> S{};
  for (int K = 0; K != 4; ++K)
    for (std::uint32_t B = 0; B != 256; ++B)
      S[K][B] = apply(Op, B << (8 * K));
  return S;
}

constexpr auto Shift = makeShiftTables();

std::uint32_t shiftLane(std::uint32_t C) {
  return Shift[0][C & 0xff] ^ Shift[1][(C >> 8) & 0xff] ^
         Shift[2][(C >> 16) & 0xff] ^ Shift[3][C >> 24];
}

__attribute__((target("sse4.2"))) std::uint64_t
crcWord(std::uint64_t C, const unsigned char *P) {
  std::uint64_t V;
  std::memcpy(&V, P, 8);
  return _mm_crc32_u64(C, V);
}

} // namespace

// The instruction has a 3-cycle latency and a 1-cycle throughput, so
// one dependent chain runs at a third of its speed. Three lanes over
// consecutive LaneBytes blocks keep it busy: against one lane, 2.5x on
// a 16 KB reply frame (0.84 against 2.1 us) and 1.9x on a 32 MB
// snapshot (2.6 against 5.0 ms) on a 4-vCPU Xeon VM. The tail runs one
// lane.
__attribute__((target("sse4.2"))) std::uint32_t
support::crc32cHardware(const void *Data, std::size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  std::uint64_t C = ~0u;
  for (; Len >= 3 * LaneBytes; P += 3 * LaneBytes, Len -= 3 * LaneBytes) {
    std::uint64_t C1 = 0, C2 = 0;
    for (std::size_t I = 0; I != LaneBytes; I += 8) {
      C = crcWord(C, P + I);
      C1 = crcWord(C1, P + LaneBytes + I);
      C2 = crcWord(C2, P + 2 * LaneBytes + I);
    }
    C = shiftLane(static_cast<std::uint32_t>(C)) ^ C1;
    C = shiftLane(static_cast<std::uint32_t>(C)) ^ C2;
  }
  for (; Len >= 8; P += 8, Len -= 8)
    C = crcWord(C, P);
  auto C32 = static_cast<std::uint32_t>(C);
  for (; Len != 0; ++P, --Len)
    C32 = _mm_crc32_u8(C32, *P);
  return ~C32;
}
#else
std::uint32_t support::crc32cHardware(const void *Data, std::size_t Len) {
  return crc32cPortable(Data, Len);
}
#endif

std::uint32_t support::crc32c(const void *Data, std::size_t Len) {
  return Active(Data, Len);
}

const char *support::crc32cImplName() {
  return Active == &crc32cHardware ? "sse4.2" : "portable";
}
