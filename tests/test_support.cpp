//===- tests/test_support.cpp - Support library tests ----------------------===//

#include "support/aligned.h"
#include "support/crc32c.h"
#include "support/random.h"
#include "support/stats.h"
#include "support/table.h"
#include "support/textcodec.h"
#include "support/timing.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

using namespace optoct;

namespace {

TEST(AlignedBuffer, AllocationIsAligned) {
  AlignedBuffer<double> B(37);
  EXPECT_EQ(B.size(), 37u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.data()) % 32, 0u);
}

TEST(AlignedBuffer, CopyAndMoveSemantics) {
  AlignedBuffer<double> A(8);
  for (std::size_t I = 0; I != 8; ++I)
    A[I] = static_cast<double>(I);
  AlignedBuffer<double> Copy = A;
  EXPECT_EQ(Copy[5], 5.0);
  Copy[5] = -1.0;
  EXPECT_EQ(A[5], 5.0); // deep copy

  AlignedBuffer<double> Moved = std::move(Copy);
  EXPECT_EQ(Moved[5], -1.0);
  EXPECT_EQ(Copy.size(), 0u); // NOLINT: moved-from is empty by contract

  AlignedBuffer<double> Assigned(3);
  Assigned = A;
  EXPECT_EQ(Assigned.size(), 8u);
  EXPECT_EQ(Assigned[7], 7.0);
  Assigned = std::move(Moved);
  EXPECT_EQ(Assigned[5], -1.0);
}

TEST(AlignedBuffer, FillAndResizeDiscard) {
  AlignedBuffer<double> B(4);
  B.fill(2.5);
  for (std::size_t I = 0; I != 4; ++I)
    EXPECT_EQ(B[I], 2.5);
  B.resizeDiscard(16);
  EXPECT_EQ(B.size(), 16u);
  B.resizeDiscard(0);
  EXPECT_TRUE(B.empty());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I) {
    EXPECT_EQ(A.intIn(-50, 50), B.intIn(-50, 50));
    EXPECT_EQ(A.indexBelow(17), B.indexBelow(17));
    EXPECT_EQ(A.chance(0.3), B.chance(0.3));
  }
}

TEST(Rng, RespectsRanges) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    int V = R.intIn(-3, 9);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 9);
    EXPECT_LT(R.indexBelow(5), 5u);
    double D = R.doubleIn(1.0, 2.0);
    EXPECT_GE(D, 1.0);
    EXPECT_LT(D, 2.0);
  }
}

TEST(OctStats, AccumulatesAndTraces) {
  OctStats S;
  S.enableTrace(true);
  S.recordClosure(100, 8, 1);
  S.recordClosure(300, 4, 3);
  EXPECT_EQ(S.numClosures(), 2u);
  EXPECT_EQ(S.closureCycles(), 400u);
  EXPECT_EQ(S.minVars(), 4u);
  EXPECT_EQ(S.maxVars(), 8u);
  ASSERT_EQ(S.trace().size(), 2u);
  EXPECT_EQ(S.trace()[1].KindTag, 3);
  S.reset();
  EXPECT_EQ(S.numClosures(), 0u);
  EXPECT_EQ(S.minVars(), 0u);
  EXPECT_TRUE(S.trace().empty());
}

TEST(TextTable, AlignsColumns) {
  TextTable T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer-name", "22"});
  std::string Out = T.render();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(Out.begin(), Out.end(), '\n'), 4);
  // Columns align: both value entries start at the same offset.
  std::size_t Line3 = Out.find("x ");
  std::size_t Line4 = Out.find("longer-name");
  ASSERT_NE(Line3, std::string::npos);
  ASSERT_NE(Line4, std::string::npos);
  std::size_t Col1 = Out.find('1', Line3) - Line3;
  std::size_t Col2 = Out.find("22", Line4) - Line4;
  EXPECT_EQ(Col1, Col2);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(-0.5, 1), "-0.5");
}

TEST(Timing, CyclesAreMonotonic) {
  std::uint64_t A = readCycles();
  volatile double Sink = 0;
  for (int I = 0; I != 10000; ++I)
    Sink = Sink + I;
  (void)Sink;
  std::uint64_t B = readCycles();
  EXPECT_GT(B, A);
}

TEST(Timing, WallTimerAccumulates) {
  WallTimer T;
  EXPECT_EQ(T.seconds(), 0.0);
  T.start();
  volatile double Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink = Sink + I;
  (void)Sink;
  T.stop();
  double First = T.seconds();
  EXPECT_GT(First, 0.0);
  T.start();
  T.stop();
  EXPECT_GE(T.seconds(), First);
  T.reset();
  EXPECT_EQ(T.seconds(), 0.0);
}

TEST(Timing, ScopedCycleTimerAddsToSink) {
  std::uint64_t Sink = 0;
  {
    ScopedCycleTimer Timer(Sink);
    volatile int X = 0;
    for (int I = 0; I != 1000; ++I)
      X = X + I;
    (void)X;
  }
  EXPECT_GT(Sink, 0u);
}

// --- Percent-escape codec against byte-at-a-time references --------------

bool needsEscape(unsigned char U) { return U == '%' || U < 0x20 || U == 0x7f; }

std::string referenceEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    if (needsEscape(U)) {
      char Buf[4];
      std::snprintf(Buf, sizeof(Buf), "%%%02x", U);
      Out += Buf;
    } else
      Out += C;
  }
  return Out;
}

bool referenceUnescape(const std::string &S, std::string &Out) {
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
  for (std::size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '%') {
      Out += S[I];
      continue;
    }
    if (I + 2 >= S.size())
      return false;
    int Hi = Hex(S[I + 1]), Lo = Hex(S[I + 2]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out += static_cast<char>(Hi * 16 + Lo);
    I += 2;
  }
  return true;
}

/// Escapes \p S both ways, then unescapes the result both ways.
void expectCodecMatchesReference(const std::string &S) {
  std::string Escaped = support::percentEscape(S);
  ASSERT_EQ(Escaped, referenceEscape(S));
  EXPECT_EQ(Escaped.find('\n'), std::string::npos);
  std::string Back;
  ASSERT_TRUE(support::percentUnescape(Escaped, Back));
  EXPECT_EQ(Back, S);
}

std::string randomBytes(Rng &R, std::size_t Len) {
  std::string S(Len, '\0');
  for (char &C : S)
    // Half from the bytes that escape, so every word sees matches.
    C = static_cast<char>(R.chance(0.5) ? R.intIn(0, 255)
                                        : (R.chance(0.5) ? '%' : R.intIn(0, 31)));
  return S;
}

TEST(TextCodec, EscapeMaskIsExactInEveryLane) {
  Rng R(17);
  for (unsigned Lane = 0; Lane != 8; ++Lane)
    for (unsigned B = 0; B != 256; ++B) {
      unsigned char Bytes[8];
      for (unsigned char &X : Bytes)
        X = static_cast<unsigned char>(R.intIn(0, 255));
      Bytes[Lane] = static_cast<unsigned char>(B);
      std::uint64_t W = 0;
      for (unsigned I = 0; I != 8; ++I)
        W |= static_cast<std::uint64_t>(Bytes[I]) << (8 * I);
      std::uint64_t M = support::escapeMask(W);
      for (unsigned I = 0; I != 8; ++I)
        EXPECT_EQ((M >> (8 * I)) & 0xff, needsEscape(Bytes[I]) ? 0x80u : 0u)
            << "byte " << unsigned(Bytes[I]) << " in lane " << I;
    }
}

TEST(TextCodec, EveryByteAtEveryOffsetMatchesReference) {
  for (unsigned B = 0; B != 256; ++B)
    for (std::size_t Len = 1; Len != 25; ++Len)
      for (std::size_t At = 0; At != Len; ++At) {
        std::string S(Len, 'a');
        S[At] = static_cast<char>(B);
        expectCodecMatchesReference(S);
      }
}

TEST(TextCodec, RandomStringsMatchReference) {
  Rng R(99);
  for (std::size_t Len = 0; Len <= 64; ++Len)
    for (int N = 0; N != 40; ++N)
      expectCodecMatchesReference(randomBytes(R, Len));
  for (int N = 0; N != 500; ++N)
    expectCodecMatchesReference(randomBytes(R, R.indexBelow(2000)));
  std::string Plain(5000, 'x'); // no escape at all: one bulk run
  expectCodecMatchesReference(Plain);
}

TEST(TextCodec, MalformedEscapesAreRejected) {
  std::string Out;
  for (const char *Bad : {"%", "%4", "%g0", "%0g", "abc%", "abc%4", "%%",
                          "% 1", "ok%4", "%4%41", "%41%", "%-1", "%+1",
                          "%\n0", "x%x0"})
    EXPECT_FALSE(support::percentUnescape(Bad, Out)) << Bad;
  ASSERT_TRUE(support::percentUnescape("%41%4a%4A%25", Out));
  EXPECT_EQ(Out, "AJJ%");

  // Random mixes of '%', hex and non-hex digits: the verdict and the
  // bytes decoded before it match the reference.
  Rng R(5);
  const std::string Alphabet = "%0123456789abcdefABCDEFgxz %\n";
  for (int N = 0; N != 5000; ++N) {
    std::string S(R.indexBelow(24), '\0');
    for (char &C : S)
      C = Alphabet[R.indexBelow(Alphabet.size())];
    std::string Got, Want;
    bool GotOk = support::percentUnescape(S, Got);
    bool WantOk = referenceUnescape(S, Want);
    ASSERT_EQ(GotOk, WantOk) << S;
    EXPECT_EQ(Got, Want) << S;
  }
}

// --- CRC32C -----------------------------------------------------------------

// RFC 3720 (iSCSI) appendix B.4 test vectors, plus the check value of
// "123456789". Each implementation is pinned separately, so a wrong
// table cannot hide behind a wrong instruction path or the reverse.
TEST(Crc32c, KnownAnswers) {
  const std::string Zeros(32, '\0'), Ones(32, '\xff'), Digits = "123456789";
  std::string Inc(32, '\0'), Dec(32, '\0');
  for (int I = 0; I != 32; ++I) {
    Inc[I] = static_cast<char>(I);
    Dec[I] = static_cast<char>(31 - I);
  }
  struct Case {
    const std::string *In;
    std::uint32_t Want;
  } Cases[] = {{&Zeros, 0x8a9136aau},
               {&Ones, 0x62a8ab43u},
               {&Inc, 0x46dd794eu},
               {&Dec, 0x113fdb5cu},
               {&Digits, 0xe3069283u}};
  for (const Case &C : Cases) {
    EXPECT_EQ(support::crc32cPortable(C.In->data(), C.In->size()), C.Want);
    EXPECT_EQ(support::crc32c(*C.In), C.Want);
    if (support::crc32cHardwareSupported())
      EXPECT_EQ(support::crc32cHardware(C.In->data(), C.In->size()), C.Want);
  }
  EXPECT_EQ(support::crc32c(std::string()), 0u);
}

TEST(Crc32c, HardwareAndPortableAgreeOnEveryLengthAndAlignment) {
  if (!support::crc32cHardwareSupported())
    GTEST_SKIP() << "no SSE4.2 on this machine";
  std::mt19937 Rng(0xc5c3u);
  std::string Buf((1u << 17) + 8, '\0');
  for (char &C : Buf)
    C = static_cast<char>(Rng());
  // Every length up to 1024, then lengths around the hardware path's
  // three-lane rounds (3 x 512 bytes) and past many of them.
  std::vector<std::size_t> Lens;
  for (std::size_t Len = 0; Len <= 1024; ++Len)
    Lens.push_back(Len);
  for (std::size_t Rounds : {1, 2, 3, 10, 85})
    for (std::size_t Len = Rounds * 1536 - 9; Len <= Rounds * 1536 + 9; ++Len)
      Lens.push_back(Len);
  Lens.push_back(Buf.size() - 8);
  for (std::size_t Offset = 0; Offset != 8; ++Offset)
    for (std::size_t Len : Lens) {
      const char *P = Buf.data() + Offset;
      ASSERT_EQ(support::crc32cHardware(P, Len),
                support::crc32cPortable(P, Len))
          << "offset " << Offset << " length " << Len;
    }
}

TEST(Crc32c, StartupSelectionFollowsCpuAndOptoctSimd) {
  // The same switch as the octagon kernels: OPTOCT_SIMD=scalar means
  // portable code everywhere; otherwise the CPU decides. CI's per-tier
  // matrix runs this under both.
  const char *Env = std::getenv("OPTOCT_SIMD");
  bool Scalar = Env && std::strcmp(Env, "scalar") == 0;
  EXPECT_STREQ(support::crc32cImplName(),
               !Scalar && support::crc32cHardwareSupported() ? "sse4.2"
                                                             : "portable");
}

} // namespace
