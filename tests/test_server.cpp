//===- tests/test_server.cpp - Analysis daemon tests ----------------------===//
///
/// Four layers, bottom up:
///   * IpcStream.*      — FrameReader/readFrame against adversarial
///     SOCK_STREAM delivery: 1-byte reads, frames split at arbitrary
///     boundaries, EINTR mid-read, mid-frame disconnects, and hostile
///     length prefixes (the configurable max-frame bound).
///   * DaemonProtocol.* — request/response body codecs and the request
///     fingerprint (cache key) algebra.
///   * DaemonCache.*    — the LRU invariant cache: byte budget,
///     promotion, persistence round trip, torn-file salvage.
///   * Daemon.*         — the daemon end to end over a real Unix
///     socket, including the acceptance containment test: a request
///     that segfaults its worker is reported crashed to that one
///     client while a concurrent in-flight request completes normally.
///
/// Fixture naming is load-bearing for CI: `IpcStream.*` deliberately
/// does NOT match the TSan leg's `Ipc.*` filter (no '.' after "Ipc"),
/// and the fork-heavy `Daemon.*` tests stay out of it entirely.

#include "runtime/ipc.h"
#include "runtime/journal.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/replica.h"
#include "server/server.h"
#include "support/crc32c.h"
#include "support/faultinject.h"
#include "support/textcodec.h"

#include "wire_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace optoct;
using namespace optoct::runtime;
using namespace optoct::wire;
using namespace std::string_literals;

namespace {

std::string loopProgram(unsigned Bound) {
  std::string B = std::to_string(Bound);
  return "var x, y, n;\n"
         "n = havoc(); assume(n >= 0 && n <= " + B + ");\n"
         "x = 0; y = 0;\n"
         "while (x < n) {\n"
         "  x = x + 1;\n"
         "  if (y < x) { y = y + 1; }\n"
         "}\n"
         "assert(y <= x);\n"
         "assert(x <= " + B + ");\n";
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "optoct_srv_" + Name + "." +
         std::to_string(::getpid());
}

} // namespace

// --- FrameReader under adversarial stream delivery (satellite 3) -----------

class IpcStream : public ::testing::Test {};

TEST_F(IpcStream, OneByteDeliveryOverSocket) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  std::string Body("binary\0body % with\nnewlines", 27);
  std::string Wire = ipc::frameBytes(ipc::MsgType::Request, Body);

  std::thread Writer([&] {
    for (char C : Wire)
      ASSERT_EQ(::send(Sp[1], &C, 1, 0), 1);
    ::close(Sp[1]);
  });

  ipc::FrameReader Reader;
  std::vector<std::pair<ipc::MsgType, std::string>> Frames;
  char C;
  ssize_t N;
  while ((N = ::recv(Sp[0], &C, 1, 0)) == 1) {
    Reader.feed(&C, 1);
    ipc::MsgType Type{};
    std::string Got;
    while (Reader.next(Type, Got))
      Frames.emplace_back(Type, Got);
  }
  EXPECT_EQ(N, 0); // clean EOF
  Writer.join();
  ::close(Sp[0]);

  ASSERT_EQ(Frames.size(), 1u);
  EXPECT_EQ(Frames[0].first, ipc::MsgType::Request);
  EXPECT_EQ(Frames[0].second, Body);
  EXPECT_FALSE(Reader.corrupt());
  EXPECT_FALSE(Reader.midFrame());
  EXPECT_EQ(Reader.bufferedBytes(), 0u);
}

TEST_F(IpcStream, FramesSplitAtEveryChunkSize) {
  std::string Wire;
  Wire += ipc::frameBytes(ipc::MsgType::Request, "first");
  Wire += ipc::frameBytes(ipc::MsgType::Response, std::string(1000, 'x'));
  Wire += ipc::frameBytes(ipc::MsgType::Request, "");
  for (std::size_t Chunk = 1; Chunk <= 17; ++Chunk) {
    ipc::FrameReader Reader;
    std::size_t Frames = 0;
    for (std::size_t Off = 0; Off < Wire.size(); Off += Chunk) {
      Reader.feed(Wire.data() + Off, std::min(Chunk, Wire.size() - Off));
      ipc::MsgType Type{};
      std::string Body;
      while (Reader.next(Type, Body))
        ++Frames;
    }
    EXPECT_EQ(Frames, 3u) << "chunk size " << Chunk;
    EXPECT_FALSE(Reader.corrupt()) << "chunk size " << Chunk;
    EXPECT_FALSE(Reader.midFrame()) << "chunk size " << Chunk;
  }
}

namespace {
std::atomic<int> SigusrHits{0};
void onSigusr1(int) { SigusrHits.fetch_add(1); }
} // namespace

TEST_F(IpcStream, BlockingReadFrameSurvivesEintr) {
  // A handler installed WITHOUT SA_RESTART makes recv/read fail with
  // EINTR; readFrame must retry, not report a torn frame.
  struct sigaction Sa, Old;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onSigusr1;
  sigemptyset(&Sa.sa_mask);
  Sa.sa_flags = 0; // no SA_RESTART — the point of the test
  ASSERT_EQ(::sigaction(SIGUSR1, &Sa, &Old), 0);
  SigusrHits.store(0);

  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  std::string Body(64 * 1024, 'q');
  std::string Wire = ipc::frameBytes(ipc::MsgType::Request, Body);

  std::atomic<bool> ReaderDone{false};
  ipc::ReadStatus Status = ipc::ReadStatus::Torn;
  std::string Got;
  std::thread Reader([&] {
    ipc::MsgType Type{};
    Status = ipc::readFrame(Sp[0], Type, Got);
    ReaderDone.store(true);
  });

  // Dribble the frame while peppering the blocked reader with signals.
  std::size_t Off = 0;
  while (Off < Wire.size()) {
    std::size_t Len = std::min<std::size_t>(4096, Wire.size() - Off);
    ASSERT_GT(::send(Sp[1], Wire.data() + Off, Len, 0), 0);
    Off += Len;
    pthread_kill(Reader.native_handle(), SIGUSR1);
    ::usleep(500);
  }
  while (!ReaderDone.load()) {
    pthread_kill(Reader.native_handle(), SIGUSR1);
    ::usleep(500);
  }
  Reader.join();
  ::close(Sp[0]);
  ::close(Sp[1]);
  ASSERT_EQ(::sigaction(SIGUSR1, &Old, nullptr), 0);

  EXPECT_EQ(Status, ipc::ReadStatus::Ok);
  EXPECT_EQ(Got, Body);
  EXPECT_GT(SigusrHits.load(), 0) << "test never actually interrupted";
}

TEST_F(IpcStream, MidFrameDisconnectIsTorn) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  std::string Wire = ipc::frameBytes(ipc::MsgType::Request, "cut short");
  // Header plus half the body, then the peer vanishes.
  ASSERT_GT(::send(Sp[1], Wire.data(), Wire.size() - 4, 0), 0);
  ::close(Sp[1]);

  ipc::MsgType Type{};
  std::string Body;
  EXPECT_EQ(ipc::readFrame(Sp[0], Type, Body), ipc::ReadStatus::Torn);
  ::close(Sp[0]);

  // The incremental reader reports the same situation as a mid-frame
  // stall (torn only once the peer is known dead), not as corruption.
  ipc::FrameReader Reader;
  Reader.feed(Wire.data(), Wire.size() - 4);
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.midFrame());
  EXPECT_FALSE(Reader.corrupt());
}

TEST_F(IpcStream, CleanEofBetweenFramesIsEof) {
  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ::close(Sp[1]); // no bytes at all
  ipc::MsgType Type{};
  std::string Body;
  EXPECT_EQ(ipc::readFrame(Sp[0], Type, Body), ipc::ReadStatus::Eof);
  ::close(Sp[0]);
}

TEST_F(IpcStream, HostileLengthPrefixRejectedBeforeAllocation) {
  // A 1 TiB announcement must be refused at the header, both by the
  // blocking reader and by FrameReader, without touching the body path.
  std::string Header = headerAnnouncing(1ull << 40);

  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_EQ(::send(Sp[1], Header.data(), Header.size(), 0),
            static_cast<ssize_t>(Header.size()));
  ipc::MsgType Type{};
  std::string Body;
  EXPECT_EQ(ipc::readFrame(Sp[0], Type, Body, /*MaxFrame=*/1u << 20),
            ipc::ReadStatus::Torn);
  ::close(Sp[0]);
  ::close(Sp[1]);

  ipc::FrameReader Reader(/*MaxFrame=*/1024);
  Reader.feed(Header.data(), Header.size());
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.corrupt());
  // Corruption is permanent: even a subsequent pristine frame is
  // untrusted once the stream desynchronized.
  std::string Good = ipc::frameBytes(ipc::MsgType::Request, "late");
  Reader.feed(Good.data(), Good.size());
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.corrupt());
}

// A peer of the FNV-1a 64 frame format ('OFR1', protocol version 2) is
// named stale on its magic alone: never parsed, never taken for a torn
// stream. Any other unknown magic stays plain corruption.
TEST_F(IpcStream, StaleFrameIsNamedNotParsed) {
  std::string Old = frameV1(ipc::MsgType::Hello, server::encodeHello(2));
  ipc::MsgType Type{};
  std::string Body;

  ipc::FrameReader Reader;
  Reader.feed(Old.data(), 4);
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.corrupt());
  EXPECT_TRUE(Reader.stale());
  Reader.feed(Old.data() + 4, Old.size() - 4);
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.stale());

  ipc::FrameReader Other;
  std::string Bad = frameHeader("OFR9", ipc::MsgType::Hello, 0, 0);
  Other.feed(Bad.data(), Bad.size());
  EXPECT_FALSE(Other.next(Type, Body));
  EXPECT_TRUE(Other.corrupt());
  EXPECT_FALSE(Other.stale());

  // The current format of the same body reads fine.
  ipc::FrameReader Current;
  std::string New =
      ipc::frameBytes(ipc::MsgType::Hello, server::encodeHello(2));
  Current.feed(New.data(), New.size());
  ASSERT_TRUE(Current.next(Type, Body));
  EXPECT_FALSE(Current.stale());

  int Sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_EQ(::send(Sp[1], Old.data(), Old.size(), 0),
            static_cast<ssize_t>(Old.size()));
  ASSERT_EQ(::send(Sp[1], Bad.data(), Bad.size(), 0),
            static_cast<ssize_t>(Bad.size()));
  EXPECT_EQ(ipc::readFrame(Sp[0], Type, Body), ipc::ReadStatus::Stale);
  ::close(Sp[0]);
  ::close(Sp[1]);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sp), 0);
  ASSERT_EQ(::send(Sp[1], Bad.data(), Bad.size(), 0),
            static_cast<ssize_t>(Bad.size()));
  EXPECT_EQ(ipc::readFrame(Sp[0], Type, Body), ipc::ReadStatus::Torn);
  ::close(Sp[0]);
  ::close(Sp[1]);
}

// The checksum field holds the CRC32C of the body, zero-extended: the
// header layout is pinned byte for byte.
TEST_F(IpcStream, FrameHeaderCarriesCrc32cOfTheBody) {
  std::string Body = "123456789";
  EXPECT_EQ(ipc::frameBytes(ipc::MsgType::Response, Body),
            frameHeader(FrameMagic, ipc::MsgType::Response, 9, 0xe3069283u) +
                Body);
  // beginFrame/endFrame build the same bytes in place after whatever
  // the buffer already holds.
  std::string Out = "pending";
  std::size_t Start = ipc::beginFrame(Out, ipc::MsgType::Response);
  Out += Body;
  ipc::endFrame(Out, Start);
  EXPECT_EQ(Out, "pending" + ipc::frameBytes(ipc::MsgType::Response, Body));
}

TEST_F(IpcStream, MaxFrameBoundIsExact) {
  std::string AtLimit = ipc::frameBytes(ipc::MsgType::Request,
                                        std::string(64, 'a'));
  std::string OverLimit = ipc::frameBytes(ipc::MsgType::Request,
                                          std::string(65, 'b'));
  ipc::MsgType Type{};
  std::string Body;

  ipc::FrameReader Tight(/*MaxFrame=*/64);
  Tight.feed(AtLimit.data(), AtLimit.size());
  ASSERT_TRUE(Tight.next(Type, Body));
  EXPECT_EQ(Body.size(), 64u);
  Tight.feed(OverLimit.data(), OverLimit.size());
  EXPECT_FALSE(Tight.next(Type, Body));
  EXPECT_TRUE(Tight.corrupt());

  // setMaxFrameBytes takes effect at the next header parse.
  ipc::FrameReader Relaxed(/*MaxFrame=*/64);
  Relaxed.setMaxFrameBytes(65);
  Relaxed.feed(OverLimit.data(), OverLimit.size());
  ASSERT_TRUE(Relaxed.next(Type, Body));
  EXPECT_EQ(Body.size(), 65u);
}

TEST_F(IpcStream, GarbageMagicIsCorrupt) {
  ipc::FrameReader Reader;
  const char Garbage[] = "HTTP/1.1 200 OK\r\n\r\n";
  Reader.feed(Garbage, sizeof(Garbage) - 1);
  ipc::MsgType Type{};
  std::string Body;
  EXPECT_FALSE(Reader.next(Type, Body));
  EXPECT_TRUE(Reader.corrupt());
}

// --- Request/response codecs ------------------------------------------------

class DaemonProtocol : public ::testing::Test {};

TEST_F(DaemonProtocol, AnalyzeRequestRoundTripsBinarySafely) {
  server::AnalyzeRequest In;
  In.Id = 0xdeadbeefcafeull;
  In.Job.Name = std::string("weird name\nwith % and \x01", 23);
  In.Job.Source = std::string("var x;\nx = 0;\0trailing", 22);
  In.Engine.WideningDelay = 7;
  In.Engine.NarrowingPasses = 0;
  In.Engine.MaxBlockVisits = 1234;
  In.Engine.LinearizeGuards = false;
  In.Engine.WideningThresholds = {1.5, -3.25, 2.0e10};
  In.MaxDbmCells = 4096;
  In.NoCache = true;

  std::string Body = server::encodeAnalyzeRequest(In);
  EXPECT_EQ(server::peekRequestKind(Body), server::RequestKind::Analyze);

  server::AnalyzeRequest Out;
  std::string Error;
  ASSERT_TRUE(server::decodeAnalyzeRequest(Body, Out, Error)) << Error;
  EXPECT_EQ(Out.Id, In.Id);
  EXPECT_EQ(Out.Job.Name, In.Job.Name);
  EXPECT_EQ(Out.Job.Source, In.Job.Source);
  EXPECT_EQ(Out.Engine.WideningDelay, 7u);
  EXPECT_EQ(Out.Engine.NarrowingPasses, 0u);
  EXPECT_EQ(Out.Engine.MaxBlockVisits, 1234u);
  EXPECT_FALSE(Out.Engine.LinearizeGuards);
  EXPECT_EQ(Out.Engine.WideningThresholds, In.Engine.WideningThresholds);
  EXPECT_EQ(Out.MaxDbmCells, 4096u);
  EXPECT_TRUE(Out.NoCache);
}

TEST_F(DaemonProtocol, MinimalRequestGetsEngineDefaults) {
  server::AnalyzeRequest Out;
  std::string Error;
  ASSERT_TRUE(server::decodeAnalyzeRequest(
      "areq 9\nname n\nsource s\nend\n", Out, Error))
      << Error;
  analysis::AnalysisOptions Defaults;
  EXPECT_EQ(Out.Id, 9u);
  EXPECT_EQ(Out.Engine.WideningDelay, Defaults.WideningDelay);
  EXPECT_EQ(Out.Engine.NarrowingPasses, Defaults.NarrowingPasses);
  EXPECT_EQ(Out.Engine.MaxBlockVisits, Defaults.MaxBlockVisits);
  EXPECT_EQ(Out.Engine.LinearizeGuards, Defaults.LinearizeGuards);
  EXPECT_TRUE(Out.Engine.WideningThresholds.empty());
  EXPECT_EQ(Out.MaxDbmCells, 0u);
  EXPECT_FALSE(Out.NoCache);
}

TEST_F(DaemonProtocol, UnknownKeysAreSkippedForForwardCompatibility) {
  server::AnalyzeRequest Out;
  std::string Error;
  EXPECT_TRUE(server::decodeAnalyzeRequest(
      "areq 1\nname n\nfuturefield 42\nsource s\nend\n", Out, Error))
      << Error;
  EXPECT_EQ(Out.Job.Name, "n");
}

TEST_F(DaemonProtocol, RejectsMalformedRequests) {
  server::AnalyzeRequest Out;
  std::string Error;
  // Missing terminator: could be a truncated body.
  EXPECT_FALSE(server::decodeAnalyzeRequest("areq 1\nname n\nsource s\n",
                                            Out, Error));
  // Missing mandatory fields.
  EXPECT_FALSE(
      server::decodeAnalyzeRequest("areq 2\nsource s\nend\n", Out, Error));
  EXPECT_FALSE(
      server::decodeAnalyzeRequest("areq 3\nname n\nend\n", Out, Error));
  // A malformed value is a rejection, never a default.
  EXPECT_FALSE(server::decodeAnalyzeRequest(
      "areq 4\nname n\nsource s\nwdelay banana\nend\n", Out, Error));
  // The id still parses out of a rejected body so the daemon can
  // correlate its rejection response.
  EXPECT_EQ(Out.Id, 4u);
  // Wrong tag entirely.
  EXPECT_FALSE(server::decodeAnalyzeRequest("zreq 5\nend\n", Out, Error));
  EXPECT_EQ(server::peekRequestKind("zreq 5\nend\n"),
            server::RequestKind::Invalid);
  EXPECT_EQ(server::peekRequestKind(""), server::RequestKind::Invalid);
}

TEST_F(DaemonProtocol, ResponseRoundTrip) {
  server::AnalyzeResponse In;
  In.Id = 77;
  In.Ok = true;
  In.Cached = true;
  In.Key = 0x0123456789abcdefull;
  In.ResultRecord = std::string("record\nwith\nlines % and \x7f", 26);
  // The exact wire bytes: replies are compared byte for byte across
  // builds, so the encoding must never drift.
  EXPECT_EQ(server::encodeAnalyzeResponse(In),
            "ares 77\noutcome ok\ncached 1\nkey 0123456789abcdef\n"
            "result record%0awith%0alines %25 and %7f%00\nend\n");
  server::AnalyzeResponse Out;
  std::string Error;
  ASSERT_TRUE(server::decodeAnalyzeResponse(server::encodeAnalyzeResponse(In),
                                            Out, Error))
      << Error;
  EXPECT_EQ(Out.Id, 77u);
  EXPECT_TRUE(Out.Ok);
  EXPECT_TRUE(Out.Cached);
  EXPECT_EQ(Out.Key, In.Key);
  EXPECT_EQ(Out.ResultRecord, In.ResultRecord);

  server::AnalyzeResponse Reject;
  Reject.Id = 78;
  Reject.Ok = false;
  Reject.Error = "malformed request: no source";
  ASSERT_TRUE(server::decodeAnalyzeResponse(
      server::encodeAnalyzeResponse(Reject), Out, Error))
      << Error;
  EXPECT_EQ(Out.Id, 78u);
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Error, Reject.Error);
  EXPECT_TRUE(Out.ResultRecord.empty());
}

TEST_F(DaemonProtocol, StatsRoundTrip) {
  server::DaemonStats In;
  In.Requests = 1;
  In.Served = 2;
  In.Rejected = 3;
  In.CrashedReplies = 4;
  In.TimeoutReplies = 5;
  In.CacheHits = 6;
  In.CacheMisses = 7;
  In.CacheEntries = 8;
  In.CacheBytes = 9;
  In.CacheEvictions = 10;
  In.Workers = 11;
  In.WorkersSpawned = 12;
  In.WorkersCrashed = 13;
  In.WorkersRecycled = 14;
  In.HardKills = 15;

  std::string Req = server::encodeStatsRequest(21);
  EXPECT_EQ(server::peekRequestKind(Req), server::RequestKind::Stats);
  std::uint64_t Id = 0;
  ASSERT_TRUE(server::decodeStatsRequest(Req, Id));
  EXPECT_EQ(Id, 21u);

  server::DaemonStats Out;
  std::string Error;
  ASSERT_TRUE(server::decodeStatsResponse(server::encodeStatsResponse(21, In),
                                          Id, Out, Error))
      << Error;
  EXPECT_EQ(Id, 21u);
  EXPECT_EQ(Out.Requests, 1u);
  EXPECT_EQ(Out.Served, 2u);
  EXPECT_EQ(Out.Rejected, 3u);
  EXPECT_EQ(Out.CrashedReplies, 4u);
  EXPECT_EQ(Out.TimeoutReplies, 5u);
  EXPECT_EQ(Out.CacheHits, 6u);
  EXPECT_EQ(Out.CacheMisses, 7u);
  EXPECT_EQ(Out.CacheEntries, 8u);
  EXPECT_EQ(Out.CacheBytes, 9u);
  EXPECT_EQ(Out.CacheEvictions, 10u);
  EXPECT_EQ(Out.Workers, 11u);
  EXPECT_EQ(Out.WorkersSpawned, 12u);
  EXPECT_EQ(Out.WorkersCrashed, 13u);
  EXPECT_EQ(Out.WorkersRecycled, 14u);
  EXPECT_EQ(Out.HardKills, 15u);
}

TEST_F(DaemonProtocol, FingerprintKeysOnContentNotIdentity) {
  server::AnalyzeRequest A;
  A.Id = 1;
  A.Job.Name = "prog";
  A.Job.Source = loopProgram(10);

  server::AnalyzeRequest B = A;
  B.Id = 999;       // correlation id is not content
  B.NoCache = true; // neither is the cache directive
  EXPECT_EQ(server::requestFingerprint(A), server::requestFingerprint(B));

  server::AnalyzeRequest C = A;
  C.Job.Source = loopProgram(11);
  EXPECT_NE(server::requestFingerprint(A), server::requestFingerprint(C));

  // Every result-shaping knob separates keys: the same program under
  // different options has genuinely different invariants.
  server::AnalyzeRequest D = A;
  D.Engine.WideningDelay += 1;
  EXPECT_NE(server::requestFingerprint(A), server::requestFingerprint(D));
  server::AnalyzeRequest E = A;
  E.Engine.WideningThresholds = {64.0};
  EXPECT_NE(server::requestFingerprint(A), server::requestFingerprint(E));
  server::AnalyzeRequest F = A;
  F.MaxDbmCells = 1u << 20;
  EXPECT_NE(server::requestFingerprint(A), server::requestFingerprint(F));
}

TEST_F(DaemonProtocol, CanonicalizeZeroesOnlyTimingFields) {
  JobResult R;
  R.Name = "j";
  R.Ok = true;
  R.Status = JobStatus::Ok;
  R.AssertsProven = 2;
  R.AssertsTotal = 2;
  R.NumClosures = 17;
  R.WallSeconds = 1.25;
  R.ClosureCycles = 123456;
  R.OctagonCycles = 654321;
  server::canonicalizeResult(R);
  EXPECT_EQ(R.WallSeconds, 0.0);
  EXPECT_EQ(R.ClosureCycles, 0u);
  EXPECT_EQ(R.OctagonCycles, 0u);
  // Everything semantic survives.
  EXPECT_EQ(R.NumClosures, 17u);
  EXPECT_EQ(R.AssertsProven, 2u);
  EXPECT_TRUE(R.Ok);
}

// --- The LRU invariant cache ------------------------------------------------

class DaemonCache : public ::testing::Test {};

TEST_F(DaemonCache, HitMissAndCounters) {
  server::InvariantCache Cache(1u << 20);
  std::string Record;
  EXPECT_FALSE(Cache.lookup(1, Record));
  Cache.insert(1, "alpha");
  EXPECT_TRUE(Cache.lookup(1, Record));
  EXPECT_EQ(Record, "alpha");
  EXPECT_EQ(Cache.counters().Hits, 1u);
  EXPECT_EQ(Cache.counters().Misses, 1u);
  EXPECT_EQ(Cache.counters().Insertions, 1u);
  EXPECT_EQ(Cache.entries(), 1u);
  EXPECT_EQ(Cache.bytes(),
            5 + server::InvariantCache::EntryOverheadBytes);
}

TEST_F(DaemonCache, LruEvictsColdestUnderByteBudget) {
  // Room for exactly three 100-byte records.
  const std::size_t Slot = 100 + server::InvariantCache::EntryOverheadBytes;
  server::InvariantCache Cache(3 * Slot);
  Cache.insert(1, std::string(100, 'a'));
  Cache.insert(2, std::string(100, 'b'));
  Cache.insert(3, std::string(100, 'c'));
  EXPECT_EQ(Cache.entries(), 3u);

  // Touch 1: it becomes hottest, leaving 2 coldest.
  std::string Record;
  ASSERT_TRUE(Cache.lookup(1, Record));
  Cache.insert(4, std::string(100, 'd'));

  EXPECT_EQ(Cache.entries(), 3u);
  EXPECT_EQ(Cache.counters().Evictions, 1u);
  EXPECT_TRUE(Cache.lookup(1, Record));
  EXPECT_FALSE(Cache.lookup(2, Record)) << "LRU must evict the coldest";
  EXPECT_TRUE(Cache.lookup(3, Record));
  EXPECT_TRUE(Cache.lookup(4, Record));
  EXPECT_LE(Cache.bytes(), Cache.maxBytes());
}

TEST_F(DaemonCache, ReinsertReplacesInPlace) {
  server::InvariantCache Cache(1u << 20);
  Cache.insert(9, "old");
  Cache.insert(9, "newer");
  EXPECT_EQ(Cache.entries(), 1u);
  std::string Record;
  ASSERT_TRUE(Cache.lookup(9, Record));
  EXPECT_EQ(Record, "newer");
  EXPECT_EQ(Cache.bytes(),
            5 + server::InvariantCache::EntryOverheadBytes);
}

TEST_F(DaemonCache, RecordLargerThanBudgetIsNotCached) {
  server::InvariantCache Cache(256);
  Cache.insert(1, std::string(4096, 'z'));
  EXPECT_EQ(Cache.entries(), 0u);
  EXPECT_EQ(Cache.bytes(), 0u);
  // And it must not have evicted a fitting resident to make room.
  Cache.insert(2, "small");
  Cache.insert(1, std::string(4096, 'z'));
  std::string Record;
  EXPECT_TRUE(Cache.lookup(2, Record));
}

TEST_F(DaemonCache, SaveLoadRoundTripPreservesEntriesAndRecency) {
  std::string Path = tempPath("cache_rt");
  std::string Error;
  {
    server::InvariantCache Cache(1u << 20);
    Cache.insert(1, "one");
    Cache.insert(2, std::string("two\nwith % binary \x02", 19));
    Cache.insert(3, "three");
    std::string Record;
    ASSERT_TRUE(Cache.lookup(1, Record)); // 1 hottest, 2 coldest
    ASSERT_TRUE(Cache.save(Path, Error)) << Error;
  }
  // The exact snapshot bytes, cold to hot: the format on disk is fixed.
  {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(Bytes, CacheMagicLine +
                         snapshotEntry(2, std::string("two\nwith % binary \x02",
                                                      19)) +
                         snapshotEntry(3, "three") + snapshotEntry(1, "one"));
  }
  const std::size_t Slot2 = 19 + server::InvariantCache::EntryOverheadBytes;
  const std::size_t SlotSmall =
      5 + server::InvariantCache::EntryOverheadBytes;
  server::InvariantCache Cache(1u << 20);
  ASSERT_TRUE(Cache.load(Path, Error)) << Error;
  EXPECT_EQ(Cache.entries(), 3u);
  EXPECT_EQ(Cache.bytes(), Slot2 + SlotSmall +
                               (3 + server::InvariantCache::EntryOverheadBytes));
  std::string Record;
  ASSERT_TRUE(Cache.lookup(2, Record));
  EXPECT_EQ(Record, std::string("two\nwith % binary \x02", 19));

  // Recency survived the round trip: shrink the budget by inserting
  // into a fresh cache loaded from the same file and confirm the entry
  // that was coldest at save time is the one to go.
  server::InvariantCache Tight(3 * (8 + server::InvariantCache::EntryOverheadBytes));
  ASSERT_TRUE(Tight.load(Path, Error)) << Error;
  Tight.insert(4, "fourfour");
  EXPECT_FALSE(Tight.lookup(2, Record))
      << "coldest-at-save must still be coldest after load";
  EXPECT_TRUE(Tight.lookup(1, Record));
  ::unlink(Path.c_str());
}

TEST_F(DaemonCache, MissingFileIsAFreshStart) {
  server::InvariantCache Cache(1u << 20);
  std::string Error;
  EXPECT_TRUE(Cache.load(tempPath("cache_nonexistent"), Error)) << Error;
  EXPECT_EQ(Cache.entries(), 0u);
}

TEST_F(DaemonCache, LoadSalvagesValidPrefixOfTornFile) {
  std::string Path = tempPath("cache_torn");
  std::string Error;
  {
    server::InvariantCache Cache(1u << 20);
    Cache.insert(1, std::string(200, 'a'));
    Cache.insert(2, std::string(200, 'b'));
    Cache.insert(3, std::string(200, 'c'));
    ASSERT_TRUE(Cache.save(Path, Error)) << Error;
  }
  // Tear the tail mid-record, as a crash mid-write would.
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 120u);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 100));
  }
  server::InvariantCache Cache(1u << 20);
  EXPECT_TRUE(Cache.load(Path, Error)) << Error;
  EXPECT_EQ(Cache.entries(), 2u) << "longest valid prefix";

  // A flipped byte inside an early record stops the load there: the
  // checksum refuses to resurrect corrupt invariants.
  {
    std::string Flipped = Bytes;
    Flipped[Flipped.size() / 2] ^= 0x40;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Flipped.data(), static_cast<std::streamsize>(Flipped.size()));
  }
  server::InvariantCache Cache2(1u << 20);
  EXPECT_TRUE(Cache2.load(Path, Error)) << Error;
  EXPECT_LT(Cache2.entries(), 3u);
  ::unlink(Path.c_str());
}

TEST_F(DaemonCache, LoadReportsSalvageDiagnostics) {
  std::string Path = tempPath("cache_diag");
  std::string Error;
  {
    server::InvariantCache Cache(1u << 20);
    Cache.insert(1, std::string(200, 'a'));
    Cache.insert(2, std::string(200, 'b'));
    Cache.insert(3, std::string(200, 'c'));
    ASSERT_TRUE(Cache.save(Path, Error)) << Error;
  }
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();

  // Clean load: no corruption reported, every byte accounted for.
  {
    server::InvariantCache Cache(1u << 20);
    server::CacheLoadStats Stats;
    ASSERT_TRUE(Cache.load(Path, Error, &Stats)) << Error;
    EXPECT_EQ(Stats.EntriesLoaded, 3u);
    EXPECT_EQ(Stats.BytesKept, Bytes.size());
    EXPECT_EQ(Stats.BytesDiscarded, 0u);
    EXPECT_TRUE(Stats.Corruption.empty());
  }

  // Truncation mid-record: two entries salvaged, tail bytes counted.
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size() - 100));
  }
  {
    server::InvariantCache Cache(1u << 20);
    server::CacheLoadStats Stats;
    ASSERT_TRUE(Cache.load(Path, Error, &Stats)) << Error;
    EXPECT_EQ(Stats.EntriesLoaded, 2u);
    EXPECT_EQ(Stats.Corruption, "truncated record body");
    EXPECT_GT(Stats.BytesDiscarded, 0u);
    EXPECT_EQ(Stats.BytesKept + Stats.BytesDiscarded, Bytes.size() - 100);
  }

  // A bit flip inside a record body trips its checksum, and the stats
  // name the reason.
  {
    std::string Flipped = Bytes;
    Flipped[Flipped.size() / 2] ^= 0x40;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Flipped.data(), static_cast<std::streamsize>(Flipped.size()));
  }
  {
    server::InvariantCache Cache(1u << 20);
    server::CacheLoadStats Stats;
    ASSERT_TRUE(Cache.load(Path, Error, &Stats)) << Error;
    EXPECT_LT(Stats.EntriesLoaded, 3u);
    EXPECT_EQ(Stats.Corruption, "record checksum mismatch");
    EXPECT_GT(Stats.BytesDiscarded, 0u);
  }

  // A flipped magic header rejects the whole file — but still via a
  // false return the caller can log, with the size it threw away.
  {
    std::string BadMagic = Bytes;
    BadMagic[0] ^= 0x01;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(BadMagic.data(), static_cast<std::streamsize>(BadMagic.size()));
  }
  {
    server::InvariantCache Cache(1u << 20);
    server::CacheLoadStats Stats;
    EXPECT_FALSE(Cache.load(Path, Error, &Stats));
    EXPECT_EQ(Error, "bad cache magic");
    EXPECT_EQ(Stats.BytesDiscarded, Bytes.size());
    EXPECT_EQ(Cache.entries(), 0u);
  }
  ::unlink(Path.c_str());
}

TEST_F(DaemonCache, LoadRejectsForeignFile) {
  std::string Path = tempPath("cache_foreign");
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "definitely not a cache file\n";
  }
  server::InvariantCache Cache(1u << 20);
  std::string Error;
  EXPECT_FALSE(Cache.load(Path, Error));
  EXPECT_FALSE(Error.empty());
  ::unlink(Path.c_str());
}

// --- Streaming snapshot reader vs the whole-blob parser ---------------------

namespace {

/// The whole-blob snapshot parser InvariantCache::load used before it
/// streamed, kept here as the salvage reference: the streaming reader
/// must keep exactly the entries and report exactly the stats this one
/// does on every damaged file.
bool referenceParse(const std::string &Data,
                    std::vector<std::pair<std::uint64_t, std::string>> &Out,
                    server::CacheLoadStats &S, std::string &Error) {
  std::size_t Pos = Data.find('\n');
  if (Pos == std::string::npos || Data.substr(0, Pos + 1) != CacheMagicLine) {
    Error = Data.substr(0, Pos + 1) == CacheMagicLineV1
                ? "stale cache snapshot (optoct-cache v1, this build reads v2)"
                : "bad cache magic";
    S.BytesDiscarded = Data.size();
    return false;
  }
  ++Pos;
  auto Salvage = [&](const char *Why) {
    S.Corruption = Why;
    S.BytesKept = Pos;
    S.BytesDiscarded = Data.size() - Pos;
    return true;
  };
  while (Pos < Data.size()) {
    std::size_t Nl = Data.find('\n', Pos);
    if (Nl == std::string::npos)
      return Salvage("torn entry header");
    std::string Line = Data.substr(Pos, Nl - Pos);
    if (Line.rfind("ent ", 0) != 0)
      return Salvage("unrecognized entry line");
    std::istringstream Fields(Line.substr(4));
    std::string KeyS, LenS, SumS;
    std::uint64_t Key = 0, Len = 0, Sum = 0;
    if (!(Fields >> KeyS >> LenS >> SumS) ||
        !support::parseHex64(KeyS, Key) || !support::parseU64(LenS, Len) ||
        !support::parseHex64(SumS, Sum))
      return Salvage("malformed entry header");
    std::size_t BodyStart = Nl + 1;
    if (Len > Data.size() - BodyStart)
      return Salvage("truncated record body");
    std::string Record = Data.substr(BodyStart, static_cast<std::size_t>(Len));
    if (support::crc32c(Record) != Sum)
      return Salvage("record checksum mismatch");
    Pos = BodyStart + static_cast<std::size_t>(Len);
    Out.emplace_back(Key, std::move(Record));
    ++S.EntriesLoaded;
    S.BytesKept = Pos;
  }
  return true;
}

void writeBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// What a cache holds, in recency order: its save() bytes.
std::string savedBytes(const server::InvariantCache &C,
                       const std::string &Path) {
  std::string Error;
  EXPECT_TRUE(C.save(Path, Error)) << Error;
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// Loads \p Bytes through InvariantCache::load and through the
/// reference parser; both must agree on the result, the error, every
/// stat and the entries kept.
void expectSalvageParity(const std::string &Bytes, const std::string &What) {
  SCOPED_TRACE(What);
  std::string Path = tempPath("parity.cache");
  std::string SavePath = tempPath("parity.saved");
  writeBytes(Path, Bytes);

  server::InvariantCache Got(1u << 30);
  server::CacheLoadStats GotStats;
  std::string GotError;
  bool GotOk = Got.load(Path, GotError, &GotStats);

  std::vector<std::pair<std::uint64_t, std::string>> Ref;
  server::CacheLoadStats RefStats;
  std::string RefError;
  bool RefOk = referenceParse(Bytes, Ref, RefStats, RefError);
  server::InvariantCache Want(1u << 30);
  for (auto &E : Ref)
    Want.insert(E.first, E.second);

  EXPECT_EQ(GotOk, RefOk);
  EXPECT_EQ(GotError, RefError);
  EXPECT_EQ(GotStats.EntriesLoaded, RefStats.EntriesLoaded);
  EXPECT_EQ(GotStats.BytesKept, RefStats.BytesKept);
  EXPECT_EQ(GotStats.BytesDiscarded, RefStats.BytesDiscarded);
  EXPECT_EQ(GotStats.Corruption, RefStats.Corruption);
  EXPECT_EQ(Got.entries(), Want.entries());
  EXPECT_EQ(savedBytes(Got, SavePath), savedBytes(Want, SavePath));
  ::unlink(Path.c_str());
  ::unlink(SavePath.c_str());
}

} // namespace

TEST_F(DaemonCache, StreamingLoadSalvagesExactlyLikeWholeBlobParser) {
  const std::string Magic = CacheMagicLine;
  // Records with newlines, spaces, '%' and binary bytes, an empty one,
  // and one larger than the reader's buffer.
  std::vector<std::pair<std::uint64_t, std::string>> Entries = {
      {0x1111, "ok 1/1\ninv x <= 10\n"},
      {0x2222, std::string("bin\0\x01\xff % ent 1 2 3\n", 19)},
      {0x3333, ""},
      {0x4444, std::string(70000, 'z') + "\nend"},
      {0x5555, "last"}};
  std::string Sound = Magic;
  std::vector<std::size_t> Boundaries = {0, Magic.size() - 1, Magic.size()};
  for (const auto &E : Entries) {
    std::size_t HeaderStart = Sound.size();
    Sound += snapshotEntry(E.first, E.second);
    std::size_t BodyStart = Sound.size() - E.second.size();
    for (std::size_t B : {HeaderStart, HeaderStart + 1, HeaderStart + 4,
                          BodyStart - 1, BodyStart, BodyStart + 1,
                          Sound.size() - 1, Sound.size()})
      Boundaries.push_back(std::min(B, Sound.size()));
  }
  expectSalvageParity(Sound, "sound snapshot");
  expectSalvageParity(Magic, "magic only");

  // Truncation at every header and body boundary, and at every byte of
  // the small entries.
  for (std::size_t B : Boundaries)
    expectSalvageParity(Sound.substr(0, B), "cut at " + std::to_string(B));
  for (std::size_t B = 0; B != Magic.size() + 120; ++B)
    expectSalvageParity(Sound.substr(0, B), "cut at " + std::to_string(B));

  // Byte flips: every bit of every header byte and seeded positions in
  // the bodies.
  std::string Small = Magic;
  for (const auto &E : Entries)
    if (E.second.size() < 100)
      Small += snapshotEntry(E.first, E.second);
  for (std::size_t I = 0; I != Small.size(); ++I)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Flipped = Small;
      Flipped[I] = static_cast<char>(Flipped[I] ^ (1 << Bit));
      expectSalvageParity(Flipped, "flip byte " + std::to_string(I) +
                                       " bit " + std::to_string(Bit));
    }
  std::mt19937_64 Rng(0x5eed);
  for (int N = 0; N != 200; ++N) {
    std::string Flipped = Sound;
    std::size_t I = Rng() % Flipped.size();
    Flipped[I] = static_cast<char>(Flipped[I] ^ (1 + Rng() % 255));
    expectSalvageParity(Flipped, "random flip at " + std::to_string(I));
  }

  // Header fields strtoull accepted or rejected at the edges: 0x and +
  // prefixes, extra whitespace of every kind, leading zeros, upper-case
  // hex, signs, overflow, trailing fields and missing ones.
  const std::string Rec = "record body\n";
  const std::string Key = "00000000deadbeef";
  const std::string Len = std::to_string(Rec.size());
  const std::string Sum = support::hex64(support::crc32c(Rec));
  const std::string Tail = snapshotEntry(0x6666, "after");
  std::vector<std::string> Headers = {
      entryHeader("0x" + Key, Len, Sum),
      entryHeader("0X" + Key, Len, "0x" + Sum),
      entryHeader(Key, "+" + Len, Sum),
      entryHeader("+" + Key, Len, "+0x" + Sum),
      entryHeader(" " + Key, " " + Len, " " + Sum),
      "ent\t" + Key + "\t" + Len + "\v" + Sum + "\f\r\n",
      "ent  " + Key + "   " + Len + " " + Sum + " extra fields\n",
      entryHeader("000000" + Key, "000" + Len, "0000" + Sum),
      entryHeader("DEADBEEF", Len, Sum),
      entryHeader("-" + Key, Len, Sum),
      entryHeader(Key, "-" + Len, Sum),
      entryHeader(Key, "0x" + Len, Sum),
      entryHeader(Key, Len, "1" + Sum),
      entryHeader(Key, "99999999999999999999999", Sum),
      entryHeader(Key, "18446744073709551615", Sum),
      entryHeader(Key, std::to_string(Rec.size() + 1), Sum),
      entryHeader(Key, std::to_string(Rec.size() - 1), Sum),
      entryHeader(Key, Len, "g" + Sum),
      entryHeader(Key + "\0"s, Len, Sum),
      "ent " + Key + " " + Len + "\n",
      "ent " + Key + "\n",
      "ent \n",
      "ent" + Key + " " + Len + " " + Sum + "\n",
      "ENT " + Key + " " + Len + " " + Sum + "\n",
      " ent " + Key + " " + Len + " " + Sum + "\n",
      "\n",
  };
  for (const std::string &H : Headers) {
    expectSalvageParity(Magic + H + Rec + Tail, "header " + H);
    expectSalvageParity(Magic + Tail + H + Rec, "second header " + H);
    expectSalvageParity(Magic + H, "bare header " + H);
  }

  // Bad magic: every byte of it flipped, cut, padded, or missing.
  for (std::size_t I = 0; I != Magic.size(); ++I) {
    std::string Bad = Sound;
    Bad[I] = static_cast<char>(Bad[I] ^ 0x20);
    expectSalvageParity(Bad, "magic flip " + std::to_string(I));
  }
  for (const std::string &M :
       {"optoct-cache v2"s, "optoct-cache v2 \n"s, "optoct-cache v21\n"s,
        "optoct-cache v\n"s, "\n"s, ""s, "optoct-cache v2\r\n"s,
        "xoptoct-cache v2\n"s, "optoct-cache v1\n"s, "optoct-cache v1"s, "optoct-cache v3\n"s,
        std::string(100000, 'q')})
    expectSalvageParity(M + Sound.substr(Magic.size()), "magic " + M);
}

// A copy has its own recency list: promoting or inserting in the copy
// leaves the original's entries and order as they were.
// A v1 snapshot (FNV-1a 64 checksums) is refused whole and by name;
// none of its entries is loaded, though each one is sound in its own
// format.
TEST_F(DaemonCache, StaleSnapshotIsRefusedByName) {
  std::string Path = tempPath("cache_v1");
  writeBytes(Path, CacheMagicLineV1 + snapshotEntryV1(1, "one") +
                       snapshotEntryV1(2, "two"));
  server::InvariantCache Cache(1u << 20);
  server::CacheLoadStats Stats;
  std::string Error;
  EXPECT_FALSE(Cache.load(Path, Error, &Stats));
  EXPECT_EQ(Error,
            "stale cache snapshot (optoct-cache v1, this build reads v2)");
  EXPECT_EQ(Cache.entries(), 0u);
  EXPECT_EQ(Stats.EntriesLoaded, 0u);
  ::unlink(Path.c_str());
}

TEST_F(DaemonCache, CopyIsIndependentOfTheOriginal) {
  std::string Path = tempPath("cache_copy");
  server::InvariantCache Orig(1u << 20);
  Orig.insert(1, "one");
  Orig.insert(2, "two");
  Orig.insert(3, "three");
  std::string Before = savedBytes(Orig, Path);
  {
    server::InvariantCache Copy = Orig;
    std::string Record;
    ASSERT_TRUE(Copy.lookup(1, Record));
    EXPECT_EQ(Record, "one");
    Copy.insert(4, "four");
    EXPECT_EQ(Copy.entries(), 4u);
    server::InvariantCache Assigned(1u << 10);
    Assigned = Copy;
    ASSERT_TRUE(Assigned.lookup(2, Record));
    EXPECT_EQ(Assigned.entries(), 4u);
  }
  EXPECT_EQ(Orig.entries(), 3u);
  EXPECT_EQ(savedBytes(Orig, Path), Before);
  ::unlink(Path.c_str());
}

// --- The daemon end to end --------------------------------------------------

namespace {

/// Starts an in-process daemon on a std::thread and tears it down in
/// TearDown. Fault rules must be armed BEFORE startServer(): workers
/// inherit the global plan at fork.
class Daemon : public ::testing::Test {
protected:
  void SetUp() override { support::FaultPlan::global().clear(); }

  void TearDown() override {
    stopServer();
    support::FaultPlan::global().clear();
  }

  void startServer(server::ServerOptions Opts) {
    if (Opts.SocketPath.empty())
      Opts.SocketPath = tempPath("daemon.sock");
    SocketPath = Opts.SocketPath;
    Srv = std::make_unique<server::Server>(std::move(Opts));
    std::string Error;
    ASSERT_TRUE(Srv->start(Error)) << Error;
    Loop = std::thread([this] { Srv->serve(); });
  }

  void stopServer() {
    if (Loop.joinable()) {
      Srv->requestStop();
      Loop.join();
    }
    Srv.reset();
    if (!SocketPath.empty())
      ::unlink(SocketPath.c_str());
  }

  void connect(server::DaemonClient &Client) {
    std::string Error;
    ASSERT_TRUE(Client.connect(SocketPath, Error)) << Error;
  }

  void arm(const std::string &Rule) {
    std::string Error;
    ASSERT_TRUE(support::FaultPlan::global().parseRule(Rule, Error)) << Error;
  }

  /// Analyze expecting a served (Ok) response; returns the decoded
  /// result record.
  JobResult served(server::DaemonClient &Client, server::AnalyzeRequest Req,
                   server::AnalyzeResponse &Resp) {
    std::string Error;
    EXPECT_TRUE(Client.analyze(std::move(Req), Resp, Error)) << Error;
    EXPECT_TRUE(Resp.Ok) << Resp.Error;
    JobResult R;
    EXPECT_TRUE(deserializeJobResult(Resp.ResultRecord, R, Error)) << Error;
    return R;
  }

  std::unique_ptr<server::Server> Srv;
  std::thread Loop;
  std::string SocketPath;
};

/// Raw-socket client for protocol-violation tests the cooperative
/// DaemonClient cannot express.
int rawConnect(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// Reads until EOF (or error), discarding; returns total bytes seen.
std::size_t drainUntilEof(int Fd) {
  std::size_t Total = 0;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Total += static_cast<std::size_t>(N);
  return Total;
}

} // namespace

TEST_F(Daemon, ServesAndReplaysByteIdenticalFromCache) {
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);

  server::DaemonClient Client;
  connect(Client);

  server::AnalyzeRequest Req;
  Req.Job.Name = "loop12";
  Req.Job.Source = loopProgram(12);
  server::AnalyzeResponse Cold;
  JobResult R = served(Client, Req, Cold);
  EXPECT_FALSE(Cold.Cached);
  EXPECT_NE(Cold.Key, 0u);
  EXPECT_EQ(R.Status, JobStatus::Ok);
  EXPECT_EQ(R.AssertsProven, 2u);
  EXPECT_EQ(R.AssertsTotal, 2u);
  EXPECT_FALSE(R.LoopInvariants.empty());
  // Canonicalized before the cold reply too, not only before caching.
  EXPECT_EQ(R.WallSeconds, 0.0);
  EXPECT_EQ(R.ClosureCycles, 0u);

  server::AnalyzeResponse Warm;
  served(Client, Req, Warm);
  EXPECT_TRUE(Warm.Cached);
  EXPECT_EQ(Warm.Key, Cold.Key);
  EXPECT_EQ(Warm.ResultRecord, Cold.ResultRecord)
      << "cached replay must be byte-identical to the cold response";

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.Requests, 2u);
  EXPECT_EQ(Stats.Served, 2u);
  EXPECT_EQ(Stats.CacheMisses, 1u);
  EXPECT_EQ(Stats.CacheHits, 1u);
  EXPECT_EQ(Stats.CacheEntries, 1u);
  EXPECT_EQ(Stats.Workers, 1u);
}

TEST_F(Daemon, EngineOptionsSeparateCacheEntriesAndShapeResults) {
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  server::DaemonClient Client;
  connect(Client);

  server::AnalyzeRequest Plain;
  Plain.Job.Name = "prog";
  Plain.Job.Source = loopProgram(20);
  server::AnalyzeResponse RespPlain;
  served(Client, Plain, RespPlain);

  // Same program, different widening delay: a different request.
  server::AnalyzeRequest Tuned = Plain;
  Tuned.Engine.WideningDelay = 6;
  server::AnalyzeResponse RespTuned;
  served(Client, Tuned, RespTuned);
  EXPECT_FALSE(RespTuned.Cached);
  EXPECT_NE(RespTuned.Key, RespPlain.Key);

  // Each keyed entry replays independently.
  server::AnalyzeResponse Again;
  served(Client, Tuned, Again);
  EXPECT_TRUE(Again.Cached);
  EXPECT_EQ(Again.ResultRecord, RespTuned.ResultRecord);

  // And the options genuinely reached the worker: a one-visit fuel
  // budget degrades the run instead of converging.
  server::AnalyzeRequest Starved = Plain;
  Starved.Engine.MaxBlockVisits = 1;
  server::AnalyzeResponse RespStarved;
  JobResult R = served(Client, Starved, RespStarved);
  EXPECT_FALSE(RespStarved.Cached);
  EXPECT_EQ(R.Status, JobStatus::Degraded);
}

TEST_F(Daemon, NoCacheBypassesTheCacheEntirely) {
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  server::DaemonClient Client;
  connect(Client);

  server::AnalyzeRequest Req;
  Req.Job.Name = "nc";
  Req.Job.Source = loopProgram(15);
  Req.NoCache = true;

  server::AnalyzeResponse A, B;
  served(Client, Req, A);
  served(Client, Req, B);
  EXPECT_FALSE(A.Cached);
  EXPECT_FALSE(B.Cached);

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.CacheHits, 0u);
  EXPECT_EQ(Stats.CacheMisses, 0u) << "NoCache must not skew hit-rate stats";
  EXPECT_EQ(Stats.CacheEntries, 0u) << "NoCache results are not inserted";

  // A normal request afterwards computes cold (nothing was cached) and
  // its record matches the NoCache responses bit for bit — recomputation
  // is deterministic.
  Req.NoCache = false;
  server::AnalyzeResponse C;
  served(Client, Req, C);
  EXPECT_FALSE(C.Cached);
  EXPECT_EQ(C.ResultRecord, A.ResultRecord);
}

TEST_F(Daemon, MalformedRequestBodyIsRejectedWithId) {
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);

  int Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  // Valid frame, valid tag, missing mandatory source field.
  ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Request,
                              "areq 41\nname broken\nend\n"));
  ipc::MsgType Type{};
  std::string Body;
  ASSERT_EQ(ipc::readFrame(Fd, Type, Body), ipc::ReadStatus::Ok);
  ASSERT_EQ(Type, ipc::MsgType::Response);
  server::AnalyzeResponse Resp;
  std::string Error;
  ASSERT_TRUE(server::decodeAnalyzeResponse(Body, Resp, Error)) << Error;
  EXPECT_EQ(Resp.Id, 41u);
  EXPECT_FALSE(Resp.Ok);
  EXPECT_FALSE(Resp.Error.empty());

  // The connection survives a rejection: a good request still works.
  server::AnalyzeRequest Good;
  Good.Id = 42;
  Good.Job.Name = "ok";
  Good.Job.Source = loopProgram(5);
  ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Request,
                              server::encodeAnalyzeRequest(Good)));
  ASSERT_EQ(ipc::readFrame(Fd, Type, Body), ipc::ReadStatus::Ok);
  ASSERT_TRUE(server::decodeAnalyzeResponse(Body, Resp, Error)) << Error;
  EXPECT_TRUE(Resp.Ok);
  ::close(Fd);

  server::DaemonStats Stats;
  server::DaemonClient Client;
  connect(Client);
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.Rejected, 1u);
  EXPECT_EQ(Stats.Served, 1u);
}

TEST_F(Daemon, ProtocolViolationsDropTheClientOnly) {
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxFrameBytes = 4096; // tightened hostile-input bound
  startServer(Opts);

  // An unknown request tag is a protocol violation, not a rejection.
  int Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Request, "zreq 1\nend\n"));
  EXPECT_EQ(drainUntilEof(Fd), 0u) << "daemon must close without a response";
  ::close(Fd);

  // A hostile length prefix (1 GiB announcement against a 4 KiB bound)
  // is dropped at the header — no allocation, no response.
  Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  std::string Header = headerAnnouncing(1ull << 30);
  ASSERT_EQ(::send(Fd, Header.data(), Header.size(), 0),
            static_cast<ssize_t>(Header.size()));
  EXPECT_EQ(drainUntilEof(Fd), 0u);
  ::close(Fd);

  // A frame type clients may not send is equally fatal to the client.
  Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Job, "not yours"));
  EXPECT_EQ(drainUntilEof(Fd), 0u);
  ::close(Fd);

  // The daemon itself shrugged all three off.
  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeRequest Req;
  Req.Job.Name = "alive";
  Req.Job.Source = loopProgram(7);
  server::AnalyzeResponse Resp;
  JobResult R = served(Client, Req, Resp);
  EXPECT_EQ(R.Status, JobStatus::Ok);
}

TEST_F(Daemon, CachePersistsAcrossRestart) {
  std::string CachePath = tempPath("daemon_cache");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.CachePath = CachePath;

  startServer(Opts);
  server::AnalyzeRequest Req;
  Req.Job.Name = "persist";
  Req.Job.Source = loopProgram(30);
  std::string ColdRecord;
  {
    server::DaemonClient Client;
    connect(Client);
    server::AnalyzeResponse Cold;
    served(Client, Req, Cold);
    EXPECT_FALSE(Cold.Cached);
    ColdRecord = Cold.ResultRecord;
  }
  stopServer(); // graceful: persists the cache atomically

  startServer(Opts); // fresh process state, same cache file
  {
    server::DaemonClient Client;
    connect(Client);
    server::AnalyzeResponse Warm;
    served(Client, Req, Warm);
    EXPECT_TRUE(Warm.Cached) << "restart must reload the persisted cache";
    EXPECT_EQ(Warm.ResultRecord, ColdRecord);
    server::DaemonStats Stats;
    std::string Error;
    ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
    EXPECT_EQ(Stats.CacheHits, 1u);
    EXPECT_EQ(Stats.CacheMisses, 0u);
  }
  stopServer();
  ::unlink(CachePath.c_str());
}

// Satellite regression: a corrupt persisted cache file must never stop
// the daemon from starting — it logs, discards (or salvages), and
// serves cold.
TEST_F(Daemon, StartsColdOnCorruptCacheFile) {
  std::string CachePath = tempPath("daemon_cache_corrupt");
  {
    std::ofstream Out(CachePath, std::ios::binary | std::ios::trunc);
    Out << "xptoct-cache v1\nent garbage\n\x7f\x00\x13 bits";
  }
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.CachePath = CachePath;
  startServer(Opts); // asserts start(Error) succeeded
  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeRequest Req;
  Req.Job.Name = "after_corrupt_cache";
  Req.Job.Source = loopProgram(9);
  server::AnalyzeResponse Resp;
  JobResult R = served(Client, Req, Resp);
  EXPECT_EQ(R.Status, JobStatus::Ok);
  EXPECT_FALSE(Resp.Cached) << "corrupt cache must cold-start";
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.CacheHits, 0u);
  stopServer();
  ::unlink(CachePath.c_str());
}

// A client of the FNV-1a 64 frame format gets no reply it could not
// read anyway: the daemon counts it as a version reject and closes.
TEST_F(Daemon, StaleFramePeerIsVersionRejectedAndClosed) {
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  server::AnalyzeRequest Req;
  Req.Id = 1;
  Req.Job.Name = "stale";
  Req.Job.Source = loopProgram(5);
  for (const std::string &Frame :
       {frameV1(ipc::MsgType::Hello, server::encodeHello(2)),
        frameV1(ipc::MsgType::Request, server::encodeAnalyzeRequest(Req))}) {
    int Fd = rawConnect(SocketPath);
    ASSERT_GE(Fd, 0);
    ASSERT_EQ(::send(Fd, Frame.data(), Frame.size(), 0),
              static_cast<ssize_t>(Frame.size()));
    EXPECT_EQ(drainUntilEof(Fd), 0u);
    ::close(Fd);
  }
  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.VersionRejects, 2u);
  EXPECT_EQ(Stats.Requests, 0u);
  EXPECT_EQ(Stats.Hellos, 1u); // ours
}

// A v1 snapshot holding the very record a request asks for: the daemon
// names the snapshot stale in its log, starts cold and runs the request.
TEST_F(Daemon, StaleCacheSnapshotStartsColdAndSaysWhy) {
  server::AnalyzeRequest Req;
  Req.Job.Name = "stale_snapshot";
  Req.Job.Source = loopProgram(13);
  server::AnalyzeResponse Cold;
  {
    server::ServerOptions Opts;
    Opts.Workers = 1;
    startServer(Opts);
    server::DaemonClient Client;
    connect(Client);
    served(Client, Req, Cold);
    stopServer();
  }
  std::string CachePath = tempPath("daemon_cache_v1");
  writeBytes(CachePath, CacheMagicLineV1 +
                            snapshotEntryV1(Cold.Key, Cold.ResultRecord));

  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.CachePath = CachePath;
  ::testing::internal::CaptureStderr();
  startServer(Opts);
  std::string Log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Log.find("(stale cache snapshot (optoct-cache v1, this build "
                     "reads v2), "),
            std::string::npos)
      << Log;
  EXPECT_NE(Log.find("starting with a cold cache"), std::string::npos) << Log;
  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeResponse Again;
  served(Client, Req, Again);
  EXPECT_FALSE(Again.Cached);
  EXPECT_EQ(Again.ResultRecord, Cold.ResultRecord);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.CacheHits, 0u);
  stopServer();
  ::unlink(CachePath.c_str());
}

// A bit-flipped (salvageable-prefix) cache file also starts fine,
// keeping the valid prefix: warm hits for salvaged entries, cold for
// the discarded tail.
TEST_F(Daemon, SalvagesCacheTailCorruptionOnStartup) {
  std::string CachePath = tempPath("daemon_cache_tail");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.CachePath = CachePath;

  startServer(Opts);
  server::AnalyzeRequest First, Second;
  First.Job.Name = "salvaged";
  First.Job.Source = loopProgram(11);
  Second.Job.Name = "discarded";
  Second.Job.Source = loopProgram(13);
  {
    server::DaemonClient Client;
    connect(Client);
    server::AnalyzeResponse Resp;
    served(Client, First, Resp);
    served(Client, Second, Resp); // hottest → saved last in the file
  }
  stopServer(); // persists both entries

  // Flip a byte in the last record's body: the salvage keeps "salvaged"
  // (cold end, saved first) and discards "discarded".
  {
    std::ifstream In(CachePath, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    In.close();
    ASSERT_GT(Bytes.size(), 8u);
    Bytes[Bytes.size() - 4] ^= 0x20;
    std::ofstream Out(CachePath, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }

  startServer(Opts);
  {
    server::DaemonClient Client;
    connect(Client);
    server::AnalyzeResponse Resp;
    served(Client, First, Resp);
    EXPECT_TRUE(Resp.Cached) << "valid prefix entry must survive salvage";
    served(Client, Second, Resp);
    EXPECT_FALSE(Resp.Cached) << "corrupt-tail entry must be discarded";
  }
  stopServer();
  ::unlink(CachePath.c_str());
}

#ifdef OPTOCT_DAEMON_BIN
// The worker memory fence counts only what a worker maps after fork.
// The real optoctd binary runs here, so its workers fork from a
// single-threaded daemon as in production (a daemon thread inside this
// test would hand its workers a pre-reserved allocator arena that the
// fence cannot see). Its warm cache is larger than the fence; with
// --recycle-after=1 the second miss runs on a worker forked after the
// load, which must still have its whole budget. Each program carries a
// 1 MiB comment, so the worker has to map fresh memory for it.
TEST_F(Daemon, WarmCacheDoesNotCountAgainstWorkerMemoryFence) {
  std::string CachePath = tempPath("daemon_cache_fence");
  std::string Socket = tempPath("daemon_fence.sock");
  {
    // A synthetic snapshot of 40 one-MiB records, written entry by
    // entry so the test itself never holds it whole.
    std::ofstream Out(CachePath, std::ios::binary | std::ios::trunc);
    Out << CacheMagicLine;
    for (std::uint64_t K = 1; K <= 40; ++K)
      Out << snapshotEntry(K, std::string(1u << 20, 'a' + K % 26));
  }
  std::vector<std::string> Args = {
      OPTOCT_DAEMON_BIN,     "--socket=" + Socket,
      "--workers=1",         "--cache-mb=64",
      "--cache-file=" + CachePath, "--max-rss-mb=32",
      "--recycle-after=1"};
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Pid = ::fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    int Null = ::open("/dev/null", O_WRONLY);
    ::dup2(Null, STDERR_FILENO);
    ::execv(Argv[0], Argv.data());
    ::_exit(127);
  }

  server::DaemonClient Client;
  std::string Error;
  bool Connected = false;
  for (int Try = 0; Try != 200 && !Connected; ++Try) {
    Connected = Client.connect(Socket, Error);
    if (!Connected)
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_TRUE(Connected) << Error;
  if (Connected) {
    for (unsigned Bound : {21u, 22u}) {
      server::AnalyzeRequest Req;
      Req.Job.Name = "fenced" + std::to_string(Bound);
      Req.Job.Source = "# " + std::string(1u << 20, 'c') + "\n" +
                       loopProgram(Bound);
      server::AnalyzeResponse Resp;
      JobResult R = served(Client, Req, Resp);
      EXPECT_FALSE(Resp.Cached);
      EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
      EXPECT_EQ(R.AssertsProven, 2u);
    }
    server::DaemonStats Stats;
    ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
    EXPECT_EQ(Stats.CacheEntries, 42u) << "the snapshot was loaded";
    EXPECT_EQ(Stats.CrashedReplies, 0u);
    EXPECT_GE(Stats.WorkersSpawned, 2u) << "the second miss ran on a respawn";
    EXPECT_GE(Stats.WorkersRecycled, 1u);
  }
  ::kill(Pid, SIGTERM);
  int St = 0;
  ::waitpid(Pid, &St, 0);
  ::unlink(Socket.c_str());
  ::unlink(CachePath.c_str());
  ::unlink((CachePath + ".lock").c_str());
}
#endif // OPTOCT_DAEMON_BIN

// The acceptance containment test: a segfaulting request is reported
// crashed to its one client; a request in flight on another worker at
// the moment of death completes normally; the pool heals.
TEST_F(Daemon, SegvIsContainedWhileConcurrentRequestCompletes) {
  // Armed before startServer so the forked workers inherit the plan:
  // "slowjob" holds a worker busy long enough for the crash to land
  // mid-flight; "crashme" raises a genuine SIGSEGV inside its worker.
  arm("site=batch.job,kind=slow,ms=400,job=slowjob,hits=1");
  arm("site=batch.job,kind=segv,job=crashme,hits=1");

  server::ServerOptions Opts;
  Opts.Workers = 2;
  startServer(Opts);

  server::AnalyzeRequest Slow;
  Slow.Job.Name = "slowjob";
  Slow.Job.Source = loopProgram(25);

  server::AnalyzeResponse SlowResp;
  JobResult SlowResult;
  std::thread InFlight([&] {
    server::DaemonClient A;
    std::string Error;
    ASSERT_TRUE(A.connect(SocketPath, Error)) << Error;
    SlowResult = served(A, Slow, SlowResp);
  });

  // Let slowjob reach its worker, then detonate the other one.
  ::usleep(100 * 1000);
  server::DaemonClient B;
  connect(B);
  server::AnalyzeRequest Crash;
  Crash.Job.Name = "crashme";
  Crash.Job.Source = loopProgram(26);
  server::AnalyzeResponse CrashResp;
  JobResult CrashResult = served(B, Crash, CrashResp);
  EXPECT_EQ(CrashResult.Status, JobStatus::Crashed);
  EXPECT_FALSE(CrashResp.Cached);
  EXPECT_NE(CrashResult.Error.find("worker"), std::string::npos)
      << CrashResult.Error;

  // The concurrent request was untouched by its neighbor's death.
  InFlight.join();
  EXPECT_EQ(SlowResult.Status, JobStatus::Ok);
  EXPECT_EQ(SlowResult.AssertsProven, 2u);
  EXPECT_FALSE(SlowResp.Cached);

  // The pool healed: a fresh request on the same connection succeeds.
  server::AnalyzeRequest After;
  After.Job.Name = "aftermath";
  After.Job.Source = loopProgram(27);
  server::AnalyzeResponse AfterResp;
  JobResult AfterResult = served(B, After, AfterResp);
  EXPECT_EQ(AfterResult.Status, JobStatus::Ok);

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(B.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.WorkersCrashed, 1u);
  EXPECT_EQ(Stats.CrashedReplies, 1u);
  EXPECT_EQ(Stats.Workers, 2u);
  EXPECT_GE(Stats.WorkersSpawned, 3u) << "crashed worker must be respawned";
  // Crashes are not deterministic outcomes: never cached.
  EXPECT_EQ(Stats.CacheEntries, 2u) << "slowjob and aftermath only";
}

TEST_F(Daemon, CrashedRequestRetriesWhenConfigured) {
  // hits=1: lethal on the first attempt, burned out on the second —
  // the worker replays prior lethal attempts from the attempt number.
  arm("site=batch.job,kind=segv,job=flaky,hits=1");

  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.Worker.MaxAttempts = 2;
  startServer(Opts);
  server::DaemonClient Client;
  connect(Client);

  server::AnalyzeRequest Req;
  Req.Job.Name = "flaky";
  Req.Job.Source = loopProgram(18);
  server::AnalyzeResponse Resp;
  JobResult R = served(Client, Req, Resp);
  EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
  EXPECT_EQ(R.AssertsProven, 2u);

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.WorkersCrashed, 1u);
  EXPECT_EQ(Stats.CrashedReplies, 0u) << "the retry hid the crash";
  // A recovered deterministic result is cacheable.
  server::AnalyzeResponse Warm;
  served(Client, Req, Warm);
  EXPECT_TRUE(Warm.Cached);
}

// A transient failure (an exception in the worker) gets another attempt
// within Worker.MaxAttempts; a final answer that is still transient is
// sent but never cached, since the same request may pass next time.
TEST_F(Daemon, TransientFailureIsRetriedAndNeverCached) {
  arm("site=batch.job,kind=alloc,hits=1");
  server::AnalyzeRequest Req;
  Req.Job.Name = "transient";
  Req.Job.Source = loopProgram(14);

  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.Worker.MaxAttempts = 2;
  startServer(Opts);
  {
    server::DaemonClient Client;
    connect(Client);
    server::AnalyzeResponse Resp;
    JobResult R = served(Client, Req, Resp);
    EXPECT_EQ(R.Status, JobStatus::Ok) << R.Error;
    EXPECT_EQ(R.Attempts, 2u);
  }
  stopServer();

  // Fresh workers inherit the unburned rule: with one attempt the
  // transient failure is the reply, and a repeat must run again.
  Opts.Worker.MaxAttempts = 1;
  startServer(Opts);
  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeResponse First, Again;
  EXPECT_EQ(served(Client, Req, First).Status, JobStatus::Failed);
  EXPECT_FALSE(First.Cached);
  served(Client, Req, Again);
  EXPECT_FALSE(Again.Cached) << "a transient failure must never be cached";
}

// A respawn whose fork fails is tried again by the scheduler's next
// top-up: the slot is never lost, even when it is the only one.
TEST_F(Daemon, FailedRespawnIsRetriedNextRound) {
  arm("site=batch.job,kind=segv,job=crashme,hits=1");
  arm("site=child.spawn,kind=alloc,after=1,hits=1"); // fails the respawn
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);
  server::DaemonClient Client;
  Client.setRecvTimeoutMs(10000); // a lost slot would queue forever
  connect(Client);

  server::AnalyzeRequest Crash;
  Crash.Job.Name = "crashme";
  Crash.Job.Source = loopProgram(6);
  server::AnalyzeResponse CrashResp;
  EXPECT_EQ(served(Client, Crash, CrashResp).Status, JobStatus::Crashed);

  server::AnalyzeRequest Next;
  Next.Job.Name = "next";
  Next.Job.Source = loopProgram(7);
  server::AnalyzeResponse NextResp;
  EXPECT_EQ(served(Client, Next, NextResp).Status, JobStatus::Ok);

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.WorkersSpawned, 2u);
  EXPECT_EQ(Stats.WorkersCrashed, 1u);
}

TEST_F(Daemon, HungWorkerIsHardKilledAndReportedAsTimeout) {
  arm("site=batch.job,kind=hang,job=hangjob,hits=1");

  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.Worker.Budget.DeadlineMs = 150;
  Opts.Worker.HardKillGraceMs = 100;
  startServer(Opts);
  server::DaemonClient Client;
  connect(Client);

  server::AnalyzeRequest Req;
  Req.Job.Name = "hangjob";
  Req.Job.Source = loopProgram(9);
  server::AnalyzeResponse Resp;
  JobResult R = served(Client, Req, Resp);
  EXPECT_EQ(R.Status, JobStatus::Timeout) << R.Error;

  // Daemon alive, worker respawned, timeout kept out of the cache.
  server::AnalyzeRequest After;
  After.Job.Name = "postmortem";
  After.Job.Source = loopProgram(8);
  server::AnalyzeResponse AfterResp;
  EXPECT_EQ(served(Client, After, AfterResp).Status, JobStatus::Ok);

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.HardKills, 1u);
  EXPECT_EQ(Stats.TimeoutReplies, 1u);
  EXPECT_EQ(Stats.CacheEntries, 1u) << "timeouts are never cached";
}

TEST_F(Daemon, InterleavedClientsAllServedCorrectly) {
  server::ServerOptions Opts;
  Opts.Workers = 2;
  startServer(Opts);

  constexpr int ClientCount = 4, PerClient = 8;
  std::atomic<int> Failures{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != ClientCount; ++T)
    Threads.emplace_back([&, T] {
      server::DaemonClient Client;
      std::string Error;
      if (!Client.connect(SocketPath, Error)) {
        Failures.fetch_add(1);
        return;
      }
      for (int I = 0; I != PerClient; ++I) {
        unsigned Bound = 10 + static_cast<unsigned>((T * PerClient + I) % 6);
        server::AnalyzeRequest Req;
        Req.Job.Name = "mix" + std::to_string(Bound);
        Req.Job.Source = loopProgram(Bound);
        server::AnalyzeResponse Resp;
        JobResult R;
        if (!Client.analyze(std::move(Req), Resp, Error) || !Resp.Ok ||
            !deserializeJobResult(Resp.ResultRecord, R, Error) ||
            R.Status != JobStatus::Ok || R.AssertsProven != 2) {
          Failures.fetch_add(1);
          return;
        }
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Failures.load(), 0);

  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.Served, ClientCount * PerClient);
  // 6 distinct programs across 32 requests. Misses can exceed 6: a
  // coalesced duplicate still *looks up* (and counts a miss) before
  // attaching to the in-flight computation, so every request is either
  // a hit or a miss. How many duplicates coalesce versus hit the cache
  // depends on thread timing, but the ledger always balances: each key
  // runs exactly once (a second miss on a key can only happen while the
  // first is in flight, and then it coalesces), so the misses are the 6
  // admitting requests plus every coalesced attach, and the rest hit.
  EXPECT_EQ(Stats.CacheEntries, 6u);
  EXPECT_EQ(Stats.CacheHits + Stats.CacheMisses,
            static_cast<std::uint64_t>(ClientCount * PerClient));
  EXPECT_EQ(Stats.CacheMisses, 6u + Stats.CoalescedReplies);
}


// --- Client retry policy (unit) ---------------------------------------------

TEST(RetryBackoff, ExponentialRampHonorsHintAndCap) {
  server::RetryPolicy P;
  P.BaseBackoffMs = 10;
  P.MaxBackoffMs = 160;
  P.Jitter = 0.0; // deterministic schedule for exact assertions
  Rng R(1);
  EXPECT_EQ(server::retryDelayMs(P, 1, 0, R), 10u);
  EXPECT_EQ(server::retryDelayMs(P, 2, 0, R), 20u);
  EXPECT_EQ(server::retryDelayMs(P, 3, 0, R), 40u);
  EXPECT_EQ(server::retryDelayMs(P, 5, 0, R), 160u);   // ramp hits the cap
  EXPECT_EQ(server::retryDelayMs(P, 500, 0, R), 160u); // shift clamped, no UB
  EXPECT_EQ(server::retryDelayMs(P, 0, 0, R), 10u);    // attempt 0 = first
  EXPECT_EQ(server::retryDelayMs(P, 1, 120, R), 120u); // server hint floors
  EXPECT_EQ(server::retryDelayMs(P, 1, 500, R), 160u); // ...but the cap wins
}

TEST(RetryBackoff, JitterStaysWithinBandAndVaries) {
  server::RetryPolicy P;
  P.BaseBackoffMs = 40;
  P.MaxBackoffMs = 2000;
  P.Jitter = 0.5;
  Rng R(7);
  std::uint64_t Lo = ~0ull, Hi = 0;
  for (int I = 0; I != 200; ++I) {
    std::uint64_t D = server::retryDelayMs(P, 3, 0, R); // nominal 160
    EXPECT_GE(D, 80u);
    EXPECT_LE(D, 240u);
    Lo = std::min(Lo, D);
    Hi = std::max(Hi, D);
  }
  EXPECT_LT(Lo, Hi) << "jitter must actually vary the schedule";
  // Out-of-range jitter clamps to [0, 1] instead of exploding the band.
  P.Jitter = 7.0;
  for (int I = 0; I != 50; ++I)
    EXPECT_LE(server::retryDelayMs(P, 1, 0, R), 80u); // 40 * (1 + 1)
}

// --- Protocol: overloaded responses and codec fuzzing (satellite 3) ---------

TEST_F(DaemonProtocol, OverloadedResponseRoundTrip) {
  server::AnalyzeResponse R;
  R.Id = 9;
  R.Ok = false;
  R.Overloaded = true;
  R.RetryMs = 75;
  R.Error = "queue full";
  std::string Body = server::encodeAnalyzeResponse(R);
  EXPECT_EQ(Body, "ares 9\noutcome overloaded\ncached 0\n"
                  "key 0000000000000000\nretry_ms 75\nerror queue full\n"
                  "end\n");

  server::AnalyzeResponse D;
  std::string Error;
  ASSERT_TRUE(server::decodeAnalyzeResponse(Body, D, Error)) << Error;
  EXPECT_EQ(D.Id, 9u);
  EXPECT_FALSE(D.Ok);
  EXPECT_TRUE(D.Overloaded);
  EXPECT_EQ(D.RetryMs, 75u);
  EXPECT_EQ(D.Error, "queue full");

  // A plain rejection stays non-retryable: Overloaded false, RetryMs 0.
  server::AnalyzeResponse Rej;
  Rej.Id = 10;
  Rej.Error = "bad request";
  ASSERT_TRUE(server::decodeAnalyzeResponse(server::encodeAnalyzeResponse(Rej),
                                            D, Error))
      << Error;
  EXPECT_FALSE(D.Ok);
  EXPECT_FALSE(D.Overloaded);
  EXPECT_EQ(D.RetryMs, 0u);
}

TEST(DaemonProtocolFuzz, StatsRoundTripRandomizedCounters) {
  Rng R(0x57a75);
  for (int It = 0; It != 100; ++It) {
    server::DaemonStats S;
    std::uint64_t *Fields[] = {
        &S.Requests,       &S.Served,           &S.Rejected,
        &S.CrashedReplies, &S.TimeoutReplies,   &S.CacheHits,
        &S.CacheMisses,    &S.CacheEntries,     &S.CacheBytes,
        &S.CacheEvictions, &S.Workers,          &S.WorkersSpawned,
        &S.WorkersCrashed, &S.WorkersRecycled,  &S.HardKills,
        &S.ShedQueueFull,  &S.ShedClientCap,    &S.ShedDraining,
        &S.QueueDepth,     &S.QueuePeak,        &S.CoalescedReplies,
        &S.QuarantineReplies, &S.QuarantinedKeys, &S.QuarantinedTotal,
        &S.DrainedJobs};
    for (std::uint64_t *F : Fields)
      *F = R.engine()();
    std::uint64_t Id = R.engine()();

    std::string Body = server::encodeStatsResponse(Id, S);
    std::uint64_t GotId = 0;
    server::DaemonStats T;
    std::string Error;
    ASSERT_TRUE(server::decodeStatsResponse(Body, GotId, T, Error)) << Error;
    EXPECT_EQ(GotId, Id);
    // Re-encoding the decoded struct must reproduce the exact bytes:
    // one assertion covering every one of the 25 counters at once.
    EXPECT_EQ(server::encodeStatsResponse(GotId, T), Body);
  }
}

TEST(DaemonProtocolFuzz, AnalyzeRequestRoundTripsHostileStrings) {
  Rng R(0x4057);
  auto Bytes = [&R](std::size_t MaxLen) {
    std::string S(R.indexBelow(MaxLen + 1), '\0');
    for (char &C : S)
      C = static_cast<char>(R.intIn(0, 255));
    return S;
  };
  const double Doubles[] = {-1e308, -0.0, 0.0,   0.5,
                            1e-300, 255.0, 1e308, 12345.6789};
  for (int It = 0; It != 200; ++It) {
    server::AnalyzeRequest A;
    A.Id = R.engine()();
    A.Job.Name = Bytes(24);    // raw bytes: '\n', '%', ' ', NUL, ...
    A.Job.Source = Bytes(160);
    A.Engine.WideningDelay = static_cast<unsigned>(R.intIn(0, 9));
    A.Engine.NarrowingPasses = static_cast<unsigned>(R.intIn(0, 4));
    A.Engine.MaxBlockVisits = static_cast<unsigned>(R.intIn(0, 1 << 20));
    A.Engine.LinearizeGuards = R.chance(0.5);
    A.Engine.WideningThresholds.clear();
    int NThr = R.intIn(0, 5);
    for (int I = 0; I != NThr; ++I)
      A.Engine.WideningThresholds.push_back(
          Doubles[R.indexBelow(sizeof(Doubles) / sizeof(Doubles[0]))]);
    A.MaxDbmCells = R.chance(0.5) ? R.engine()() : 0;
    A.NoCache = R.chance(0.3);

    std::string Body = server::encodeAnalyzeRequest(A);
    server::AnalyzeRequest B;
    std::string Error;
    ASSERT_TRUE(server::decodeAnalyzeRequest(Body, B, Error))
        << Error << " (name len " << A.Job.Name.size() << ", source len "
        << A.Job.Source.size() << ")";
    EXPECT_EQ(B.Id, A.Id);
    EXPECT_EQ(B.Job.Name, A.Job.Name);
    EXPECT_EQ(B.Job.Source, A.Job.Source);
    EXPECT_EQ(B.NoCache, A.NoCache);
    EXPECT_EQ(B.MaxDbmCells, A.MaxDbmCells);
    EXPECT_EQ(server::encodeAnalyzeRequest(B), Body);
    // Hostile bytes must not perturb the content address either.
    EXPECT_EQ(server::requestFingerprint(B), server::requestFingerprint(A));
  }
}

TEST(DaemonProtocolFuzz, MutatedBodiesNeverCrashDecoders) {
  // A corpus of every valid body shape, then random byte-level abuse:
  // flips, truncations, stray '%' escapes, splices from other entries.
  // The property is crash-freedom (ASan/UBSan make this bite) plus
  // decode→encode idempotence whenever a mutant still decodes.
  std::vector<std::string> Corpus;
  {
    server::AnalyzeRequest AR;
    AR.Id = 7;
    AR.Job.Name = "fz%name\nwith\nnewlines";
    AR.Job.Source = std::string("var x;\nx=0;\0assert(x>=0);\n", 26);
    AR.Engine.WideningThresholds = {-1.5, 0.0, 255.0};
    Corpus.push_back(server::encodeAnalyzeRequest(AR));
    server::AnalyzeResponse Ok;
    Ok.Id = 8;
    Ok.Ok = true;
    Ok.Key = 0x1234abcd;
    Ok.ResultRecord = "result %00 bytes\nline2\n";
    Corpus.push_back(server::encodeAnalyzeResponse(Ok));
    server::AnalyzeResponse Ov;
    Ov.Id = 9;
    Ov.Overloaded = true;
    Ov.RetryMs = 75;
    Ov.Error = "queue full";
    Corpus.push_back(server::encodeAnalyzeResponse(Ov));
    server::AnalyzeResponse Rej;
    Rej.Id = 10;
    Rej.Error = "bad value for field: thr";
    Corpus.push_back(server::encodeAnalyzeResponse(Rej));
    Corpus.push_back(server::encodeStatsRequest(3));
    server::DaemonStats DS;
    DS.Requests = 11;
    DS.CoalescedReplies = 5;
    DS.QuarantinedKeys = 1;
    Corpus.push_back(server::encodeStatsResponse(4, DS));
  }

  Rng R(0xf00d);
  for (int It = 0; It != 4000; ++It) {
    std::string S = Corpus[R.indexBelow(Corpus.size())];
    int Muts = R.intIn(1, 4);
    for (int M = 0; M != Muts && !S.empty(); ++M) {
      switch (R.intIn(0, 4)) {
      case 0: // flip one byte
        S[R.indexBelow(S.size())] = static_cast<char>(R.intIn(0, 255));
        break;
      case 1: // truncate
        S.resize(R.indexBelow(S.size() + 1));
        break;
      case 2: // stray escape introducer
        S.insert(R.indexBelow(S.size() + 1), "%");
        break;
      case 3: // insert one random byte
        S.insert(R.indexBelow(S.size() + 1), 1,
                 static_cast<char>(R.intIn(0, 255)));
        break;
      case 4: { // splice a chunk of another corpus entry
        const std::string &T = Corpus[R.indexBelow(Corpus.size())];
        std::size_t Off = R.indexBelow(T.size() + 1);
        S.insert(R.indexBelow(S.size() + 1), T.substr(Off, R.indexBelow(33)));
        break;
      }
      }
    }

    std::string Error;
    std::uint64_t Id = 0;
    (void)server::peekRequestKind(S);
    (void)server::decodeStatsRequest(S, Id);
    server::AnalyzeRequest AR;
    if (server::decodeAnalyzeRequest(S, AR, Error)) {
      std::string Re = server::encodeAnalyzeRequest(AR);
      server::AnalyzeRequest AR2;
      ASSERT_TRUE(server::decodeAnalyzeRequest(Re, AR2, Error)) << Error;
      EXPECT_EQ(server::encodeAnalyzeRequest(AR2), Re);
    }
    server::AnalyzeResponse Resp;
    if (server::decodeAnalyzeResponse(S, Resp, Error)) {
      std::string Re = server::encodeAnalyzeResponse(Resp);
      server::AnalyzeResponse Resp2;
      ASSERT_TRUE(server::decodeAnalyzeResponse(Re, Resp2, Error)) << Error;
      EXPECT_EQ(server::encodeAnalyzeResponse(Resp2), Re);
    }
    server::DaemonStats DS;
    if (server::decodeStatsResponse(S, Id, DS, Error)) {
      std::string Re = server::encodeStatsResponse(Id, DS);
      std::uint64_t Id2 = 0;
      server::DaemonStats DS2;
      ASSERT_TRUE(server::decodeStatsResponse(Re, Id2, DS2, Error)) << Error;
      EXPECT_EQ(server::encodeStatsResponse(Id2, DS2), Re);
    }
  }
}

TEST(DaemonProtocolFuzz, HostileEscapesAndNumbersNeverCrash) {
  const char *Cases[] = {
      "areq 1\nname a%\nsource b\nend\n",   // dangling escape
      "areq 1\nname a%4\nsource b\nend\n",  // truncated escape
      "areq 1\nname a%zz\nsource b\nend\n", // non-hex escape
      "areq 1\nname ok\nsource s\nthr nan\nend\n",
      "areq 1\nname ok\nsource s\nthr 1e999\nend\n",  // ERANGE
      "areq 1\nname ok\nsource s\nthr \nend\n",       // keyless line
      "areq 1\nname ok\nsource s\nwdelay 99999999999999999999\nend\n",
      "areq 1\nname ok\nsource s\nwdelay -3\nend\n",
      "areq 18446744073709551615\nname a\nsource b\nend\n", // max id
      "areq 99999999999999999999\nname a\nsource b\nend\n", // id overflow
      "areq 1\nname a\nsource b\n",                         // missing end
      "areq 1\n\n\nname a\nsource b\nend\n",                // blank lines
      "areq 1\r\nname a\r\nsource b\r\nend\r\n",            // CRLF smuggling
      "ares 1\noutcome maybe\nend\n",
      "ares 1\noutcome overloaded\nretry_ms -5\nend\n",
      "ares 1\noutcome overloaded\nretry_ms 99999999999999999999\nend\n",
      "ares 1\noutcome ok\noutcome overloaded\nretry_ms 9\nend\n",
      "ares 1\ncached 2\nend\n",
      "sres 1\nrequests ten\nend\n",
      "",
      "\n",
      "end\n",
      "areq\n",
      "areq \nend\n",
  };
  for (const char *C : Cases) {
    std::string S(C);
    std::string Error;
    std::uint64_t Id = 0;
    server::AnalyzeRequest AR;
    server::AnalyzeResponse Resp;
    server::DaemonStats DS;
    (void)server::peekRequestKind(S);
    (void)server::decodeAnalyzeRequest(S, AR, Error);
    (void)server::decodeAnalyzeResponse(S, Resp, Error);
    (void)server::decodeStatsRequest(S, Id);
    (void)server::decodeStatsResponse(S, Id, DS, Error);
  }

  // Spot checks: the must-reject cases reject (not merely not-crash).
  server::AnalyzeRequest AR;
  server::AnalyzeResponse Resp;
  std::string Error;
  EXPECT_FALSE(server::decodeAnalyzeRequest("areq 1\nname a%\nsource b\nend\n",
                                            AR, Error));
  EXPECT_FALSE(server::decodeAnalyzeRequest("areq 1\nname a\nsource b\n", AR,
                                            Error));
  EXPECT_FALSE(server::decodeAnalyzeRequest(
      "areq 99999999999999999999\nname a\nsource b\nend\n", AR, Error));
  EXPECT_FALSE(
      server::decodeAnalyzeResponse("ares 1\noutcome maybe\nend\n", Resp,
                                    Error));
  // Duplicate outcome lines: last one wins, decode stays consistent.
  ASSERT_TRUE(server::decodeAnalyzeResponse(
      "ares 1\noutcome ok\noutcome overloaded\nretry_ms 9\nend\n", Resp,
      Error))
      << Error;
  EXPECT_FALSE(Resp.Ok);
  EXPECT_TRUE(Resp.Overloaded);
  EXPECT_EQ(Resp.RetryMs, 9u);
}

// --- The overload ladder end to end -----------------------------------------

TEST_F(Daemon, CoalescesConcurrentIdenticalMissesIntoOneExecution) {
  // Every fresh execution of "dupkey" hangs (each respawned worker
  // inherits an unburned hits=1 rule), so the worker-death count is an
  // exact execution count: if all four concurrent requests are answered
  // by ONE hard-killed execution, coalescing provably shared it.
  arm("site=batch.job,kind=hang,job=dupkey,hits=1");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.Worker.Budget.DeadlineMs = 250;
  Opts.Worker.HardKillGraceMs = 100;
  startServer(Opts);

  constexpr int M = 4;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<int> OkCount{0};
  std::string Records[M];
  std::vector<std::thread> Threads;
  for (int T = 0; T != M; ++T)
    Threads.emplace_back([&, T] {
      server::DaemonClient Client;
      std::string Error;
      if (!Client.connect(SocketPath, Error))
        return;
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      server::AnalyzeRequest Req;
      Req.Job.Name = "dupkey";
      Req.Job.Source = loopProgram(17);
      server::AnalyzeResponse Resp;
      if (Client.analyze(std::move(Req), Resp, Error) && Resp.Ok) {
        OkCount.fetch_add(1);
        Records[T] = Resp.ResultRecord;
      }
    });
  while (Ready.load() != M)
    std::this_thread::yield();
  Go.store(true);
  for (auto &T : Threads)
    T.join();

  ASSERT_EQ(OkCount.load(), M) << "every waiter must receive a reply";
  JobResult R;
  std::string Error;
  ASSERT_TRUE(deserializeJobResult(Records[0], R, Error)) << Error;
  EXPECT_EQ(R.Status, JobStatus::Timeout);
  for (int T = 1; T != M; ++T)
    EXPECT_EQ(Records[T], Records[0])
        << "coalesced replies must be byte-identical";

  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.CoalescedReplies, static_cast<std::uint64_t>(M - 1));
  EXPECT_EQ(Stats.WorkersCrashed, 1u) << "exactly one execution consumed";
  EXPECT_EQ(Stats.HardKills, 1u);
  EXPECT_EQ(Stats.TimeoutReplies, 1u) << "one verdict, fanned out";
  EXPECT_EQ(Stats.Served, static_cast<std::uint64_t>(M));
  EXPECT_EQ(Stats.CacheEntries, 0u) << "timeouts stay uncached";
  EXPECT_EQ(Stats.CacheMisses, static_cast<std::uint64_t>(M))
      << "each coalesced waiter still counts its lookup miss";
}

TEST_F(Daemon, CoalescedSuccessRepliesAreByteIdentical) {
  // The happy path of the same ladder: a slow leader, duplicates attach,
  // everyone gets the one Ok verdict and the cache ends with one entry.
  arm("site=batch.job,kind=slow,job=shared,hits=1,ms=300");
  server::ServerOptions Opts;
  Opts.Workers = 2; // idle second worker must NOT get a duplicate execution
  startServer(Opts);

  constexpr int M = 3;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<int> OkCount{0};
  std::string Records[M];
  std::vector<std::thread> Threads;
  for (int T = 0; T != M; ++T)
    Threads.emplace_back([&, T] {
      server::DaemonClient Client;
      std::string Error;
      if (!Client.connect(SocketPath, Error))
        return;
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      server::AnalyzeRequest Req;
      Req.Job.Name = "shared";
      Req.Job.Source = loopProgram(23);
      server::AnalyzeResponse Resp;
      JobResult R;
      if (Client.analyze(std::move(Req), Resp, Error) && Resp.Ok &&
          deserializeJobResult(Resp.ResultRecord, R, Error) &&
          R.Status == JobStatus::Ok && R.AssertsProven == 2) {
        OkCount.fetch_add(1);
        Records[T] = Resp.ResultRecord;
      }
    });
  while (Ready.load() != M)
    std::this_thread::yield();
  Go.store(true);
  for (auto &T : Threads)
    T.join();

  ASSERT_EQ(OkCount.load(), M);
  for (int T = 1; T != M; ++T)
    EXPECT_EQ(Records[T], Records[0]);

  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  // A straggler that arrives after the verdict lands is a cache hit
  // instead of a coalesced waiter; both paths share the one execution.
  EXPECT_EQ(Stats.CoalescedReplies + Stats.CacheHits,
            static_cast<std::uint64_t>(M - 1));
  EXPECT_EQ(Stats.CacheEntries, 1u) << "one execution, one entry";
  EXPECT_EQ(Stats.Served, static_cast<std::uint64_t>(M));
  EXPECT_EQ(Stats.CacheHits + Stats.CacheMisses,
            static_cast<std::uint64_t>(M));
}

TEST_F(Daemon, CoalescedWaiterSurvivesLeaderDisconnect) {
  // The admitting client vanishes mid-flight; the coalesced waiter must
  // still get the verdict (and the daemon must not touch freed state).
  arm("site=batch.job,kind=slow,job=orphan,hits=1,ms=400");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);

  server::AnalyzeRequest Req;
  Req.Id = 77;
  Req.Job.Name = "orphan";
  Req.Job.Source = loopProgram(21);

  int Leader = rawConnect(SocketPath);
  ASSERT_GE(Leader, 0);
  ASSERT_TRUE(ipc::writeFrame(Leader, ipc::MsgType::Request,
                              server::encodeAnalyzeRequest(Req)));
  ::usleep(100 * 1000); // the daemon has read and dispatched the job
  ::close(Leader);      // ...and now the requester is gone

  server::DaemonClient Waiter;
  connect(Waiter);
  server::AnalyzeResponse Resp;
  JobResult R = served(Waiter, Req, Resp);
  EXPECT_EQ(R.Status, JobStatus::Ok);
  EXPECT_EQ(R.AssertsProven, 2u);

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Waiter.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.CoalescedReplies, 1u);
  EXPECT_EQ(Stats.Served, 1u) << "only the live waiter got a reply";
}

TEST_F(Daemon, OverloadShedsPastQueueBoundAndRetryingClientsSucceed) {
  // One worker, a two-deep queue, and six concurrent distinct jobs:
  // the overflow is shed with a retryable "overloaded" + backoff hint,
  // and one-endpoint retrying clients absorb the sheds until every
  // client succeeds.
  arm("site=batch.job,kind=slow,ms=250,hits=100");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxQueueDepth = 2;
  Opts.OverloadRetryMs = 40;
  startServer(Opts);

  constexpr int K = 6;
  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<int> OkCount{0};
  std::atomic<unsigned> TotalCycles{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != K; ++T)
    Threads.emplace_back([&, T] {
      server::RetryPolicy Retry;
      Retry.MaxAttempts = 12;
      Retry.BaseBackoffMs = 60;
      Retry.Seed = 0x1000 + static_cast<std::uint64_t>(T); // no lockstep
      server::ReplicaClient Client(server::singleDaemonOptions(SocketPath,
                                                               Retry));
      std::string Error;
      if (!Client.connect(Error))
        return;
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      server::AnalyzeRequest Req;
      Req.Job.Name = "flood" + std::to_string(T);
      Req.Job.Source = loopProgram(40 + static_cast<unsigned>(T));
      server::AnalyzeResponse Resp;
      server::ReplicaReplyInfo Info;
      if (Client.analyze(Req, Resp, Error, &Info) && Resp.Ok)
        OkCount.fetch_add(1);
      TotalCycles.fetch_add(Info.Cycles);
    });
  while (Ready.load() != K)
    std::this_thread::yield();
  Go.store(true);
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(OkCount.load(), K)
      << "every shed client must eventually be served";

  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_GE(Stats.ShedQueueFull, 1u) << "the burst must overflow the bound";
  EXPECT_LE(Stats.QueuePeak, 2u) << "admission control is the memory bound";
  EXPECT_EQ(Stats.QueueDepth, 0u);
  EXPECT_GE(TotalCycles.load(), static_cast<unsigned>(K + 1))
      << "at least one client must have retried";
  // Sheds are refusals, not served requests; the ledger stays honest.
  EXPECT_EQ(Stats.Served, static_cast<std::uint64_t>(K));
  EXPECT_EQ(Stats.Requests,
            Stats.Served + Stats.ShedQueueFull + Stats.ShedClientCap);
}

TEST_F(Daemon, PerClientPendingCapShedsPipelinedFlood) {
  // A single connection pipelining three requests against a cap of one:
  // the first is admitted, the other two are shed immediately with the
  // per-client reason while the first still completes fine.
  arm("site=batch.job,kind=slow,job=capfirst,hits=1,ms=300");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.MaxClientPending = 1;
  startServer(Opts);

  int Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  const char *Names[] = {"capfirst", "capsecond", "capthird"};
  for (int I = 0; I != 3; ++I) {
    server::AnalyzeRequest Req;
    Req.Id = static_cast<std::uint64_t>(I + 1);
    Req.Job.Name = Names[I];
    Req.Job.Source = loopProgram(30 + static_cast<unsigned>(I));
    ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Request,
                                server::encodeAnalyzeRequest(Req)));
  }

  // Replies come back in completion order: the two sheds at once, then
  // the admitted job's verdict after its 300ms execution.
  bool SawOk = false;
  unsigned SawOverloaded = 0;
  for (int I = 0; I != 3; ++I) {
    ipc::MsgType Type{};
    std::string Body;
    ASSERT_EQ(ipc::readFrame(Fd, Type, Body), ipc::ReadStatus::Ok);
    ASSERT_EQ(Type, ipc::MsgType::Response);
    server::AnalyzeResponse Resp;
    std::string Error;
    ASSERT_TRUE(server::decodeAnalyzeResponse(Body, Resp, Error)) << Error;
    if (Resp.Ok) {
      SawOk = true;
      EXPECT_EQ(Resp.Id, 1u) << "the admitted request is the first";
    } else {
      ++SawOverloaded;
      EXPECT_TRUE(Resp.Overloaded) << Resp.Error;
      EXPECT_GT(Resp.RetryMs, 0u);
      EXPECT_NE(Resp.Error.find("per-client"), std::string::npos)
          << Resp.Error;
    }
  }
  ::close(Fd);
  EXPECT_TRUE(SawOk);
  EXPECT_EQ(SawOverloaded, 2u);

  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.ShedClientCap, 2u);
  EXPECT_EQ(Stats.ShedQueueFull, 0u);
}

TEST_F(Daemon, QuarantineStopsCrashStormAndReprobesAfterTtl) {
  // A poison fingerprint crashes its worker every time. After the
  // second death the key is quarantined: further requests replay the
  // negatively-cached crash verdict without consuming workers, until
  // the TTL expires and one fresh probe is allowed through.
  arm("site=batch.job,kind=segv,job=poison,hits=100");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.QuarantineAfter = 2;
  Opts.QuarantineTtlMs = 400;
  startServer(Opts);

  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeRequest Req;
  Req.Job.Name = "poison";
  Req.Job.Source = loopProgram(3);

  std::string Verdicts[5];
  bool Cached[5];
  for (int I = 0; I != 5; ++I) {
    server::AnalyzeResponse Resp;
    JobResult R = served(Client, Req, Resp);
    EXPECT_EQ(R.Status, JobStatus::Crashed) << "request " << I;
    Verdicts[I] = Resp.ResultRecord;
    Cached[I] = Resp.Cached;
  }
  EXPECT_FALSE(Cached[0]);
  EXPECT_FALSE(Cached[1]);
  for (int I = 2; I != 5; ++I) {
    EXPECT_TRUE(Cached[I]) << "request " << I << " must be a quarantine hit";
    EXPECT_EQ(Verdicts[I], Verdicts[1])
        << "quarantine replays the arming verdict byte-identically";
  }

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.WorkersCrashed, 2u)
      << "the storm must stop consuming workers at the threshold";
  EXPECT_EQ(Stats.QuarantineReplies, 3u);
  EXPECT_EQ(Stats.QuarantinedTotal, 1u);
  EXPECT_EQ(Stats.QuarantinedKeys, 1u);
  EXPECT_EQ(Stats.CrashedReplies, 2u);

  // TTL expiry half-opens the breaker: exactly one fresh probe runs
  // (and crashes again) instead of replaying the stale verdict.
  ::usleep(500 * 1000);
  server::AnalyzeResponse Probe;
  JobResult R = served(Client, Req, Probe);
  EXPECT_EQ(R.Status, JobStatus::Crashed);
  EXPECT_FALSE(Probe.Cached) << "post-TTL request must really execute";
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.WorkersCrashed, 3u);
  EXPECT_EQ(Stats.QuarantineReplies, 3u);
  EXPECT_EQ(Stats.QuarantinedKeys, 0u) << "expired entries leave the gauge";

  // Quarantine is a negative cache, not the invariant cache.
  EXPECT_EQ(Stats.CacheEntries, 0u);
  EXPECT_EQ(Stats.CacheHits, 0u);
}

TEST_F(Daemon, DrainFinishesInFlightShedsQueueAndPersistsCache) {
  // SIGTERM semantics: requestStop under load finishes the in-flight
  // job (its waiter gets the real verdict), sheds the queued jobs with
  // a retryable overloaded reply, and persists a loadable cache.
  arm("site=batch.job,kind=slow,job=infl,hits=1,ms=400");
  std::string CachePath = tempPath("drain_cache");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.CachePath = CachePath;
  startServer(Opts);

  std::atomic<bool> InFlightOk{false};
  std::atomic<int> ShedCount{0};
  std::atomic<int> RepliedCount{0};
  std::thread Busy([&] {
    server::DaemonClient Client;
    std::string Error;
    if (!Client.connect(SocketPath, Error))
      return;
    server::AnalyzeRequest Req;
    Req.Job.Name = "infl";
    Req.Job.Source = loopProgram(19);
    server::AnalyzeResponse Resp;
    JobResult R;
    if (Client.analyze(std::move(Req), Resp, Error) && Resp.Ok &&
        deserializeJobResult(Resp.ResultRecord, R, Error) &&
        R.Status == JobStatus::Ok)
      InFlightOk.store(true);
    RepliedCount.fetch_add(1);
  });
  ::usleep(120 * 1000); // "infl" is on the worker now

  std::vector<std::thread> Queued;
  for (int I = 0; I != 2; ++I)
    Queued.emplace_back([&, I] {
      server::DaemonClient Client;
      std::string Error;
      if (!Client.connect(SocketPath, Error))
        return;
      server::AnalyzeRequest Req;
      Req.Job.Name = "queued" + std::to_string(I);
      Req.Job.Source = loopProgram(50 + static_cast<unsigned>(I));
      server::AnalyzeResponse Resp;
      if (Client.analyze(std::move(Req), Resp, Error)) {
        if (Resp.Overloaded)
          ShedCount.fetch_add(1);
        RepliedCount.fetch_add(1);
      }
    });
  ::usleep(120 * 1000); // both are sitting in the queue behind "infl"

  Srv->requestStop();
  Loop.join(); // serve() drains, then shuts down

  Busy.join();
  for (auto &T : Queued)
    T.join();
  EXPECT_TRUE(InFlightOk.load())
      << "the in-flight job must be finished, not abandoned";
  EXPECT_EQ(ShedCount.load(), 2) << "queued jobs are shed with overloaded";
  EXPECT_EQ(RepliedCount.load(), 3) << "no client may be left hanging";

  server::DaemonStats Stats = Srv->stats();
  EXPECT_EQ(Stats.DrainedJobs, 1u);
  EXPECT_EQ(Stats.ShedDraining, 2u);
  EXPECT_EQ(Stats.CacheEntries, 1u);
  stopServer();

  // The drained cache is loadable: a restarted daemon replays "infl"
  // byte-for-byte without executing it (the slow rule would stall it).
  server::ServerOptions Opts2;
  Opts2.Workers = 1;
  Opts2.CachePath = CachePath;
  startServer(Opts2);
  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeRequest Req;
  Req.Job.Name = "infl";
  Req.Job.Source = loopProgram(19);
  server::AnalyzeResponse Resp;
  JobResult R = served(Client, Req, Resp);
  EXPECT_TRUE(Resp.Cached) << "persisted entry must replay on restart";
  EXPECT_EQ(R.Status, JobStatus::Ok);
  ::unlink(CachePath.c_str());
}

TEST_F(Daemon, HungWorkerWithoutDeadlineIsKilledByDefaultCeiling) {
  // Satellite: DeadlineMs == 0 used to mean scanDeadlines never ran, so
  // a hung worker wedged every coalesced waiter forever. MaxRequestMs
  // is the always-on ceiling.
  arm("site=batch.job,kind=hang,job=stuck,hits=1");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  Opts.Worker.Budget.DeadlineMs = 0; // no per-job deadline configured
  Opts.MaxRequestMs = 300;           // ...the ceiling still applies
  startServer(Opts);

  std::atomic<int> TimeoutCount{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T != 2; ++T)
    Threads.emplace_back([&] {
      server::DaemonClient Client;
      std::string Error;
      if (!Client.connect(SocketPath, Error))
        return;
      server::AnalyzeRequest Req;
      Req.Job.Name = "stuck";
      Req.Job.Source = loopProgram(11);
      server::AnalyzeResponse Resp;
      JobResult R;
      if (Client.analyze(std::move(Req), Resp, Error) && Resp.Ok &&
          deserializeJobResult(Resp.ResultRecord, R, Error) &&
          R.Status == JobStatus::Timeout)
        TimeoutCount.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(TimeoutCount.load(), 2)
      << "leader and coalesced waiter must both be released";

  server::DaemonClient Client;
  connect(Client);
  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.HardKills, 1u);
  EXPECT_EQ(Stats.TimeoutReplies, 1u);
}

TEST_F(Daemon, ClientDisconnectBeforeReadingReplyLeavesDaemonHealthy) {
  // Satellite regression: a hit-and-run client (request sent, socket
  // closed before the reply) must cost nothing but the reply — the
  // daemon survives the EPIPE/EOF, finishes the job, and caches it.
  arm("site=batch.job,kind=slow,job=hitrun,hits=1,ms=200");
  server::ServerOptions Opts;
  Opts.Workers = 1;
  startServer(Opts);

  server::AnalyzeRequest Req;
  Req.Id = 5;
  Req.Job.Name = "hitrun";
  Req.Job.Source = loopProgram(27);

  int Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Request,
                              server::encodeAnalyzeRequest(Req)));
  ::close(Fd); // gone before the 200ms execution finishes

  // A second hit-and-run against the already-running job (a coalesced
  // waiter that vanishes) must be equally harmless.
  ::usleep(50 * 1000);
  Fd = rawConnect(SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(ipc::writeFrame(Fd, ipc::MsgType::Request,
                              server::encodeAnalyzeRequest(Req)));
  ::close(Fd);

  ::usleep(300 * 1000); // job completes with no one left to tell

  server::DaemonClient Client;
  connect(Client);
  server::AnalyzeResponse Resp;
  JobResult R = served(Client, Req, Resp);
  EXPECT_EQ(R.Status, JobStatus::Ok);
  EXPECT_TRUE(Resp.Cached)
      << "the abandoned job's verdict must still have been cached";

  server::DaemonStats Stats;
  std::string Error;
  ASSERT_TRUE(Client.queryStats(Stats, Error)) << Error;
  EXPECT_EQ(Stats.Workers, 1u);
  EXPECT_EQ(Stats.WorkersCrashed, 0u);
  EXPECT_EQ(Stats.CacheEntries, 1u);
}

TEST_F(Daemon, RetryPolicyReconnectsAcrossDaemonRestart) {
  // The retrying client's transport leg: the daemon restarts between
  // requests; the client's pooled connection is stale, fails, and the
  // client reconnects to the same socket path and completes.
  server::ServerOptions Opts;
  Opts.SocketPath = tempPath("restart.sock");
  Opts.Workers = 1;
  startServer(Opts);

  server::RetryPolicy Retry;
  Retry.MaxAttempts = 5;
  Retry.BaseBackoffMs = 10;
  server::ReplicaClient Client(
      server::singleDaemonOptions(Opts.SocketPath, Retry));
  server::AnalyzeRequest Req;
  Req.Job.Name = "restart";
  Req.Job.Source = loopProgram(13);
  server::AnalyzeResponse Resp;
  server::ReplicaReplyInfo First, Second;
  std::string Error;
  ASSERT_TRUE(Client.analyze(Req, Resp, Error, &First)) << Error;
  EXPECT_TRUE(Resp.Ok) << Resp.Error; // the connection works...
  EXPECT_EQ(First.Connects, 1u);

  stopServer();
  startServer(Opts); // ...then the daemon restarts under the client

  ASSERT_TRUE(Client.analyze(Req, Resp, Error, &Second)) << Error;
  EXPECT_TRUE(Resp.Ok) << Resp.Error;
  // The pooled connection needed no connect; the stale one costs one.
  EXPECT_GE(Second.Connects, 1u) << "the stale fd must have been replaced";
  EXPECT_EQ(Second.Path, server::ReplyPath::Primary);
}
