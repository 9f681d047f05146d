//===- tests/test_canonical_golden.cpp - Canonical bytes of the miss path -===//
///
/// A golden for what a daemon cache miss or a batch job produces. Each
/// of the five small paper specs is reseeded 20 times; every program
/// runs through runtime::runJob (the unit a batch worker and an optoctd
/// worker execute), its result is canonicalized as the daemon
/// canonicalizes a reply and serialized as the cache and the journal
/// store it. One FNV-1a digest per spec over those records is compared
/// with a committed value.
///
/// The records hold every rendered invariant, so the digests pin closure
/// results bit for bit, the partition's block order (constraints()
/// renders in partition order) and the closure counts. Changes that
/// mean to keep canonical output identical (closure bookkeeping, SIMD
/// tiers, operator rewrites) must leave them alone; a change that
/// legitimately moves them must say so and bump the cache and journal
/// formats, since a build's caches and journals replay these bytes.
///
/// A second digest set is taken with NumClosures zeroed. It pins the
/// rest of the record — invariants, assert outcomes, nmin/nmax, block
/// visits — apart from the closure count, which engine changes that
/// skip redundant closures legitimately lower. When only the count
/// moves, the masked digests stay put while the full ones change.
///
//===----------------------------------------------------------------------===//

#include "runtime/batch.h"
#include "runtime/journal.h"
#include "server/protocol.h"
#include "support/fnv.h"
#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

using namespace optoct;

namespace {

constexpr unsigned SeedsPerSpec = 20;

/// \p MaskClosures zeroes NumClosures before serializing, so the digest
/// pins everything in the record except the closure count.
std::uint64_t specDigest(const std::string &Spec, bool MaskClosures) {
  const workloads::WorkloadSpec *Base = workloads::findBenchmark(Spec);
  EXPECT_NE(Base, nullptr) << Spec;
  if (!Base)
    return 0;
  std::uint64_t H = support::Fnv1a64Offset;
  for (unsigned I = 0; I != SeedsPerSpec; ++I) {
    workloads::WorkloadSpec S = *Base;
    S.Seed = 101 + I;
    runtime::BatchJob Job{S.Name + "-" + std::to_string(S.Seed),
                          workloads::generateProgram(S)};
    runtime::JobResult R = runtime::runJob(Job);
    EXPECT_EQ(R.Status, runtime::JobStatus::Ok) << Job.Name;
    server::canonicalizeResult(R);
    if (MaskClosures)
      R.NumClosures = 0;
    H = support::fnv1a64(runtime::serializeJobResult(R), H);
  }
  return H;
}

struct Golden {
  const char *Spec;
  std::uint64_t Digest;
};

void expectDigests(const Golden (&Goldens)[5], bool MaskClosures) {
  for (const Golden &G : Goldens) {
    std::uint64_t D = specDigest(G.Spec, MaskClosures);
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%016" PRIx64, D);
    EXPECT_EQ(D, G.Digest) << G.Spec << " digest is now " << Hex;
  }
}

// Full records, taken from the engine that closes each state once:
// guards close incrementally and a loop head's widening iterate is
// closed once beside it, so num_closures counts full closures only
// (fewer per job than the engine before it).
const Golden Goldens[] = {
    {"series", 0x166fd5d34999fe01ull},
    {"matmult", 0x51fe3ef5290c893full},
    {"sor", 0xb62faed6bb6015d9ull},
    {"lufact", 0x9c0d818cf41c6b24ull},
    {"firefox", 0x0c54803b96d37708ull},
};

// Records with NumClosures zeroed. Taken from the copying engine, which
// joined before it tested inclusion and closed a copy of the stored
// target on every join; the current engine reproduces them, so only
// the closure count moved.
const Golden MaskedGoldens[] = {
    {"series", 0xab6a222ca50cf520ull},
    {"matmult", 0x35ed52d862b6601aull},
    {"sor", 0xb4e03c52f017c996ull},
    {"lufact", 0x6a062aaa9e47b756ull},
    {"firefox", 0x26a12f55d26a960dull},
};

TEST(CanonicalGolden, MissPathRecordsMatchCommittedDigests) {
  expectDigests(Goldens, /*MaskClosures=*/false);
}

TEST(CanonicalGolden, MissPathRecordsWithoutClosureCountMatchCommittedDigests) {
  expectDigests(MaskedGoldens, /*MaskClosures=*/true);
}

} // namespace
