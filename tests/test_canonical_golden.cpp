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
/// results bit for bit, along with assert outcomes, nmin/nmax and block
/// visits. Canonicalization zeroes the closure counts, so a change that
/// only skips closures leaves the digests alone, as must changes that
/// mean to keep canonical output identical (closure bookkeeping, SIMD
/// tiers, operator rewrites, partition or kind decisions). A change that
/// legitimately moves them must say so and bump the cache and journal
/// formats, since a build's caches and journals replay these bytes.
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

std::uint64_t specDigest(const std::string &Spec) {
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
    H = support::fnv1a64(runtime::serializeJobResult(R), H);
  }
  return H;
}

struct Golden {
  const char *Spec;
  std::uint64_t Digest;
};

// Records with the closure counts zeroed and every invariant listed by
// variable, in the baseline library's order.
const Golden Goldens[] = {
    {"series", 0x8d26a21a177653b0ull},
    {"matmult", 0x35ed52d862b6601aull},
    {"sor", 0xdb1cb51e4c658140ull},
    {"lufact", 0x361185e647e1c53aull},
    {"firefox", 0xf732e3239352fa57ull},
};

TEST(CanonicalGolden, MissPathRecordsMatchCommittedDigests) {
  for (const Golden &G : Goldens) {
    std::uint64_t D = specDigest(G.Spec);
    char Hex[32];
    std::snprintf(Hex, sizeof(Hex), "0x%016" PRIx64, D);
    EXPECT_EQ(D, G.Digest) << G.Spec << " digest is now " << Hex;
  }
}

} // namespace
