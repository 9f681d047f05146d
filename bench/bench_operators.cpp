//===- bench/bench_operators.cpp - Operator vectorization ablation --------===//
///
/// \file
/// Scalar-vs-vector timings of every lattice operator on the shapes that
/// exercise the span kernels of oct/simd_kernels.h: Dense octagons at
/// several dimensions (one flat pass over the 2n(n+1) packed buffer) and
/// Decomposed octagons with k independent components (per-component row
/// runs). Both columns run the same operators; the scalar column pins
/// the scalar SIMD tier (simdForceTier(SimdTier::Scalar)), whose kernels
/// are compiled with auto-vectorization off, and the vector column runs
/// the tier selected at startup — so the speedup isolates SIMD, not the
/// compiler's autovectorizer against itself.
///
/// Includes the early-exit predicates in both regimes: *_hit rows scan
/// the whole matrix (the verdict is true), *_miss rows plant a violation
/// in the first packed row, so their time is the cost of finding one
/// violating lane.
///
/// Writes BENCH_operators.json (override with --json=<path>); the header
/// records the OPTOCT_* environment and CPU feature flags so numbers
/// from different machines/configurations are never compared blindly.
///
//===----------------------------------------------------------------------===//

#include "oct/octagon.h"
#include "oct/simd_dispatch.h"
#include "support/cpuinfo.h"
#include "support/random.h"
#include "support/table.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

using namespace optoct;

namespace {

/// Defeats dead-code elimination of the measured operator results.
volatile std::size_t Sink = 0;

/// Adds \p V to Sink by a plain volatile load and store.
void sink(std::size_t V) { Sink = Sink + V; }

/// An octagon over \p NumVars variables split into \p NumComps relational
/// chains (no unary bounds, so the components survive closure).
Octagon makeDecomposed(unsigned NumVars, unsigned NumComps,
                       std::uint64_t Seed) {
  Rng R(Seed);
  Octagon O(NumVars);
  unsigned PerComp = NumVars / NumComps;
  std::vector<OctCons> Cs;
  for (unsigned C = 0; C != NumComps; ++C) {
    unsigned Base = C * PerComp;
    for (unsigned V = 1; V != PerComp; ++V) {
      double Bound = R.intIn(0, 20);
      Cs.push_back(OctCons::diff(Base + V, Base + V - 1, Bound));
      Cs.push_back(OctCons::diff(Base + V - 1, Base + V, 8 - Bound));
    }
  }
  O.addConstraints(Cs);
  O.close();
  return O;
}

/// A dense octagon: one whole-matrix component with unary bounds (the
/// strengthening fills in every entry).
Octagon makeDense(unsigned NumVars, std::uint64_t Seed) {
  Rng R(Seed);
  Octagon O(NumVars);
  std::vector<OctCons> Cs;
  for (unsigned V = 0; V != NumVars; ++V) {
    Cs.push_back(OctCons::upper(V, R.intIn(10, 40)));
    Cs.push_back(OctCons::lower(V, 0.0));
  }
  O.addConstraints(Cs);
  O.close();
  return O;
}

/// Best-of-\p Repeats nanoseconds per call of \p Body, with the
/// iteration count calibrated so each repeat runs at least ~2 ms (the
/// operators at these sizes are microseconds each, so the clock
/// granularity never dominates).
double measureNs(const std::function<void()> &Body, unsigned Repeats) {
  using Clock = std::chrono::steady_clock;
  auto elapsedNs = [&](std::size_t Iters) {
    auto T0 = Clock::now();
    for (std::size_t I = 0; I != Iters; ++I)
      Body();
    return std::chrono::duration<double, std::nano>(Clock::now() - T0)
        .count();
  };
  std::size_t Iters = 1;
  double Ns = elapsedNs(Iters);
  while (Ns < 2e6 && Iters < (std::size_t{1} << 22)) {
    Iters *= 2;
    Ns = elapsedNs(Iters);
  }
  double Best = Ns / static_cast<double>(Iters);
  for (unsigned R = 1; R < Repeats; ++R)
    Best = std::min(Best, elapsedNs(Iters) / static_cast<double>(Iters));
  return Best;
}

struct Row {
  std::string Op;
  std::string Shape; ///< "dense" or "decomposed"
  unsigned N;
  unsigned K; ///< components (1 for dense)
  double ScalarNs;
  double VectorNs;
  double speedup() const { return VectorNs > 0 ? ScalarNs / VectorNs : 0; }
};

/// All operator bodies over one pre-closed input pair. The pair is
/// reused across iterations: the in-place closures the operators perform
/// are cached after the first call, so steady-state timing measures the
/// operator itself.
std::vector<std::pair<std::string, std::function<void()>>>
operatorBodies(Octagon &A, Octagon &B, Octagon &Tight) {
  static const std::vector<double> Thresholds = {0.0, 4.0, 8.0, 16.0, 32.0,
                                                 64.0};
  return {
      {"join", [&] { sink(Octagon::join(A, B).nni()); }},
      {"meet", [&] { sink(Octagon::meet(A, B).nni()); }},
      {"widen", [&] { sink(Octagon::widen(A, B).nni()); }},
      {"widen_thr",
       [&] { sink(Octagon::widenWithThresholds(A, B, Thresholds).nni()); }},
      {"narrow", [&] { sink(Octagon::narrow(A, B).nni()); }},
      // Hit: every bound of the (identical) right side is implied — full
      // scan. Miss: Tight's very first packed row is strictly tighter
      // than A's, so the scan stops at the first violating lane.
      {"leq_hit", [&] { sink(A.leq(A)); }},
      {"leq_miss", [&] { sink(A.leq(Tight)); }},
      {"eq_hit", [&] { sink(A.equals(A)); }},
      {"eq_miss", [&] { sink(A.equals(Tight)); }},
  };
}

void runShape(const std::string &Shape, unsigned N, unsigned K, Octagon &A,
              Octagon &B, Octagon &Tight, unsigned Repeats,
              std::vector<Row> &Rows) {
  for (auto &[Op, Body] : operatorBodies(A, B, Tight)) {
    Row R{Op, Shape, N, K, 0, 0};
    SimdTier Vector = activeSimdTier();
    simdForceTier(SimdTier::Scalar);
    R.ScalarNs = measureNs(Body, Repeats);
    simdForceTier(Vector);
    R.VectorNs = measureNs(Body, Repeats);
    Rows.push_back(R);
  }
}

} // namespace

/// Geometric mean of the per-op speedups of one (shape, n, k) group —
/// the summary number the "closing the decomposed gap" experiment
/// tracks across k.
std::map<std::string, double> shapeGeomeans(const std::vector<Row> &Rows) {
  std::map<std::string, std::pair<double, unsigned>> Acc;
  for (const Row &R : Rows) {
    if (R.speedup() <= 0)
      continue;
    std::string Key = R.Shape + "_n" + std::to_string(R.N);
    if (R.Shape == "decomposed")
      Key += "_k" + std::to_string(R.K);
    auto &[LogSum, Count] = Acc[Key];
    LogSum += std::log(R.speedup());
    ++Count;
  }
  std::map<std::string, double> Out;
  for (const auto &[Key, LC] : Acc)
    Out[Key] = std::exp(LC.first / LC.second);
  return Out;
}

int main(int Argc, char **Argv) {
  std::string JsonPath = "BENCH_operators.json";
  unsigned Repeats = 5;
  bool Strict = false;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
    else if (std::strncmp(Argv[I], "--repeats=", 10) == 0)
      Repeats = static_cast<unsigned>(std::strtoul(Argv[I] + 10, nullptr, 10));
    else if (std::strcmp(Argv[I], "--strict") == 0)
      Strict = true;
  }
  if (Repeats == 0)
    Repeats = 1;

  support::CpuFeatures Cpu = support::cpuFeatures();
  const char *Tier = simdTierName(activeSimdTier());
  std::printf("=== Lattice-operator vectorization ablation "
              "(simd tier=%s, cpu avx2=%d avx512=%d) ===\n\n",
              Tier, Cpu.Avx2, Cpu.Avx512);
  if (activeSimdTier() == SimdTier::Scalar)
    std::fprintf(stderr,
                 "warning: runtime dispatch selected the scalar tier "
                 "(OPTOCT_SIMD=scalar, or no vector ISA on this cpu); both "
                 "columns measure the scalar tier, not SIMD\n");

  std::vector<Row> Rows;

  for (unsigned N : {32u, 64u, 96u, 128u}) {
    Octagon A = makeDense(N, 7), B = makeDense(N, 8);
    // The miss comparand: variable 0's upper bound tightened by one (so
    // Tight stays non-empty but A no longer implies it) — the violation
    // sits in the first packed row.
    Octagon Tight = A;
    Tight.addConstraint(OctCons::upper(0, A.bounds(0).Hi - 1));
    runShape("dense", N, 1, A, B, Tight, Repeats, Rows);
  }
  // The k-sweep of the blocked-layout experiment: component count k
  // doubles from "a few big blocks" to "a swarm of tiny ones" (n=64
  // k=32 means 2-variable components), at two dimensions.
  for (unsigned N : {64u, 128u}) {
    for (unsigned K : {2u, 4u, 8u, 16u, 32u}) {
      Octagon A = makeDecomposed(N, K, 7), B = makeDecomposed(N, K, 8);
      // Tighten a binary bound inside the first component by one (a unary
      // bound would merge components during strengthening; the chain's
      // opposite bound leaves slack 8, so -1 keeps Tight non-empty).
      Octagon Tight = A;
      Tight.addConstraint(
          OctCons::diff(1, 0, A.boundOf(OctCons::diff(1, 0, 0)) - 1));
      runShape("decomposed", N, K, A, B, Tight, Repeats, Rows);
    }
  }

  TextTable Table({"Op", "Shape", "n", "k", "Scalar ns", "Vector ns",
                   "Speedup"});
  for (const Row &R : Rows)
    Table.addRow({R.Op, R.Shape, std::to_string(R.N), std::to_string(R.K),
                  TextTable::num(R.ScalarNs, 0), TextTable::num(R.VectorNs, 0),
                  TextTable::num(R.speedup(), 2) + "x"});
  std::printf("%s\n", Table.render().c_str());

  std::map<std::string, double> Geo = shapeGeomeans(Rows);
  for (const auto &[Key, G] : Geo)
    std::printf("geomean %-20s %5.2fx\n", Key.c_str(), G);

  // Acceptance checks (meaningful only when a vector tier is running):
  // dense widen_thr carries the branchless threshold scan and must not
  // fall back under 3x; --strict turns a violation into a failing exit
  // so CI and the experiment driver can gate on it.
  bool Accepted = true;
  if (activeSimdTier() != SimdTier::Scalar) {
    for (const Row &R : Rows)
      if (R.Shape == "dense" && R.Op == "widen_thr" && R.speedup() < 3.0) {
        std::fprintf(stderr,
                     "acceptance: dense widen_thr n=%u speedup %.2fx < 3x\n",
                     R.N, R.speedup());
        Accepted = false;
      }
  }

  std::ofstream Out(JsonPath);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", JsonPath.c_str());
    return 1;
  }
  Out << "{\n  \"bench\": \"bench_operators\",\n  "
      << support::benchContextJson(Tier) << ",\n"
      << "  \"baseline\": \"scalar_ns: the same operators under the scalar "
         "SIMD tier; vector_ns: under the "
      << Tier << " tier\",\n"
      << "  \"repeats\": " << Repeats << ",\n"
      << "  \"results\": [\n";
  for (std::size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    Out << "    {\"op\": \"" << R.Op << "\", \"shape\": \"" << R.Shape
        << "\", \"n\": " << R.N << ", \"k\": " << R.K
        << ", \"scalar_ns\": " << R.ScalarNs
        << ", \"vector_ns\": " << R.VectorNs
        << ", \"speedup\": " << R.speedup() << "}"
        << (I + 1 == Rows.size() ? "" : ",") << "\n";
  }
  Out << "  ],\n  \"geomean_speedup\": {";
  bool First = true;
  for (const auto &[Key, G] : Geo) {
    Out << (First ? "" : ", ") << "\"" << Key << "\": " << G;
    First = false;
  }
  Out << "}\n}\n";
  std::printf("wrote %s\n", JsonPath.c_str());
  if (!Accepted)
    std::fprintf(stderr, Strict ? "acceptance checks FAILED\n"
                                : "acceptance checks failed (non-strict)\n");
  return Strict && !Accepted ? 1 : 0;
}
