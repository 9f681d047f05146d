//===- perfbench/src/bench.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Types and helpers shared by the benchmark's workloads: the run
/// arguments, the result every workload returns (end-to-end or
/// per-layer metrics plus the correctness tally), quantiles, clocks and
/// memory probes. The workloads reach the analyzer only through its
/// public headers; this file adds no instrumentation to the program.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_PERFBENCH_BENCH_H
#define OPTOCT_PERFBENCH_BENCH_H

#include "runtime/batch.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Command-line arguments of one workload run.
struct Args {
  std::string Workload;    ///< paper-suite | daemon-hot | daemon-churn
  std::uint64_t Seed = 1;
  double Seconds = 10.0;   ///< Length of the measured part of the run.
  bool Trace = false;      ///< Per-layer (traced) run instead of end-to-end.
  std::string Optoctd;     ///< Path of the optoctd binary under test.
  std::string WorkDir;     ///< Run directory (sockets, snapshots, logs).
  std::string ExpectedDir; ///< The committed paper-suite oracle.
  /// Self-test: flip one byte of every expected output before comparing,
  /// so the run must report a mismatch.
  bool CorruptExpected = false;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a workload run reports.
struct Outcome {
  bool Correct = true;         ///< Every checked output matched.
  bool Invalid = false;        ///< The measurement itself is not usable.
  std::uint64_t Attempted = 0; ///< Operations attempted (jobs, requests).
  std::uint64_t Failed = 0;    ///< Failed, shed or wrong among them.
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Human-readable diagnostics.

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  void mismatch(const std::string &What) {
    Correct = false;
    note("MISMATCH " + What);
  }
};

/// Linear-interpolated quantile (0 <= Q <= 1) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double mean(const std::vector<double> &V);

/// Peak resident set of this process, MiB.
double selfPeakRssMb();
/// Peak resident set (VmHWM) of a live process, MiB; 0 if unreadable.
double procPeakRssMb(pid_t Pid);
/// Direct children of a live process (from /proc), for worker probes.
std::vector<pid_t> procChildren(pid_t Pid);

/// Timestamp-counter ticks per millisecond, measured against the steady
/// clock over a short busy interval.
double cyclesPerMs();

/// 64-bit FNV-1a of \p S, continuing from \p H: the benchmark's own
/// digest for oracle entries and canonical reports.
std::uint64_t digest64(const std::string &S,
                       std::uint64_t H = 0xcbf29ce484222325ull);

/// Deterministic 64-bit mix of a seed and a stream index.
std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Stream);

/// Writes \p Text to \p Path (whole file). False on failure.
bool writeFile(const std::string &Path, const std::string &Text);
bool readFile(const std::string &Path, std::string &Text);

/// The canonical record of one job, exactly as the daemon would reply
/// it: the result canonicalized and serialized.
std::string canonicalRecord(optoct::runtime::JobResult R);

/// Flips one byte of \p S (the corrupted-expected-output self-test).
void corrupt(std::string &S);

Outcome runSuite(const Args &A);
Outcome runDaemon(const Args &A, bool Hot);
/// Computes the paper-suite oracle for the whole input pool with the
/// independent baseline library and writes it under A.ExpectedDir.
int writeSuiteOracle(const Args &A);
/// Measures what each paper-suite pool job costs to analyze and writes,
/// per program, its reseedings from cheapest to dearest under
/// A.ExpectedDir (the order runSuite stratifies its inputs by).
int writePoolOrder(const Args &A);

} // namespace perfbench

#endif // OPTOCT_PERFBENCH_BENCH_H
