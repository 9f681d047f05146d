//===- perfbench/src/common.cpp - Shared benchmark plumbing ---------------===//

#include "bench.h"

#include "server/protocol.h"
#include "runtime/journal.h"
#include "support/timing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  if (Frac == 0 || V[Lo] == V[Hi] || std::isinf(V[Hi]))
    return Frac == 0 ? V[Lo] : V[Hi]; // infinite samples stay infinite
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  return std::accumulate(V.begin(), V.end(), 0.0) / static_cast<double>(V.size());
}

double selfPeakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double procPeakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // "VmHWM:  1234 kB"
  return 0.0;
}

std::vector<pid_t> procChildren(pid_t Pid) {
  std::vector<pid_t> Out;
  std::string P = std::to_string(Pid);
  std::ifstream In("/proc/" + P + "/task/" + P + "/children");
  long C = 0;
  while (In >> C)
    Out.push_back(static_cast<pid_t>(C));
  return Out;
}

double cyclesPerMs() {
  Clock::time_point T0 = Clock::now();
  std::uint64_t C0 = optoct::readCycles();
  while (msBetween(T0, Clock::now()) < 20.0) {
  }
  std::uint64_t C1 = optoct::readCycles();
  return static_cast<double>(C1 - C0) / msBetween(T0, Clock::now());
}

std::uint64_t mixSeed(std::uint64_t Seed, std::uint64_t Stream) {
  // splitmix64 over the pair.
  std::uint64_t Z = Seed * 0x9E3779B97F4A7C15ull + Stream + 0x632BE59BD9B4E019ull;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::uint64_t digest64(const std::string &S, std::uint64_t H) {
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  return static_cast<bool>(Out);
}

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buf;
  Buf << In.rdbuf();
  Text = Buf.str();
  return true;
}

std::string canonicalRecord(optoct::runtime::JobResult R) {
  optoct::server::canonicalizeResult(R);
  return optoct::runtime::serializeJobResult(R);
}

void corrupt(std::string &S) {
  if (S.empty())
    S.push_back('?');
  else
    S[S.size() / 2] ^= 0x20;
}

} // namespace perfbench
