//===- support/cpuinfo.h - CPU features and env for bench headers -*- C++ -*-===//
///
/// \file
/// Perf numbers are only comparable when the JSON that records them
/// also records what produced them: the OPTOCT_* environment (the
/// OPTOCT_SIMD tier override, oct/simd_dispatch.h) and whether the AVX
/// kernels were compiled in *and* available on the machine. Every bench
/// that writes a checked-in JSON baseline embeds benchContextJson() in
/// its header.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_SUPPORT_CPUINFO_H
#define OPTOCT_SUPPORT_CPUINFO_H

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

extern char **environ;

namespace optoct::support {

/// What the silicon offers vs what the binary was compiled to use. The
/// kernel tier itself is chosen at runtime by oct/simd_dispatch.h from
/// its own CPU probes, independent of the Compiled* flags.
struct CpuFeatures {
  bool Avx = false;            ///< CPU supports AVX (runtime probe).
  bool Avx2 = false;           ///< CPU supports AVX2 (runtime probe).
  bool Avx512 = false;         ///< CPU+OS support AVX-512 F/DQ/BW/VL.
  bool CompiledAvx = false;    ///< Binary built with __AVX__.
  bool CompiledAvx2 = false;   ///< Binary built with __AVX2__.
  bool CompiledAvx512 = false; ///< Binary built with __AVX512F__.
};

inline CpuFeatures cpuFeatures() {
  CpuFeatures F;
#if defined(__x86_64__) || defined(__i386__)
  F.Avx = __builtin_cpu_supports("avx");
  F.Avx2 = __builtin_cpu_supports("avx2");
  F.Avx512 = __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl");
#endif
#if defined(__AVX__)
  F.CompiledAvx = true;
#endif
#if defined(__AVX2__)
  F.CompiledAvx2 = true;
#endif
#if defined(__AVX512F__)
  F.CompiledAvx512 = true;
#endif
  return F;
}

/// All OPTOCT_* variables present in the environment, sorted by name.
inline std::vector<std::pair<std::string, std::string>> optoctEnv() {
  std::vector<std::pair<std::string, std::string>> Vars;
  for (char **E = environ; E && *E; ++E) {
    const char *Entry = *E;
    if (std::strncmp(Entry, "OPTOCT_", 7) != 0)
      continue;
    const char *Eq = std::strchr(Entry, '=');
    if (!Eq)
      continue;
    Vars.emplace_back(std::string(Entry, Eq), std::string(Eq + 1));
  }
  std::sort(Vars.begin(), Vars.end());
  return Vars;
}

/// Minimal JSON string escaping for env values.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue; // control chars cannot appear in a sane env value
    Out += C;
  }
  return Out;
}

/// The `"env": {...},\n  "cpu": {...}` fragment of a bench JSON header
/// (no leading indent on the first line, no trailing comma). \p SimdTier
/// names the kernel tier runtime dispatch actually selected
/// (optoct::simdTierName(activeSimdTier()) — passed in as a string so
/// this support-layer header need not depend on oct/); when non-null it
/// is recorded alongside the raw feature probes, since with runtime
/// dispatch the compiled-with flags alone no longer determine which
/// kernels ran.
inline std::string benchContextJson(const char *SimdTier = nullptr) {
  std::string Out = "\"env\": {";
  bool First = true;
  for (const auto &[Name, Value] : optoctEnv()) {
    if (!First)
      Out += ", ";
    First = false;
    Out += '"';
    Out += jsonEscape(Name);
    Out += "\": \"";
    Out += jsonEscape(Value);
    Out += '"';
  }
  Out += "},\n  \"cpu\": {";
  CpuFeatures F = cpuFeatures();
  auto Flag = [](bool B) { return B ? "true" : "false"; };
  Out += std::string("\"avx\": ") + Flag(F.Avx) +
         ", \"avx2\": " + Flag(F.Avx2) +
         ", \"avx512\": " + Flag(F.Avx512) +
         ", \"compiled_avx\": " + Flag(F.CompiledAvx) +
         ", \"compiled_avx2\": " + Flag(F.CompiledAvx2) +
         ", \"compiled_avx512\": " + Flag(F.CompiledAvx512);
  if (SimdTier)
    Out += std::string(", \"simd_tier\": \"") + jsonEscape(SimdTier) + "\"";
  Out += "}";
  return Out;
}

} // namespace optoct::support

#endif // OPTOCT_SUPPORT_CPUINFO_H
