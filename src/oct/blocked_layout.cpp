//===- oct/blocked_layout.cpp - Contiguous per-component sub-DBMs --------===//

#include "oct/blocked_layout.h"

#include <cstring>

using namespace optoct;

BlockScratch &optoct::blockScratch() {
  static thread_local BlockScratch S;
  return S;
}

void optoct::reserveBlockScratch(unsigned NumVars) {
  blockScratch().ensure(HalfDbm::matSize(NumVars));
}

/// Both rows of source variable Hi = Vars[A] copy the same column
/// layout: for each maximal chunk of consecutive component variables
/// Vars[B0..] at or below A, source columns [2*Vars[B0], ...) are one
/// contiguous span mapping to destination columns [2*B0, ...). The
/// chunk containing A itself ends with Hi's 2-wide diagonal block,
/// whose columns 2*Hi and 2*Hi+1 are stored in both of Hi's rows — so
/// every chunk uniformly contributes 2*chunkVars columns and the row's
/// spans sum to its full 2*A+2 stored entries.
void optoct::packComponent(double *Dst, const HalfDbm &M,
                           const std::vector<unsigned> &Vars) {
  for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
    unsigned Hi = Vars[A];
    const double *Src0 = M.row(2 * Hi);
    const double *Src1 = M.row(2 * Hi + 1);
    double *Dst0 = Dst + HalfDbm::index(2 * static_cast<unsigned>(A), 0);
    double *Dst1 = Dst + HalfDbm::index(2 * static_cast<unsigned>(A) + 1, 0);
    std::size_t Bi = 0;
    while (Bi <= A) {
      std::size_t B0 = Bi;
      unsigned First = Vars[B0];
      do
        ++Bi;
      while (Bi <= A && Vars[Bi] == Vars[Bi - 1] + 1);
      std::size_t Bytes = 2 * (Bi - B0) * sizeof(double);
      std::memcpy(Dst0 + 2 * B0, Src0 + 2 * First, Bytes);
      std::memcpy(Dst1 + 2 * B0, Src1 + 2 * First, Bytes);
    }
  }
}

std::size_t optoct::countComponentFinite(const HalfDbm &M,
                                         const std::vector<unsigned> &Vars) {
  std::size_t Finite = 0;
  for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
    const double *Src0 = M.row(2 * Vars[A]);
    const double *Src1 = M.row(2 * Vars[A] + 1);
    std::size_t Bi = 0;
    while (Bi <= A) {
      std::size_t B0 = Bi;
      unsigned First = Vars[B0];
      do
        ++Bi;
      while (Bi <= A && Vars[Bi] == Vars[Bi - 1] + 1);
      for (std::size_t J = 2 * First, E = J + 2 * (Bi - B0); J != E; ++J)
        Finite += isFinite(Src0[J]) + isFinite(Src1[J]);
    }
  }
  return Finite;
}

void optoct::packComponentEntry(double *Dst, const HalfDbm &M,
                                const Partition &P, bool FullyInit,
                                const std::vector<unsigned> &Vars) {
  if (FullyInit) {
    packComponent(Dst, M, Vars);
    return;
  }
  // Common case: the whole component lies inside one source block (the
  // merged partition merely renamed it), so every pair is materialized
  // and the span copy applies. Stored diagonals inside covered
  // components are 0 for non-empty octagons, matching entry().
  int C0 = P.componentOf(Vars[0]);
  bool SingleBlock = C0 >= 0;
  for (std::size_t A = 1, NumV = Vars.size(); SingleBlock && A != NumV; ++A)
    SingleBlock = P.componentOf(Vars[A]) == C0;
  if (SingleBlock) {
    packComponent(Dst, M, Vars);
    return;
  }
  // General case: the union-merged component straddles source blocks
  // (or uncovered variables); substitute implicit trivia exactly as
  // Octagon::entry() would.
  for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
    unsigned Hi = Vars[A];
    int CA = P.componentOf(Hi);
    double *Dst0 = Dst + HalfDbm::index(2 * static_cast<unsigned>(A), 0);
    double *Dst1 = Dst + HalfDbm::index(2 * static_cast<unsigned>(A) + 1, 0);
    for (std::size_t B = 0; B != A; ++B) {
      unsigned Lo = Vars[B];
      if (CA >= 0 && P.componentOf(Lo) == CA) {
        Dst0[2 * B] = M.at(2 * Hi, 2 * Lo);
        Dst0[2 * B + 1] = M.at(2 * Hi, 2 * Lo + 1);
        Dst1[2 * B] = M.at(2 * Hi + 1, 2 * Lo);
        Dst1[2 * B + 1] = M.at(2 * Hi + 1, 2 * Lo + 1);
      } else {
        Dst0[2 * B] = Infinity;
        Dst0[2 * B + 1] = Infinity;
        Dst1[2 * B] = Infinity;
        Dst1[2 * B + 1] = Infinity;
      }
    }
    // Hi's diagonal block: true diagonal entries are 0 by definition;
    // the unary bounds are stored only when Hi is covered.
    Dst0[2 * A] = 0.0;
    Dst1[2 * A + 1] = 0.0;
    if (CA >= 0) {
      Dst0[2 * A + 1] = M.at(2 * Hi, 2 * Hi + 1);
      Dst1[2 * A] = M.at(2 * Hi + 1, 2 * Hi);
    } else {
      Dst0[2 * A + 1] = Infinity;
      Dst1[2 * A] = Infinity;
    }
  }
}

std::size_t optoct::packRowPair(double *Dst, const HalfDbm &M,
                                const std::vector<unsigned> &Vars,
                                std::size_t A) {
  unsigned Hi = Vars[A];
  const double *Src0 = M.row(2 * Hi);
  const double *Src1 = M.row(2 * Hi + 1);
  double *Dst0 = Dst;
  double *Dst1 = Dst + 2 * A + 2;
  std::size_t Bi = 0;
  while (Bi <= A) {
    std::size_t B0 = Bi;
    unsigned First = Vars[B0];
    do
      ++Bi;
    while (Bi <= A && Vars[Bi] == Vars[Bi - 1] + 1);
    std::size_t Bytes = 2 * (Bi - B0) * sizeof(double);
    std::memcpy(Dst0 + 2 * B0, Src0 + 2 * First, Bytes);
    std::memcpy(Dst1 + 2 * B0, Src1 + 2 * First, Bytes);
  }
  return 4 * (A + 1);
}

std::size_t optoct::packRowPairEntry(double *Dst, const HalfDbm &M,
                                     const Partition &P, bool FullyInit,
                                     const std::vector<unsigned> &Vars,
                                     std::size_t A) {
  if (FullyInit)
    return packRowPair(Dst, M, Vars, A);
  unsigned Hi = Vars[A];
  int CA = P.componentOf(Hi);
  double *Dst0 = Dst;
  double *Dst1 = Dst + 2 * A + 2;
  for (std::size_t B = 0; B != A; ++B) {
    unsigned Lo = Vars[B];
    if (CA >= 0 && P.componentOf(Lo) == CA) {
      Dst0[2 * B] = M.at(2 * Hi, 2 * Lo);
      Dst0[2 * B + 1] = M.at(2 * Hi, 2 * Lo + 1);
      Dst1[2 * B] = M.at(2 * Hi + 1, 2 * Lo);
      Dst1[2 * B + 1] = M.at(2 * Hi + 1, 2 * Lo + 1);
    } else {
      Dst0[2 * B] = Infinity;
      Dst0[2 * B + 1] = Infinity;
      Dst1[2 * B] = Infinity;
      Dst1[2 * B + 1] = Infinity;
    }
  }
  Dst0[2 * A] = 0.0;
  Dst1[2 * A + 1] = 0.0;
  if (CA >= 0) {
    Dst0[2 * A + 1] = M.at(2 * Hi, 2 * Hi + 1);
    Dst1[2 * A] = M.at(2 * Hi + 1, 2 * Hi);
  } else {
    Dst0[2 * A + 1] = Infinity;
    Dst1[2 * A] = Infinity;
  }
  return 4 * (A + 1);
}

void optoct::scatterComponent(const double *Src, HalfDbm &M,
                              const std::vector<unsigned> &Vars) {
  for (std::size_t A = 0, NumV = Vars.size(); A != NumV; ++A) {
    unsigned Hi = Vars[A];
    double *Dst0 = M.row(2 * Hi);
    double *Dst1 = M.row(2 * Hi + 1);
    const double *Src0 = Src + HalfDbm::index(2 * static_cast<unsigned>(A), 0);
    const double *Src1 =
        Src + HalfDbm::index(2 * static_cast<unsigned>(A) + 1, 0);
    std::size_t Bi = 0;
    while (Bi <= A) {
      std::size_t B0 = Bi;
      unsigned First = Vars[B0];
      do
        ++Bi;
      while (Bi <= A && Vars[Bi] == Vars[Bi - 1] + 1);
      std::size_t Bytes = 2 * (Bi - B0) * sizeof(double);
      std::memcpy(Dst0 + 2 * First, Src0 + 2 * B0, Bytes);
      std::memcpy(Dst1 + 2 * First, Src1 + 2 * B0, Bytes);
    }
  }
}
