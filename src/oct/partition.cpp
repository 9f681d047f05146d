//===- oct/partition.cpp - Independent variable components ---------------===//

#include "oct/partition.h"

#include "oct/dbm.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace optoct;

namespace {

/// Small union-find over variable indices.
class UnionFind {
public:
  explicit UnionFind(unsigned N = 0) { reset(N); }

  /// N singletons, reusing the allocation.
  void reset(unsigned N) {
    Parent.resize(N);
    std::iota(Parent.begin(), Parent.end(), 0u);
  }

  unsigned find(unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  }

  void merge(unsigned A, unsigned B) { Parent[find(A)] = find(B); }

private:
  std::vector<unsigned> Parent;
};

} // namespace

Partition Partition::whole(unsigned NumVars) {
  Partition P(NumVars);
  if (NumVars == 0)
    return P;
  std::vector<unsigned> All(NumVars);
  std::iota(All.begin(), All.end(), 0u);
  P.Comps.push_back(std::move(All));
  std::fill(P.CompOf.begin(), P.CompOf.end(), 0);
  return P;
}

std::size_t Partition::coveredVars() const {
  std::size_t Total = 0;
  for (const auto &C : Comps)
    Total += C.size();
  return Total;
}

std::size_t Partition::addSingleton(unsigned Var) {
  assert(Var < CompOf.size() && "variable out of range");
  if (CompOf[Var] >= 0)
    return static_cast<std::size_t>(CompOf[Var]);
  Comps.push_back({Var});
  CompOf[Var] = static_cast<int>(Comps.size() - 1);
  return Comps.size() - 1;
}

std::size_t Partition::relate(unsigned U, unsigned V) {
  std::size_t CU = addSingleton(U);
  if (U == V)
    return CU;
  std::size_t CV = addSingleton(V);
  CU = static_cast<std::size_t>(CompOf[U]); // may have changed via push
  if (CU == CV)
    return CU;
  return static_cast<std::size_t>(
      mergeComponents({CU, CV}));
}

int Partition::mergeComponents(const std::vector<std::size_t> &CompIndices) {
  if (CompIndices.empty())
    return -1;
  std::vector<std::size_t> Unique(CompIndices);
  std::sort(Unique.begin(), Unique.end());
  Unique.erase(std::unique(Unique.begin(), Unique.end()), Unique.end());
  if (Unique.size() == 1)
    return static_cast<int>(Unique[0]);

  std::vector<unsigned> Merged;
  for (std::size_t C : Unique)
    Merged.insert(Merged.end(), Comps[C].begin(), Comps[C].end());
  std::sort(Merged.begin(), Merged.end());

  // Replace the first listed block and erase the rest (back to front so
  // indices stay valid). Erased indices are all greater than Unique[0],
  // so the merged block keeps index Unique[0].
  Comps[Unique[0]] = std::move(Merged);
  for (std::size_t I = Unique.size(); I-- > 1;)
    Comps.erase(Comps.begin() + static_cast<std::ptrdiff_t>(Unique[I]));
  rebuildIndex();
  return static_cast<int>(Unique[0]);
}

void Partition::removeVar(unsigned Var) {
  assert(Var < CompOf.size() && "variable out of range");
  int C = CompOf[Var];
  if (C < 0)
    return;
  auto &Block = Comps[static_cast<std::size_t>(C)];
  Block.erase(std::find(Block.begin(), Block.end(), Var));
  if (Block.empty())
    Comps.erase(Comps.begin() + C);
  rebuildIndex();
}

Partition Partition::unionMerge(const Partition &A, const Partition &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  // A whole input absorbs anything it is merged with. Dense/Dense meets
  // and narrowings hit this on every call, so skip the union-find.
  if (A.isWhole())
    return A;
  if (B.isWhole())
    return B;
  unsigned N = A.numVars();
  UnionFind UF(N);
  std::vector<bool> Covered(N, false);
  for (const Partition *P : {&A, &B})
    for (const auto &C : P->Comps) {
      for (unsigned Var : C)
        Covered[Var] = true;
      for (std::size_t I = 1; I < C.size(); ++I)
        UF.merge(C[0], C[I]);
    }

  Partition Result(N);
  std::vector<int> RootToComp(N, -1);
  for (unsigned Var = 0; Var != N; ++Var) {
    if (!Covered[Var])
      continue;
    unsigned Root = UF.find(Var);
    if (RootToComp[Root] < 0) {
      RootToComp[Root] = static_cast<int>(Result.Comps.size());
      Result.Comps.emplace_back();
    }
    Result.Comps[static_cast<std::size_t>(RootToComp[Root])].push_back(Var);
  }
  Result.rebuildIndex();
  return Result;
}

Partition Partition::refine(const Partition &A, const Partition &B) {
  assert(A.numVars() == B.numVars() && "dimension mismatch");
  // Refining against a whole partition changes nothing: every variable
  // is covered by the whole side and no block of the other side splits.
  // Dense/Dense joins and widenings hit this on every call.
  if (A.isWhole())
    return B;
  if (B.isWhole())
    return A;
  unsigned N = A.numVars();
  Partition Result(N);
  // A variable survives iff covered by both; two survivors share a block
  // iff they share a block in both inputs. Key each survivor by its
  // (A-block, B-block) pair.
  std::vector<std::vector<int>> Key; // per new block: {a, b}
  for (unsigned Var = 0; Var != N; ++Var) {
    int CA = A.CompOf[Var], CB = B.CompOf[Var];
    if (CA < 0 || CB < 0)
      continue;
    int Found = -1;
    for (std::size_t I = 0; I != Key.size(); ++I)
      if (Key[I][0] == CA && Key[I][1] == CB) {
        Found = static_cast<int>(I);
        break;
      }
    if (Found < 0) {
      Found = static_cast<int>(Key.size());
      Key.push_back({CA, CB});
      Result.Comps.emplace_back();
    }
    Result.Comps[static_cast<std::size_t>(Found)].push_back(Var);
  }
  Result.rebuildIndex();
  return Result;
}

bool Partition::coarsens(const Partition &Finer) const {
  assert(numVars() == Finer.numVars() && "dimension mismatch");
  for (const auto &Block : Finer.Comps) {
    int C = CompOf[Block[0]];
    if (C < 0)
      return false;
    for (unsigned Var : Block)
      if (CompOf[Var] != C)
        return false;
  }
  return true;
}

bool Partition::operator==(const Partition &Other) const {
  if (CompOf.size() != Other.CompOf.size() ||
      Comps.size() != Other.Comps.size())
    return false;
  // Blocks are sorted internally; compare as canonical sorted multisets.
  auto Canon = [](const Partition &P) {
    std::vector<std::vector<unsigned>> C = P.Comps;
    std::sort(C.begin(), C.end());
    return C;
  };
  return Canon(*this) == Canon(Other);
}

void Partition::rebuildIndex() {
  std::fill(CompOf.begin(), CompOf.end(), -1);
  for (std::size_t C = 0; C != Comps.size(); ++C)
    for (unsigned Var : Comps[C])
      CompOf[Var] = static_cast<int>(C);
}

namespace {

/// Per-thread working storage of appendExactComponents, so closures do
/// not allocate it per component. Indices are positions in Vars.
struct ExtractScratch {
  UnionFind UF;
  std::vector<char> Covered;
  /// At a union-find root, once its block is appended: the block's
  /// index; -1 before.
  std::vector<int> BlockOf;
};

} // namespace

std::size_t Partition::appendExactComponents(const HalfDbm &M,
                                             const std::vector<unsigned> &Vars) {
  static thread_local ExtractScratch S;
  const unsigned K = static_cast<unsigned>(Vars.size());
  S.UF.reset(K);
  S.Covered.assign(K, 0);
  S.BlockOf.assign(K, -1);

  std::size_t Finite = 0;
  for (unsigned A = 0; A != K; ++A) {
    const unsigned V = Vars[A];
    const double *R0 = M.row(2 * V), *R1 = M.row(2 * V + 1);
    // The 2x2 diagonal block: its off-diagonal entries encode +-2v <= c.
    if (isFinite(R0[2 * V + 1]) || isFinite(R1[2 * V]))
      S.Covered[A] = 1;
    Finite += isFinite(R0[2 * V]) + isFinite(R0[2 * V + 1]) +
              isFinite(R1[2 * V]) + isFinite(R1[2 * V + 1]);
    for (unsigned B = 0; B != A; ++B) {
      const unsigned U = Vars[B];
      const std::size_t Pair = isFinite(R0[2 * U]) + isFinite(R0[2 * U + 1]) +
                               isFinite(R1[2 * U]) + isFinite(R1[2 * U + 1]);
      if (Pair == 0)
        continue;
      Finite += Pair;
      S.Covered[A] = S.Covered[B] = 1;
      S.UF.merge(A, B);
    }
  }

  // Positions ascending: a block is appended at its smallest member,
  // and members come in ascending order.
  for (unsigned A = 0; A != K; ++A) {
    const unsigned V = Vars[A];
    assert(CompOf[V] < 0 && "appending an already covered variable");
    if (!S.Covered[A]) {
      // Uncovered: only its diagonal was finite, and it is not inside
      // any appended block.
      Finite -= isFinite(M.at(2 * V, 2 * V)) +
                isFinite(M.at(2 * V + 1, 2 * V + 1));
      continue;
    }
    int &C = S.BlockOf[S.UF.find(A)];
    if (C < 0) {
      C = static_cast<int>(Comps.size());
      Comps.emplace_back();
    }
    Comps[static_cast<std::size_t>(C)].push_back(V);
    CompOf[V] = C;
  }
  return Finite;
}

Partition optoct::extractPartition(const HalfDbm &M,
                                   const std::vector<unsigned> &Vars) {
  Partition Result(M.numVars());
  Result.appendExactComponents(M, Vars);
  return Result;
}

Partition optoct::extractPartition(const HalfDbm &M) {
  std::vector<unsigned> Vars(M.numVars());
  std::iota(Vars.begin(), Vars.end(), 0u);
  return extractPartition(M, Vars);
}
