//===- workloads/workload.cpp - Synthetic benchmark programs --------------===//

#include "workloads/workload.h"

#include "support/random.h"

#include <algorithm>
#include <cstdarg>
#include <cassert>
#include <cstdio>

using namespace optoct;
using namespace optoct::workloads;

namespace {

class ProgramWriter {
public:
  explicit ProgramWriter(const WorkloadSpec &Spec)
      : Spec(Spec), R(Spec.Seed) {
    assert(Spec.GroupSize >= 2 && "groups need a non-counter variable");
    // Decide which groups are relational (no unary bounds anywhere,
    // iterated by while(*)) versus bounded (counter-guarded loops).
    Relational.resize(Spec.Groups);
    for (unsigned G = 0; G != Spec.Groups; ++G)
      Relational[G] = R.chance(Spec.RelationalFrac);
  }

  std::string run() {
    declareGroups();
    initGroups();
    for (unsigned P = 0; P != Spec.Phases; ++P)
      emitPhase(P);
    if (!Relational[0])
      line("assert(%s >= 0);", counterName(0).c_str());
    else if (Spec.GroupSize >= 2)
      line("assert(%s - %s <= 100);", varName(0, 0).c_str(),
           varName(0, 1).c_str());
    return std::move(Out);
  }

private:
  std::string varName(unsigned Group, unsigned Index) const {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "g%u_v%u", Group, Index);
    return Buf;
  }
  /// Variable 0 of each group doubles as its loop counter.
  std::string counterName(unsigned Group) const { return varName(Group, 0); }

  std::string scopeVarName(unsigned Index) const {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "s_v%u", Index);
    return Buf;
  }

  /// Formats "+ c" / "- c" (empty for 0) so expressions stay within
  /// the grammar (no unary minus after '+').
  static std::string offset(int C) {
    if (C == 0)
      return "";
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), " %c %d", C < 0 ? '-' : '+', C < 0 ? -C : C);
    return Buf;
  }

  void line(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args, Args2;
    va_start(Args, Fmt);
    va_copy(Args2, Args);
    int Len = std::vsnprintf(nullptr, 0, Fmt, Args);
    va_end(Args);
    std::string Buf(static_cast<std::size_t>(Len) + 1, '\0');
    std::vsnprintf(Buf.data(), Buf.size(), Fmt, Args2);
    va_end(Args2);
    Buf.resize(static_cast<std::size_t>(Len));
    Out.append(static_cast<std::size_t>(Indent), ' ');
    Out += Buf;
    Out += '\n';
  }

  void declareGroups() {
    std::string Decl = "var";
    bool First = true;
    for (unsigned G = 0; G != Spec.Groups; ++G)
      for (unsigned V = 0; V != Spec.GroupSize; ++V) {
        Decl += First ? " " : ", ";
        Decl += varName(G, V);
        First = false;
      }
    Decl += ";";
    line("%s", Decl.c_str());
  }

  void initGroups() {
    for (unsigned G = 0; G != Spec.Groups; ++G) {
      if (Relational[G]) {
        // Havoc-rooted relational chain: binary relations only.
        line("%s = havoc();", varName(G, 0).c_str());
        for (unsigned V = 1; V != Spec.GroupSize; ++V)
          line("%s = %s%s;", varName(G, V).c_str(),
               varName(G, V - 1).c_str(), offset(R.intIn(-2, 4)).c_str());
        continue;
      }
      // Bounded group: the counter guards its loops.
      line("%s = 0;", counterName(G).c_str());
      for (unsigned V = 1; V != Spec.GroupSize; ++V) {
        if (R.chance(Spec.BoundedFrac))
          line("%s = %s%s;", varName(G, V).c_str(),
               varName(G, V - 1).c_str(), offset(R.intIn(-2, 4)).c_str());
        else
          line("%s = havoc();", varName(G, V).c_str());
      }
    }
  }

  /// A random intra-group statement over the live variables of \p G
  /// (plus the scope variables when inside a scoped phase). Both
  /// operands come from the same cluster — the group itself or one
  /// scope segment — so independent clusters stay independent.
  void emitGroupStmt(unsigned G, unsigned NumScopeVars) {
    // Never pick the group counter (variable 0): clobbering it would
    // make the surrounding loop non-terminating and the analysis would
    // correctly prove the rest of the program unreachable.
    unsigned NumSegments =
        NumScopeVars == 0 ? 0 : (NumScopeVars + ScopeSegLen - 1) / ScopeSegLen;
    unsigned Cluster = static_cast<unsigned>(R.indexBelow(NumSegments + 1));
    if (Cluster == 0 && Spec.GroupSize < 2)
      Cluster = NumSegments; // group too small to pick from
    auto pick = [&]() -> std::string {
      if (Cluster == 0) // the group cluster (skip the counter)
        return varName(G, 1 + static_cast<unsigned>(
                                  R.indexBelow(Spec.GroupSize - 1)));
      unsigned Base = (Cluster - 1) * ScopeSegLen;
      unsigned Len = std::min(ScopeSegLen, NumScopeVars - Base);
      return scopeVarName(Base + static_cast<unsigned>(R.indexBelow(Len)));
    };
    std::string X = pick(), Y = pick();
    // Havoc (fresh input) concentrates in the second half of the
    // program, so the analysis starts dense and sparsifies midway
    // (Fig. 7's transition).
    double Havoc = CurrentPhase * 2 >= Spec.Phases
                       ? std::min(0.9, Spec.HavocProb * 3.0)
                       : 0.0;
    if (R.chance(Havoc)) {
      line("%s = havoc();", X.c_str());
      return;
    }
    switch (R.intIn(0, 4)) {
    case 0:
      line("%s = %s%s;", X.c_str(), Y.c_str(), offset(R.intIn(-1, 2)).c_str());
      break;
    case 1:
      // Updates drift in both directions so widening eventually removes
      // both unary bounds (the Fig. 7 dense-to-sparse transition).
      line("%s = %s %c 1;", X.c_str(), X.c_str(), R.chance(0.5) ? '+' : '-');
      break;
    case 2:
      line("%s = -%s%s;", X.c_str(), Y.c_str(), offset(R.intIn(0, 3)).c_str());
      break;
    case 3:
      if (X != Y && R.chance(std::min(1.0, Spec.BranchProb * 2))) {
        line("if (%s <= %s) {", X.c_str(), Y.c_str());
        Indent += 2;
        line("%s = %s;", X.c_str(), Y.c_str());
        Indent -= 2;
        line("} else {");
        Indent += 2;
        line("%s = %s + 1;", Y.c_str(), Y.c_str());
        Indent -= 2;
        line("}");
      } else {
        line("%s = havoc();", X.c_str());
      }
      break;
    default:
      // A refining branch: the bypass edge keeps the main path alive
      // even when the guard contradicts the current state.
      line("if (%s - %s <= %d) {", X.c_str(), Y.c_str(), R.intIn(8, 40));
      Indent += 2;
      line("%s = %s + 1;", X.c_str(), X.c_str());
      Indent -= 2;
      line("}");
      break;
    }
  }

  void emitLoop(unsigned G, unsigned NumScopeVars) {
    std::string Counter = counterName(G);
    bool Nondet = Relational[G] || inRelationalHalf();
    if (Nondet) {
      // Event-loop style iteration: no counter, no unary bounds.
      line("while (*) {");
      Indent += 2;
    } else {
      int Bound = R.intIn(8, 64);
      line("while (%s < %d) {", Counter.c_str(), Bound);
      Indent += 2;
      line("%s = %s + 1;", Counter.c_str(), Counter.c_str());
    }
    for (unsigned S = 0; S != Spec.StmtsPerLoop; ++S) {
      if (R.chance(Spec.CrossLinkProb) && Spec.Groups > 1) {
        // A rare cross-group link: merges two components for a while.
        unsigned Other = (G + 1) % Spec.Groups;
        line("%s = %s%s;",
             varName(G, 1 + R.indexBelow(Spec.GroupSize - 1)).c_str(),
             varName(Other, R.indexBelow(Spec.GroupSize)).c_str(),
             offset(R.intIn(0, 2)).c_str());
        continue;
      }
      emitGroupStmt(G, NumScopeVars);
    }
    Indent -= 2;
    line("}");
    // Reset the counter so the next phase over this group loops again.
    if (!Nondet)
      line("%s = 0;", Counter.c_str());
  }

  bool inRelationalHalf() const {
    return Spec.RelationalSecondHalf && CurrentPhase * 2 >= Spec.Phases;
  }

  void emitPhase(unsigned Phase) {
    CurrentPhase = Phase;
    unsigned G = Phase % Spec.Groups;
    if (Spec.RelationalSecondHalf &&
        (Phase * 2 == Spec.Phases || Phase * 2 == Spec.Phases + 1)) {
      // Midpoint re-rooting: every group's state is reloaded from fresh
      // input, keeping only binary relations.
      for (unsigned H = 0; H != Spec.Groups; ++H) {
        line("%s = havoc();", varName(H, 1).c_str());
        for (unsigned V = 2; V != Spec.GroupSize; ++V)
          line("%s = %s%s;", varName(H, V).c_str(),
               varName(H, V - 1).c_str(), offset(R.intIn(-2, 4)).c_str());
      }
    }
    // Half of the phases (when ScopeVars are configured) run inside a
    // scope that pushes the variable count to n_max. Single-phase
    // workloads are scoped so n_max is reached at all.
    bool Scoped =
        Spec.ScopeVars > 0 && (Spec.Phases == 1 || Phase % 2 == 1);
    if (!Scoped) {
      emitLoop(G, 0);
      return;
    }
    line("{");
    Indent += 2;
    std::string Decl = "var";
    for (unsigned V = 0; V != Spec.ScopeVars; ++V) {
      Decl += V == 0 ? " " : ", ";
      Decl += scopeVarName(V);
    }
    Decl += ";";
    line("%s", Decl.c_str());
    // Scope variables form independent chain segments (program
    // temporaries are related in small clusters, not one big chain);
    // the first segment roots at the group so some scoped state is
    // related to it.
    for (unsigned V = 0; V != Spec.ScopeVars; ++V) {
      if (V % ScopeSegLen == 0) {
        if (V == 0)
          // Root at a non-counter group variable: the counter's constant
          // bound must not leak into the scope chain.
          line("%s = %s;", scopeVarName(0).c_str(),
               varName(G, Spec.GroupSize >= 2 ? 1 : 0).c_str());
        else
          line("%s = havoc();", scopeVarName(V).c_str());
      } else {
        line("%s = %s%s;", scopeVarName(V).c_str(),
             scopeVarName(V - 1).c_str(), offset(R.intIn(0, 2)).c_str());
      }
    }
    emitLoop(G, Spec.ScopeVars);
    Indent -= 2;
    line("}");
  }

  /// Scope-segment length: clusters of temporaries.
  static constexpr unsigned ScopeSegLen = 8;

  const WorkloadSpec &Spec;
  Rng R;
  std::string Out;
  int Indent = 0;
  unsigned CurrentPhase = 0;
  std::vector<bool> Relational;
};

} // namespace

std::string optoct::workloads::generateProgram(const WorkloadSpec &Spec) {
  return ProgramWriter(Spec).run();
}
