//===- oct/constraint.cpp - Linear expression helpers --------------------===//

#include "oct/constraint.h"

#include <cstdio>

using namespace optoct;

void LinExpr::addTerm(int Coef, unsigned Var) {
  if (Coef == 0)
    return;
  for (std::size_t I = 0; I != Terms.size(); ++I) {
    if (Terms[I].second != Var)
      continue;
    Terms[I].first += Coef;
    if (Terms[I].first == 0)
      Terms.erase(Terms.begin() + static_cast<std::ptrdiff_t>(I));
    return;
  }
  Terms.emplace_back(Coef, Var);
}

std::string optoct::renderConstraints(const std::vector<OctCons> &Cs,
                                      const std::vector<std::string> *Names) {
  if (Cs.empty())
    return "top";
  auto AppendName = [&](std::string &Out, unsigned V) {
    if (Names && V < Names->size()) {
      Out += (*Names)[V];
      return;
    }
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "v%u", V);
    Out += Buf;
  };
  std::string Out;
  for (const OctCons &C : Cs) {
    if (!Out.empty())
      Out += " && ";
    if (C.CoefI < 0)
      Out += '-';
    AppendName(Out, C.I);
    if (!C.isUnary()) {
      Out += C.CoefJ < 0 ? " - " : " + ";
      AppendName(Out, C.J);
    }
    // + 0.0 canonicalizes a negative-zero bound to "0": which sign of
    // zero survives a min/max tie differs between the SIMD kernels
    // (MINPD/MAXPD keep the second operand) and scalar code, and the
    // two are indistinguishable everywhere except printf — invariant
    // strings must not depend on that.
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " <= %g", C.Bound + 0.0);
    Out += Buf;
  }
  return Out;
}

std::string LinExpr::str() const {
  std::string Out;
  char Buf[48];
  for (const auto &[C, V] : Terms) {
    int Abs = C >= 0 ? C : -C;
    const char *Sign = Out.empty() ? (C < 0 ? "-" : "") : (C < 0 ? " - " : " + ");
    if (Abs == 1)
      std::snprintf(Buf, sizeof(Buf), "%sv%u", Sign, V);
    else
      std::snprintf(Buf, sizeof(Buf), "%s%d*v%u", Sign, Abs, V);
    Out += Buf;
  }
  if (Const != 0.0 || Out.empty()) {
    double Abs = Const >= 0 ? Const : -Const;
    const char *Sign =
        Out.empty() ? (Const < 0 ? "-" : "") : (Const < 0 ? " - " : " + ");
    std::snprintf(Buf, sizeof(Buf), "%s%g", Sign, Abs);
    Out += Buf;
  }
  return Out;
}
