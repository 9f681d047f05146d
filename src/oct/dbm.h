//===- oct/dbm.h - Half difference-bound matrix ------------------*- C++ -*-===//
///
/// \file
/// The half (lower-triangular) DBM representation of octagons used by the
/// paper and by APRON (Section 2.1, Section 5.1).
///
/// For n program variables v_0..v_{n-1} the full DBM is a 2n x 2n matrix
/// over the extended variables vhat_{2i} = +v_i and vhat_{2i+1} = -v_i,
/// where entry O(i,j) = c encodes the inequality vhat_j - vhat_i <= c.
/// The full matrix is coherent: O(i,j) and O(j^1, i^1) encode the same
/// inequality, so only entries with j <= (i|1) are stored — the lower
/// triangle of the 2x2-block view — for a total of 2n(n+1) doubles.
///
/// The buffer is deliberately allowed to be *partially initialized*: the
/// Top and Decomposed octagon kinds interpret entries outside their
/// independent components as implicit +inf (Section 3), so those slots
/// may hold garbage until a component grows over them.
///
//===----------------------------------------------------------------------===//

#ifndef OPTOCT_OCT_DBM_H
#define OPTOCT_OCT_DBM_H

#include "oct/value.h"
#include "support/aligned.h"

#include <cassert>
#include <cstddef>

namespace optoct {

/// Lower-triangular (half) DBM over 2n extended variables.
class HalfDbm {
public:
  HalfDbm() = default;

  /// Allocates storage for \p NumVars variables; entries uninitialized.
  explicit HalfDbm(unsigned NumVars)
      : N(NumVars), M(matSize(NumVars)) {}

  /// Number of program variables n.
  unsigned numVars() const { return N; }

  /// Number of extended variables 2n (matrix dimension).
  unsigned dim() const { return 2 * N; }

  /// Number of stored entries, 2n(n+1).
  static std::size_t matSize(unsigned NumVars) {
    return 2 * static_cast<std::size_t>(NumVars) * (NumVars + 1);
  }
  std::size_t size() const { return matSize(N); }

  /// Packed index of stored entry (i, j), valid only for j <= (i|1).
  /// Row i holds (i|1)+1 entries; rows are laid out consecutively.
  static std::size_t index(unsigned I, unsigned J) {
    assert(J <= (I | 1u) && "index() requires a lower-triangle entry");
    return J + (static_cast<std::size_t>(I) + 1) * (I + 1) / 2;
  }

  /// Reads entry (i, j) for any i, j < 2n using coherence.
  double get(unsigned I, unsigned J) const {
    assert(I < dim() && J < dim() && "DBM access out of range");
    if (J <= (I | 1u))
      return M[index(I, J)];
    return M[index(J ^ 1u, I ^ 1u)];
  }

  /// Writes entry (i, j) for any i, j < 2n using coherence.
  void set(unsigned I, unsigned J, double Value) {
    assert(I < dim() && J < dim() && "DBM access out of range");
    if (J <= (I | 1u))
      M[index(I, J)] = Value;
    else
      M[index(J ^ 1u, I ^ 1u)] = Value;
  }

  /// Direct access to a stored (lower-triangle) entry.
  double &at(unsigned I, unsigned J) {
    assert(I < dim() && "DBM access out of range");
    return M[index(I, J)];
  }
  double at(unsigned I, unsigned J) const {
    assert(I < dim() && "DBM access out of range");
    return M[index(I, J)];
  }

  /// Re-shapes to \p NumVars variables, reusing the existing allocation
  /// when it is large enough (entries are discarded either way). Used by
  /// the closure scratch to recycle one submatrix temp across closures.
  void resizeDiscard(unsigned NumVars) {
    if (matSize(NumVars) > M.size())
      M.resizeDiscard(matSize(NumVars));
    N = NumVars;
  }

  /// Raw packed storage (for the optimized closure kernels).
  double *data() { return M.data(); }
  const double *data() const { return M.data(); }

  /// Number of stored entries in row \p I: columns j = 0..(I|1). Both
  /// rows of a variable pair (2v, 2v+1) store the same (I|1)+1 columns,
  /// so row(I)[0 .. rowEntries(I)) is the contiguous span the flat
  /// operator kernels (oct/simd_kernels.h) stream over.
  static unsigned rowEntries(unsigned I) { return (I | 1u) + 1; }

  /// Pointer to the start of stored row \p I (entries j = 0..(I|1)).
  double *row(unsigned I) { return M.data() + index(I, 0); }
  const double *row(unsigned I) const { return M.data() + index(I, 0); }

  /// Initializes every entry to the top element: +inf off-diagonal, 0 on
  /// the diagonal.
  void initTop() {
    M.fill(Infinity);
    for (unsigned I = 0, D = dim(); I != D; ++I)
      M[index(I, I)] = 0.0;
  }

  /// Initializes only the entries relating variables \p U and \p V (the
  /// four cross entries in the lower triangle, or the 2x2 diagonal block
  /// when U == V) to trivial values. Used for on-demand initialization
  /// when components grow (Section 3).
  void initPairTrivial(unsigned U, unsigned V) {
    assert(U < N && V < N && "variable out of range");
    if (U == V) {
      M[index(2 * U, 2 * U)] = 0.0;
      M[index(2 * U, 2 * U + 1)] = Infinity;
      M[index(2 * U + 1, 2 * U)] = Infinity;
      M[index(2 * U + 1, 2 * U + 1)] = 0.0;
      return;
    }
    unsigned Lo = U < V ? U : V, Hi = U < V ? V : U;
    // All four (2Hi+a, 2Lo+b) slots are in the lower triangle.
    for (unsigned A = 0; A != 2; ++A)
      for (unsigned B = 0; B != 2; ++B)
        M[index(2 * Hi + A, 2 * Lo + B)] = Infinity;
  }

  /// Counts stored entries that are finite (< +inf). Only meaningful on a
  /// fully initialized matrix.
  std::size_t countFinite() const {
    std::size_t Nni = 0;
    for (std::size_t I = 0, E = size(); I != E; ++I)
      Nni += isFinite(M[I]);
    return Nni;
  }

private:
  unsigned N = 0;
  AlignedBuffer<double> M;
};

} // namespace optoct

#endif // OPTOCT_OCT_DBM_H
