// Small dense linear algebra, sized for CTMC absorption solves.
//
// The replication chains in src/model produce systems with at most a few
// hundred states (state count grows cubically in replica count r, and r <= 10
// in every experiment), so dense storage is simpler and faster than any
// sparse machinery here. GTH elimination (SolveMarkovAbsorbing) is the one
// linear solver: every CTMC expected time and hitting probability goes
// through it, because it never subtracts and so keeps full relative accuracy
// where a general LU would cancel away every digit.

#ifndef LONGSTORE_SRC_UTIL_LINALG_H_
#define LONGSTORE_SRC_UTIL_LINALG_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace longstore {

// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  // The product, with a bit-identity contract: element (r, c) is exactly
  //   sum = 0.0;
  //   for k = 0, 1, ..., cols() - 1:
  //     if (At(r, k) != 0.0) sum += At(r, k) * other.At(k, c);
  // each product rounded before its add (the build enables no fused
  // multiply-add). Zero left entries are skipped, so a zero never meets an
  // inf or NaN in `other`, and a sum of negative zeros is +0.0. The kernel
  // may spread the work across elements as it likes (it keeps blocks of an
  // output row in registers) but never reorders one element's sum:
  // MatrixExponential, and with it every CTMC loss probability and the
  // frontier's pinned bytes, depend on these bits. tests/linalg_test.cc
  // holds the reference loop; a subtraction-free transient kernel (ROADMAP
  // direction 1) is meant to reuse this product under the same contract.
  Matrix operator*(const Matrix& other) const;

  // Maximum absolute row sum (infinity norm).
  double InfNorm() const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// Solves the absorbing-Markov system (D - R) x = b, where R holds the
// nonnegative transition rates among the n transient states (diagonal
// ignored), `absorption[i]` >= 0 is state i's total rate into absorbing
// states, and D is the diagonal of total outflows (row sum of R plus
// absorption). Uses GTH-style (Grassmann-Taksar-Heyman) elimination: every
// operation is an add/multiply/divide of nonnegative quantities, so the
// result keeps full relative accuracy even when expected absorption times
// exceed the repair timescale by 25+ orders of magnitude — exactly the
// regime of highly-replicated storage (eq 12 with large r).
// Requirements: b >= 0 elementwise; every state must have positive total
// outflow and a path to absorption (no traps). Returns nullopt if a zero
// pivot (trap) is encountered.
std::optional<std::vector<double>> SolveMarkovAbsorbing(Matrix rates,
                                                        std::vector<double> absorption,
                                                        std::vector<double> b);

}  // namespace longstore

#endif  // LONGSTORE_SRC_UTIL_LINALG_H_
