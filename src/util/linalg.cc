#include "src/util/linalg.h"

#include <cmath>
#include <stdexcept>

namespace longstore {

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    m.At(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  Matrix out(rows_, other.cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = At(r, k);
      if (a == 0.0) {
        continue;
      }
      for (size_t c = 0; c < other.cols_; ++c) {
        out.At(r, c) += a * other.At(k, c);
      }
    }
  }
  return out;
}

double Matrix::InfNorm() const {
  double best = 0.0;
  for (size_t r = 0; r < rows_; ++r) {
    double row = 0.0;
    for (size_t c = 0; c < cols_; ++c) {
      row += std::fabs(At(r, c));
    }
    best = std::max(best, row);
  }
  return best;
}

std::optional<std::vector<double>> SolveMarkovAbsorbing(Matrix rates,
                                                        std::vector<double> absorption,
                                                        std::vector<double> b) {
  const size_t n = rates.rows();
  if (rates.cols() != n || absorption.size() != n || b.size() != n) {
    throw std::invalid_argument("SolveMarkovAbsorbing: dimension mismatch");
  }
  for (size_t i = 0; i < n; ++i) {
    rates.At(i, i) = 0.0;  // diagonal is derived, never read
  }
  if (n == 0) {
    return std::vector<double>{};
  }

  // Forward elimination of states n-1 .. 1. After eliminating state k, the
  // remaining system over {0..k-1} is again an absorbing-Markov system with
  // updated (still nonnegative) rates, absorption rates, and rhs. Diagonals
  // are recomputed as row sums, which is the GTH trick that avoids the
  // catastrophic cancellation of ordinary Gaussian elimination.
  std::vector<double> pivot(n, 0.0);
  for (size_t k = n; k-- > 0;) {
    double d = absorption[k];
    for (size_t j = 0; j < k; ++j) {
      d += rates.At(k, j);
    }
    if (!(d > 0.0) || !std::isfinite(d)) {
      return std::nullopt;  // trap state: absorption unreachable
    }
    pivot[k] = d;
    if (k == 0) {
      break;
    }
    for (size_t i = 0; i < k; ++i) {
      const double r_ik = rates.At(i, k);
      if (r_ik == 0.0) {
        continue;
      }
      const double factor = r_ik / d;
      for (size_t j = 0; j < k; ++j) {
        if (j != i) {
          rates.At(i, j) += factor * rates.At(k, j);
        }
      }
      absorption[i] += factor * absorption[k];
      b[i] += factor * b[k];
    }
  }

  // Back substitution, also subtraction-free.
  std::vector<double> x(n, 0.0);
  for (size_t k = 0; k < n; ++k) {
    double acc = b[k];
    for (size_t j = 0; j < k; ++j) {
      acc += rates.At(k, j) * x[j];
    }
    x[k] = acc / pivot[k];
    if (!std::isfinite(x[k])) {
      return std::nullopt;
    }
  }
  return x;
}

}  // namespace longstore
