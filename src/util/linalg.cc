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

namespace {

// Columns [c, c + kWidth) of row `a` times `b` (`inner` rows, `stride`
// columns): each sum starts at 0.0 and adds a[k] * b(k, col) for ascending k,
// skipping k where a[k] == 0, which is the product's definition element by
// element. The kWidth sums stay in registers for the whole k loop, instead
// of being loaded and stored once per k.
template <size_t kWidth>
void ProductColumns(const double* a, size_t inner, const double* b, size_t stride,
                    size_t c, double* out) {
  double sum[kWidth] = {};
  for (size_t k = 0; k < inner; ++k) {
    const double x = a[k];
    if (x == 0.0) {
      continue;
    }
    const double* row = b + k * stride + c;
    for (size_t j = 0; j < kWidth; ++j) {
      sum[j] += x * row[j];
    }
  }
  for (size_t j = 0; j < kWidth; ++j) {
    out[c + j] = sum[j];
  }
}

}  // namespace

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix multiply: dimension mismatch");
  }
  const size_t n = other.cols_;
  Matrix out(rows_, n, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    const double* a = data_.data() + r * cols_;
    const double* b = other.data_.data();
    double* row = out.data_.data() + r * n;
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
      ProductColumns<16>(a, cols_, b, n, c, row);
    }
    if (c + 8 <= n) {
      ProductColumns<8>(a, cols_, b, n, c, row);
      c += 8;
    }
    if (c + 4 <= n) {
      ProductColumns<4>(a, cols_, b, n, c, row);
      c += 4;
    }
    if (c + 2 <= n) {
      ProductColumns<2>(a, cols_, b, n, c, row);
      c += 2;
    }
    if (c < n) {
      ProductColumns<1>(a, cols_, b, n, c, row);
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
