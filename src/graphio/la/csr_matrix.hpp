// Compressed sparse row matrix.
//
// Graph Laplacians are assembled in CSR form; the Lanczos eigensolver only
// needs y = A·x, which is parallelized over rows (disjoint writes).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graphio/la/dense_matrix.hpp"

namespace graphio::la {

/// One (row, col, value) entry used during assembly.
struct Triplet {
  std::int64_t row;
  std::int64_t col;
  double value;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds an n×n matrix from triplets; duplicate (row, col) entries are
  /// summed (the natural semantics for Laplacian assembly with multi-edges).
  static CsrMatrix from_triplets(std::int64_t n, std::vector<Triplet> entries);

  [[nodiscard]] std::int64_t size() const noexcept { return n_; }
  [[nodiscard]] std::int64_t nonzeros() const noexcept {
    return static_cast<std::int64_t>(values_.size());
  }

  /// y = A x, parallel over rows (support/parallel.hpp: OpenMP when built
  /// with it, the std::thread fallback above 2048 rows otherwise).
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// max |A_ij − A_ji| over stored entries (tests; O(nnz log nnz)).
  [[nodiscard]] double symmetry_error() const;

  /// Gershgorin upper bound on the largest eigenvalue:
  /// max_i (A_ii + Σ_{j≠i} |A_ij|). For Laplacians this is ≤ 2·max degree.
  [[nodiscard]] double gershgorin_upper_bound() const;

  /// Dense copy (tests and small-n fallbacks).
  [[nodiscard]] DenseMatrix to_dense() const;

  [[nodiscard]] std::span<const std::int64_t> row_ptr() const noexcept {
    return row_ptr_;
  }
  [[nodiscard]] std::span<const std::int64_t> col_idx() const noexcept {
    return col_idx_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

 private:
  std::int64_t n_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int64_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace graphio::la
