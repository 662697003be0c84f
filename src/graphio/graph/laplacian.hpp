// Graph Laplacians of Section 4.2.
//
// The paper converts the directed computation graph G into a weighted
// undirected graph G̃: each directed edge (u, v) contributes an undirected
// edge of weight 1/dout(u). Theorem 4 uses the Laplacian L̃ of G̃; the
// looser Theorem 5 uses the plain (unweighted) undirected Laplacian L
// together with a 1/max-out-degree factor. Parallel edges accumulate
// weight in both variants.
#pragma once

#include <string_view>

#include "graphio/graph/digraph.hpp"
#include "graphio/la/csr_matrix.hpp"
#include "graphio/la/dense_matrix.hpp"

namespace graphio {

enum class LaplacianKind {
  /// L = D − A of the undirected multigraph skeleton of G.
  kPlain,
  /// L̃ of G̃ with edge weights 1/dout(u) (Section 4.2).
  kOutDegreeNormalized,
};

/// "plain" or "norm" — the kind's name in store logs and provenance.
std::string_view to_string(LaplacianKind kind);
/// The inverse of to_string; throws contract_error on any other name.
LaplacianKind laplacian_kind_from(std::string_view name);

/// Sparse Laplacian of the requested kind. Always symmetric PSD with row
/// sums zero; vertices with no incident edges yield empty rows.
la::CsrMatrix laplacian(const Digraph& g, LaplacianKind kind);

/// Dense variant (small graphs / tests).
la::DenseMatrix dense_laplacian(const Digraph& g, LaplacianKind kind);

}  // namespace graphio
