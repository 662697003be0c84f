#include "graphio/graph/laplacian.hpp"

#include <string>

#include "graphio/support/contracts.hpp"

namespace graphio {

std::string_view to_string(LaplacianKind kind) {
  return kind == LaplacianKind::kPlain ? "plain" : "norm";
}

LaplacianKind laplacian_kind_from(std::string_view name) {
  if (name == "plain") return LaplacianKind::kPlain;
  GIO_EXPECTS_MSG(name == "norm",
                  "unknown laplacian kind '" + std::string(name) + "'");
  return LaplacianKind::kOutDegreeNormalized;
}

namespace {

std::vector<la::Triplet> laplacian_triplets(const Digraph& g,
                                            LaplacianKind kind) {
  std::vector<la::Triplet> entries;
  entries.reserve(static_cast<std::size_t>(4 * g.num_edges()));
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    const double dout = static_cast<double>(g.out_degree(u));
    for (VertexId v : g.children(u)) {
      const double w =
          kind == LaplacianKind::kPlain ? 1.0 : 1.0 / dout;
      entries.push_back({u, u, w});
      entries.push_back({v, v, w});
      entries.push_back({u, v, -w});
      entries.push_back({v, u, -w});
    }
  }
  return entries;
}

}  // namespace

la::CsrMatrix laplacian(const Digraph& g, LaplacianKind kind) {
  return la::CsrMatrix::from_triplets(g.num_vertices(),
                                      laplacian_triplets(g, kind));
}

la::DenseMatrix dense_laplacian(const Digraph& g, LaplacianKind kind) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  la::DenseMatrix m(n, n);
  for (const la::Triplet& t : laplacian_triplets(g, kind))
    m(static_cast<std::size_t>(t.row), static_cast<std::size_t>(t.col)) +=
        t.value;
  return m;
}

}  // namespace graphio
