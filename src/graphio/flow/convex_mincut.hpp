// The convex min-cut automatic lower bound of Elango et al. [13] — the
// baseline the paper compares against in Section 6.3.
//
// For a vertex v, consider any evaluation order at the moment v has just
// been computed. The set S of computed vertices is down-closed (contains
// all predecessors of its members), contains v, and excludes v's strict
// descendants. Its *wavefront*
//     W(S) = { u ∈ S : ∃ (u, w) ∈ E with w ∉ S }
// is exactly the set of live values: computed and still needed. At most M
// of them fit in fast memory, and each of the other |W(S)| − M values must
// be written to slow memory once and read back once, so
//     J*(G) ≥ max_v max(0, 2·(C(v, G) − M)),   C(v, G) = min_S |W(S)|.
//
// C(v, G) is a minimum s-t cut: split every vertex u into u_in → u_out of
// capacity 1 ("u is in the wavefront"); for every edge (u, w) add
// structural ∞ arcs u_out → w_in (if u ∈ S and w ∉ S, u must pay) and
// w_in → u_in (down-closure); connect s → v_in and every strict descendant
// of v to t. Vertices with no descendants yield C(v) = 0 and are skipped.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graphio/graph/digraph.hpp"

namespace graphio::flow {

/// Max-flow engine used for the wavefront cuts; the two implementations
/// are interchangeable (tests cross-certify them) and differ only in
/// speed per network shape (bench/micro_flow).
enum class FlowEngine { kDinic, kPushRelabel };

/// C(v, G): the minimum wavefront size over down-closed sets containing v
/// and excluding v's strict descendants. Returns 0 when v has none.
std::int64_t wavefront_mincut(const Digraph& g, VertexId v,
                              FlowEngine engine = FlowEngine::kDinic);

struct ConvexMinCutOptions {
  /// Wall-clock cutoff; when exceeded the sweep stops early and the result
  /// is marked incomplete (the partial maximum is still a valid bound).
  double time_budget_seconds = std::numeric_limits<double>::infinity();
  /// Sweep vertices in parallel (support/parallel.hpp: OpenMP when built
  /// with it, the std::thread fallback otherwise).
  bool parallel = true;
  FlowEngine engine = FlowEngine::kDinic;
};

struct ConvexMinCutResult {
  double bound = 0.0;               ///< max_v 2·max(0, C(v) − M)
  VertexId best_vertex = -1;        ///< argmax vertex (-1 if none positive)
  std::int64_t best_cut = 0;        ///< C(best_vertex)
  bool completed = true;            ///< false when the time budget expired
  std::int64_t vertices_processed = 0;
  double seconds = 0.0;
};

/// The full baseline bound J* ≥ max_v 2·(C(v, G) − M) over all vertices.
ConvexMinCutResult convex_mincut_bound(const Digraph& g, double memory,
                                       const ConvexMinCutOptions& options = {});

/// The partitioned variant discussed in Section 6.3: split the graph into
/// parts of at most `max_part_size` vertices (the paper used METIS with
/// parts of 2M), run the baseline on each induced sub-graph, and sum
///     J* ≥ Σ_P max_{v∈P} max(0, 2·(C(v, G_P) − M)).
/// The paper observes this yields trivial (zero) bounds on complex graphs;
/// the ablation bench reproduces that observation.
ConvexMinCutResult partitioned_convex_mincut_bound(
    const Digraph& g, double memory, std::int64_t max_part_size,
    const ConvexMinCutOptions& options = {});

}  // namespace graphio::flow
