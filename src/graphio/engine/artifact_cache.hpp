// Shared analysis artifacts for one computation graph.
//
// Every bound family consumes a handful of expensive graph-derived
// objects: a topological order, CSR Laplacians, eigen-spectra, and the
// maximum wavefront cut of the convex min-cut baseline. None of them
// depend on the memory size M, so one cache instance serves every method
// and every M of a sweep — the Engine computes each artifact at most once
// per graph. Per-component artifacts (spectra, topo orders, min-cut
// sweeps, memsim rows) additionally resolve through the content-addressed
// store::ArtifactStore before computing, so equal components across
// specs, stream patches, and (with a disk tier) process restarts compute
// once. Hit/miss counters are exposed so tests (and the CLI's JSON
// reports) can certify the reuse, e.g. that a full `--method all
// --memory 4,8,16` run performs exactly one eigendecomposition per
// Laplacian kind.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/graph/digraph.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/la/csr_matrix.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/telemetry/stat_counters.hpp"

namespace graphio::engine {

/// A precomputed component decomposition handed to an ArtifactCache by a
/// caller that already maintains one — the stream session's
/// DynamicComponents membership plus its incrementally-maintained
/// per-component fingerprints. With a seed installed, a per-component
/// artifact query never decomposes, never re-fingerprints, and
/// materializes only the components whose fingerprints miss the
/// ArtifactStore (for a stream session: exactly the dirty ones).
struct ComponentSeed {
  struct Component {
    /// Vertex ids of the owning graph, ascending (the extraction order).
    std::vector<VertexId> vertices;
    /// Edges inside the component (weak components are edge-closed).
    std::int64_t edges = 0;
    /// Content fingerprint — must equal graph_fingerprint of the
    /// component's extracted subgraph (the seeder's contract; the stream
    /// session maintains exactly this invariant across patches).
    std::uint64_t fingerprint = 0;
    /// Session-stable external id per vertex, aligned with `vertices`
    /// (ascending). Lets a retained eigenbasis remap its rows across
    /// vertex add/remove patches; empty when unavailable (warm reuse
    /// then requires an identical vertex count).
    std::vector<VertexId> external_ids;
    /// Pre-patch content fingerprint of this component (stream dirty
    /// components) — the key the warm-start layer falls back to when the
    /// component's own fingerprint has no retained basis.
    std::uint64_t predecessor = 0;
    bool has_predecessor = false;
  };
  std::vector<Component> components;
};

/// A graph described by callbacks instead of an owned Digraph — the
/// stream session hands one of these (plus a seed) after every patch, so
/// a query that only touches per-component artifacts never pays the
/// O(n + m) whole-graph materialization. `component` receives the index
/// of the seed component (in the caller's pre-sort order) to extract.
struct LazyGraph {
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::function<Digraph()> materialize;
  std::function<Digraph(int)> component;
  std::function<std::int64_t()> max_out_degree;
  std::function<std::int64_t()> max_in_degree;
};

class ArtifactCache {
 public:
  /// Takes ownership of the graph; artifacts are computed lazily.
  /// Per-component artifacts resolve through `store`, the
  /// fingerprint-keyed content-addressed artifact store — pass an
  /// Engine-shared instance so equal components across specs (and across
  /// the batch fan-out's private caches) compute once per process (or,
  /// with a disk tier, once ever); when null, the cache creates a private
  /// memory-only one (identical components *within* one graph still
  /// dedupe). A `seed` (validated against the graph) pre-installs the
  /// decomposition and per-component fingerprints, so the query path
  /// skips both.
  explicit ArtifactCache(
      Digraph graph, std::shared_ptr<store::ArtifactStore> store = nullptr,
      std::optional<ComponentSeed> seed = std::nullopt);

  /// Lazy variant: the graph stays unmaterialized until a whole-graph
  /// consumer (partition-dp's DP, pebble-exact, monolithic spectra) asks
  /// for it; per-component artifact queries extract through
  /// `lazy.component` — only store misses — instead. Requires a seed:
  /// without known fingerprints every component would have to
  /// materialize anyway, defeating the point.
  ArtifactCache(LazyGraph lazy, std::shared_ptr<store::ArtifactStore> store,
                ComponentSeed seed);

  /// The graph, materializing it on first use for lazily-constructed
  /// caches.
  [[nodiscard]] const Digraph& graph();

  /// Structural counts, without materializing a lazy graph.
  [[nodiscard]] std::int64_t num_vertices() const noexcept;
  [[nodiscard]] std::int64_t num_edges() const noexcept;
  [[nodiscard]] std::int64_t max_out_degree();
  [[nodiscard]] std::int64_t max_in_degree();

  /// Content fingerprint of the graph (engine/fingerprint.hpp), computed
  /// on first use and cached — the serve ResultStore asks for it on every
  /// request.
  [[nodiscard]] std::uint64_t fingerprint();

  /// Kahn topological order (lowest-id-first), assembled per weak
  /// component: each component's order resolves from the ArtifactStore by
  /// content fingerprint or runs Kahn on just that component, and the
  /// per-component orders merge by smallest next global id — bit-identical
  /// to whole-graph Kahn, because the global greedy always picks the
  /// minimum over the components' local minima. Throws contract_error on
  /// cyclic graphs.
  const std::vector<VertexId>& topo_order();

  /// Sparse Laplacian of the requested kind.
  const la::CsrMatrix& laplacian(LaplacianKind kind);

  struct SpectrumArtifact {
    /// Certified lower estimates of the smallest eigenvalues, ascending.
    /// May be shorter than `requested` when the solver did not converge.
    std::vector<double> values;
    bool converged = true;
    /// True when the producing pipeline run was certified-truncated (a
    /// deadline or injected fault) — the values are a valid but weaker
    /// lower-bound spectrum; rows derived from them carry degraded:true.
    bool degraded = false;
    /// The count the artifact was computed for (values.size() can be
    /// smaller on non-convergence; re-requesting the same count is still
    /// a hit — re-running an identical failing solve helps nobody).
    int requested = 0;
    /// Eigensolver wall time for this artifact (charged once).
    double seconds = 0.0;
    /// Weak components the pipeline decomposed the graph into.
    int components = 1;
    /// Component eigensolves actually run for this artifact (solves
    /// served by the artifact store or trivially zero are excluded).
    std::int64_t eigensolves = 0;
    /// Component solves served by the shared artifact store.
    std::int64_t component_hits = 0;
    /// Component subgraphs materialized for this artifact — on the
    /// fingerprint-first path only resolver misses extract, so for a
    /// seeded (stream) cache this equals the dirty-component count.
    std::int64_t subgraph_extractions = 0;
    /// Component fingerprints computed for this artifact. Zero when the
    /// cache was seeded or an earlier artifact already hashed them —
    /// fingerprints are computed once per graph, not once per spectrum.
    std::int64_t fingerprint_computes = 0;
    /// Component solves seeded from a retained predecessor eigenbasis.
    std::int64_t warm_hits = 0;
    /// Iterations the warm starts avoided versus their producing solves.
    std::int64_t warm_iterations_saved = 0;
    /// Content fingerprint per component, in component order. Unseeded
    /// caches never hash trivial edgeless components, so those slots
    /// hold 0; seeded (stream) caches carry the seeder's fingerprint for
    /// every component.
    std::vector<std::uint64_t> component_fingerprints;
    /// Per-component solve detail of the pipeline run that built this
    /// artifact, in component order — the provenance layer's raw
    /// material (tier, iterations, residual, artifact source).
    std::vector<ComponentSolve> per_component;
    /// Monotonic per-cache spectrum-request ticks: `computed_serial` is
    /// the tick at which this artifact was (re)computed,
    /// `touched_serial` that of its most recent request (hit or
    /// compute). An evaluation brackets spectrum_touch_serial() to
    /// learn which artifacts it consumed and which it computed fresh.
    std::uint64_t computed_serial = 0;
    std::uint64_t touched_serial = 0;
  };

  /// The `count` smallest Laplacian eigenvalues. A request covered by a
  /// previously computed artifact (same kind, count not larger, same
  /// solver-relevant options) is a cache hit and triggers no eigensolve;
  /// a larger request or changed options recompute. The cached artifact
  /// may hold more than `count` values (it was computed for the larger
  /// request) — every consumer in the library maximizes over a prefix,
  /// so extra values only help.
  const SpectrumArtifact& spectrum(LaplacianKind kind, int count,
                                   const SpectralOptions& options = {});

  /// Values held by the cached spectrum for `kind` (0 when none) — const
  /// introspection, never computes.
  [[nodiscard]] std::int64_t cached_spectrum_values(
      LaplacianKind kind) const noexcept;

  /// The memory-independent core of the convex min-cut baseline, per weak
  /// component: cuts[c] = max_v C(v) within component c. Components share
  /// no wavefront (a down-closed set of a disjoint union is the union of
  /// per-component down-closed sets), so the bound at memory M composes
  /// per Kwasniewski-style subgraph summation:
  ///     J* ≥ Σ_c 2·max(0, cuts[c] − M)
  /// — equal to the classical whole-graph bound on connected graphs and
  /// at least as strong on disjoint unions. Each component's sweep
  /// resolves from the ArtifactStore by content fingerprint or computes
  /// (and, when completed, publishes). Cached per flow engine; a finite
  /// time budget applies per component on the first (computing) call.
  struct WavefrontArtifact {
    std::vector<std::int64_t> cuts;  ///< per component, component order
    std::int64_t best_cut = 0;       ///< max over components
    VertexId best_vertex = -1;       ///< global id of the argmax vertex
    bool completed = true;           ///< every component sweep completed
    int components = 1;
  };
  const WavefrontArtifact& max_wavefront_cut(
      const flow::ConvexMinCutOptions& options = {});

  /// Best simulated schedule cost at (memory, random_orders), summed per
  /// weak component. Components share no values, so scheduling them one
  /// after another is feasible whenever each fits — the sum is a valid
  /// (and never weaker) upper bound, identical to the whole-graph
  /// simulation on connected graphs. Per-component rows resolve from the
  /// ArtifactStore by content fingerprint. Requires memory ≥ the graph's
  /// max in-degree (the caller's feasibility guard); throws
  /// contract_error like sim::best_schedule_io otherwise.
  struct MemsimArtifact {
    std::int64_t reads = 0;
    std::int64_t writes = 0;
    int components = 1;
    [[nodiscard]] std::int64_t total() const noexcept {
      return reads + writes;
    }
  };
  const MemsimArtifact& memsim_row(std::int64_t memory, int random_orders);

  /// Optimal Lemma 1 partition certificate at `memory`, composed per weak
  /// component: segment costs are additive across components (no cross
  /// edges), and merging adjacent segments at a component seam costs
  /// nothing while refunding one 2M segment charge, so for the
  /// component-concatenated natural order the whole-graph optimum is
  ///     max(0, Σ_c objective_c + 2M·(k − 1))
  /// over the k components with edges (edgeless components fold into a
  /// neighboring segment at zero cost — their own −2M optimum exactly
  /// cancels their seam refund). Per-component objectives resolve from
  /// the ArtifactStore by content fingerprint (and persist through its
  /// disk tier); only misses extract their subgraph and run the O(n²)
  /// DP — a stream patch recomputes exactly the dirty components. At
  /// least as strong as the former whole-graph DP on the interleaved
  /// merged order, and identical on connected graphs. Throws
  /// contract_error on cyclic graphs.
  struct PartitionArtifact {
    double bound = 0.0;         ///< max(0, composed objective)
    std::int64_t segments = 0;  ///< maximizing partition (0 when bound 0)
    int components = 1;
  };
  const PartitionArtifact& partition_row(double memory);

  struct Stats {
    std::int64_t hits = 0;         ///< artifact requests served from cache
    std::int64_t misses = 0;       ///< artifact requests that computed
    std::int64_t eigensolves = 0;  ///< per-component eigendecomposition runs
    std::int64_t mincut_sweeps = 0;  ///< per-component wavefront sweeps run
    std::int64_t topo_computes = 0;  ///< per-component Kahn runs
    std::int64_t memsim_runs = 0;    ///< per-component schedule simulations
    std::int64_t partition_runs = 0; ///< per-component Lemma 1 DP runs
    /// Component solves served by the shared artifact store instead of an
    /// eigensolver run.
    std::int64_t component_hits = 0;
    /// Component subgraphs materialized (fingerprint-first resolver
    /// misses) — the stream invariant is extractions == dirty components.
    std::int64_t subgraph_extractions = 0;
    /// Component fingerprints computed (zero for seeded stream queries).
    std::int64_t fingerprint_computes = 0;
    /// Component eigensolves warm-started from a retained basis.
    std::int64_t warm_hits = 0;
    /// Iterations those warm starts avoided versus their producing solves.
    std::int64_t warm_iterations_saved = 0;
    /// Cumulative per-phase pipeline wall time (the stream bench's
    /// fingerprint / extract / solve / merge breakdown).
    double fingerprint_seconds = 0.0;
    double extract_seconds = 0.0;
    double solve_seconds = 0.0;
    double merge_seconds = 0.0;

    /// Every field once, with its name: registry totals under `cache` (a
    /// gauge for seconds; `false` = per-instance only). Aggregation across
    /// caches/workers, before/after deltas and the JSON reports iterate
    /// this list, so a new counter cannot be dropped at one of them.
    static constexpr auto fields() {
      using telemetry::StatField;
      return std::tuple{
          StatField{&Stats::hits, "hits"},
          StatField{&Stats::misses, "misses"},
          StatField{&Stats::eigensolves, "eigensolves"},
          StatField{&Stats::mincut_sweeps, "mincut_sweeps"},
          StatField{&Stats::topo_computes, "topo_computes"},
          StatField{&Stats::memsim_runs, "memsim_runs"},
          StatField{&Stats::partition_runs, "partition_runs"},
          StatField{&Stats::component_hits, "component_hits"},
          StatField{&Stats::subgraph_extractions, "subgraph_extractions"},
          StatField{&Stats::fingerprint_computes, "fingerprint_computes"},
          StatField{&Stats::warm_hits, "warm_hits", false},
          StatField{&Stats::warm_iterations_saved, "warm_iterations_saved",
                    false},
          StatField{&Stats::fingerprint_seconds, "fingerprint_seconds"},
          StatField{&Stats::extract_seconds, "extract_seconds"},
          StatField{&Stats::solve_seconds, "solve_seconds"},
          StatField{&Stats::merge_seconds, "merge_seconds"}};
    }
    Stats& operator+=(const Stats& other) noexcept {
      telemetry::add_fields(*this, other);
      return *this;
    }
    [[nodiscard]] Stats operator-(const Stats& other) const noexcept {
      Stats out = *this;
      telemetry::subtract_fields(out, other);
      return out;
    }
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  /// The content-addressed artifact store this cache resolves against
  /// (shared with the owning Engine, or private).
  [[nodiscard]] const std::shared_ptr<store::ArtifactStore>&
  artifact_store() const noexcept {
    return store_;
  }

  /// Eigensolve count for one Laplacian kind (test hook for the
  /// computed-exactly-once guarantee).
  [[nodiscard]] std::int64_t eigensolves(LaplacianKind kind) const noexcept;

  /// Every spectrum artifact currently cached, by Laplacian kind — const
  /// introspection for the provenance layer; never computes.
  [[nodiscard]] const std::map<LaplacianKind, SpectrumArtifact>&
  cached_spectra() const noexcept {
    return spectra_;
  }

  /// One pipeline run performed by spectrum() — the adaptive-h loop can
  /// run several per evaluation, each replacing the cached artifact, so
  /// the per-run log (not the final artifact) is what reconciles against
  /// the solver registry counters. The engine brackets
  /// spectrum_runs().size() around an evaluation to attribute runs to it.
  struct SpectrumRun {
    LaplacianKind kind = LaplacianKind::kOutDegreeNormalized;
    int requested = 0;
    std::int64_t merged_values = 0;
    std::vector<ComponentSolve> per_component;
  };
  [[nodiscard]] const std::vector<SpectrumRun>& spectrum_runs()
      const noexcept {
    return spectrum_runs_;
  }
  /// Monotonic tick bumped on every spectrum() request (hit or compute);
  /// artifacts record the tick they were touched/computed at, so
  /// bracketing this value identifies the spectra one evaluation used.
  [[nodiscard]] std::uint64_t spectrum_touch_serial() const noexcept {
    return spectrum_touches_;
  }

 private:
  /// The cached decomposition behind every per-component artifact:
  /// computed once per graph (all artifact kinds and option groups share
  /// it), either from a seed (zero work) or by one BFS. Fingerprints fill
  /// in lazily — at most once per component for the cache's lifetime.
  struct Decomposition {
    WeakComponents wc;
    std::vector<std::int64_t> edges;         ///< per component
    std::vector<std::uint64_t> fingerprints; ///< valid where known
    std::vector<bool> known;
    /// Pre-sort position of each component in the caller's seed — the
    /// index LazyGraph::component expects (empty for unseeded caches).
    std::vector<int> source_index;
    /// Session-stable external ids per component (seeded caches only;
    /// inner vectors may be empty) — the eigenbasis row-remap key.
    std::vector<std::vector<VertexId>> external_ids;
    /// Pre-patch predecessor fingerprints per component (0 = none).
    std::vector<std::uint64_t> predecessors;
    std::vector<bool> has_predecessor;
  };
  Decomposition& decomposition();
  /// The lookup-then-extract plan for one spectrum query (monolithic
  /// single-entry plan when options.decompose is off).
  ComponentPlan build_plan(const SpectralOptions& options);
  /// The content fingerprint of component c, computed (and counted) on
  /// first use.
  std::uint64_t component_fingerprint(int c);
  /// Extracts component c's subgraph (counted). For single-component
  /// materialized graphs callers should use graph() in place instead.
  Digraph component_subgraph(int c);
  /// Adds `n` to one Stats field and to its registry total.
  template <auto Member, class N = std::int64_t>
  void bump(N n = 1);
  /// The memoized whole-graph artifact under `key`, or null — counted as
  /// a cache hit or miss.
  template <class Map>
  typename Map::mapped_type* memoized(Map& map,
                                      const typename Map::key_type& key);
  /// The per-component artifact loop body, written once: component c's
  /// artifact is the store's answer for its content fingerprint
  /// (`lookup`), or — on a miss — `compute` (which opens its own named
  /// span) run on its subgraph, counted under `Counter` and handed to
  /// `save`. The subgraph is `sub` when the caller already holds it, the
  /// graph itself when it is the only component, and an extraction
  /// otherwise.
  template <auto Counter, class Lookup, class Compute, class Save>
  auto resolve_component(int c, Lookup lookup, Compute compute, Save save,
                         const Digraph* sub = nullptr);
  /// Component c's min-first Kahn order in its local ids.
  std::vector<VertexId> component_topo(int c, const Digraph* sub = nullptr);

  Digraph graph_;
  bool materialized_ = true;
  std::optional<LazyGraph> lazy_;
  std::shared_ptr<store::ArtifactStore> store_;
  std::optional<ComponentSeed> seed_;
  std::optional<Decomposition> decomp_;
  Stats stats_;
  std::optional<std::uint64_t> fingerprint_;
  std::optional<std::vector<VertexId>> topo_;
  std::map<LaplacianKind, la::CsrMatrix> laplacians_;
  std::map<LaplacianKind, SpectrumArtifact> spectra_;
  std::map<LaplacianKind, SpectralOptions> spectra_options_;
  std::uint64_t spectrum_touches_ = 0;
  std::vector<SpectrumRun> spectrum_runs_;
  std::map<LaplacianKind, std::int64_t> eigensolves_by_kind_;
  std::map<flow::FlowEngine, WavefrontArtifact> max_cuts_;
  std::map<std::pair<std::int64_t, int>, MemsimArtifact> memsims_;
  std::map<double, PartitionArtifact> partitions_;
};

}  // namespace graphio::engine
