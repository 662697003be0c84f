#include "graphio/engine/artifact_cache.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "graphio/core/partition_dp.hpp"
#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/graph/topo.hpp"
#include "graphio/sim/memsim.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::engine {

namespace {

// Registry totals of every ArtifactCache's Stats (monotone: they survive
// cache destruction and graph reinstalls, which the per-instance Stats do
// not). Resolved together on first use; every bump is then one relaxed
// atomic add.
const telemetry::StatCounters<ArtifactCache::Stats>& cache_counters() {
  static const telemetry::StatCounters<ArtifactCache::Stats> counters(
      "cache");
  return counters;
}

}  // namespace

template <auto Member, class N>
void ArtifactCache::bump(N n) {
  cache_counters().bump<Member>(stats_, n);
}

ArtifactCache::ArtifactCache(Digraph graph,
                             std::shared_ptr<store::ArtifactStore> store,
                             std::optional<ComponentSeed> seed)
    : graph_(std::move(graph)),
      store_(std::move(store)),
      seed_(std::move(seed)) {
  if (store_ == nullptr) store_ = std::make_shared<store::ArtifactStore>();
}

ArtifactCache::ArtifactCache(LazyGraph lazy,
                             std::shared_ptr<store::ArtifactStore> store,
                             ComponentSeed seed)
    : materialized_(false),
      lazy_(std::move(lazy)),
      store_(std::move(store)),
      seed_(std::move(seed)) {
  GIO_EXPECTS_MSG(lazy_->materialize && lazy_->component &&
                      lazy_->max_out_degree && lazy_->max_in_degree,
                  "lazy graph must provide every callback");
  if (store_ == nullptr) store_ = std::make_shared<store::ArtifactStore>();
}

const Digraph& ArtifactCache::graph() {
  if (!materialized_) {
    graph_ = lazy_->materialize();
    GIO_EXPECTS_MSG(graph_.num_vertices() == lazy_->vertices &&
                        graph_.num_edges() == lazy_->edges,
                    "lazy graph materialized to different counts than "
                    "declared");
    materialized_ = true;
  }
  return graph_;
}

std::int64_t ArtifactCache::num_vertices() const noexcept {
  return materialized_ ? graph_.num_vertices() : lazy_->vertices;
}

std::int64_t ArtifactCache::num_edges() const noexcept {
  return materialized_ ? graph_.num_edges() : lazy_->edges;
}

std::int64_t ArtifactCache::max_out_degree() {
  return lazy_.has_value() ? lazy_->max_out_degree()
                           : graph_.max_out_degree();
}

std::int64_t ArtifactCache::max_in_degree() {
  return lazy_.has_value() ? lazy_->max_in_degree()
                           : graph_.max_in_degree();
}

ArtifactCache::Decomposition& ArtifactCache::decomposition() {
  if (decomp_.has_value()) return *decomp_;
  Decomposition d;
  if (seed_.has_value()) {
    // Adopt the seeded decomposition after validating that it partitions
    // the graph — a wrong seed would silently serve wrong spectra, so the
    // O(n) check is worth one pass. Components are renumbered to the
    // deterministic smallest-vertex order of weakly_connected_components;
    // source_index remembers each one's position in the caller's seed so
    // LazyGraph::component can be asked for the right extraction.
    std::vector<int> order(seed_->components.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      const auto& ca = seed_->components[static_cast<std::size_t>(a)];
      const auto& cb = seed_->components[static_cast<std::size_t>(b)];
      GIO_EXPECTS_MSG(!ca.vertices.empty() && !cb.vertices.empty(),
                      "component seed entries must not be empty");
      return ca.vertices.front() < cb.vertices.front();
    });
    const std::int64_t n = num_vertices();
    d.wc.count = static_cast<int>(seed_->components.size());
    d.wc.component_of.assign(static_cast<std::size_t>(n), -1);
    d.wc.local_id.assign(static_cast<std::size_t>(n), 0);
    std::int64_t covered = 0;
    std::int64_t edge_total = 0;
    for (int c = 0; c < d.wc.count; ++c) {
      const int src = order[static_cast<std::size_t>(c)];
      ComponentSeed::Component& comp =
          seed_->components[static_cast<std::size_t>(src)];
      GIO_EXPECTS_MSG(!comp.vertices.empty(),
                      "component seed entries must not be empty");
      for (std::size_t i = 0; i < comp.vertices.size(); ++i) {
        const VertexId v = comp.vertices[i];
        GIO_EXPECTS_MSG(v >= 0 && v < n,
                        "component seed names vertex " + std::to_string(v) +
                            " outside the graph");
        GIO_EXPECTS_MSG(i == 0 || comp.vertices[i - 1] < v,
                        "component seed vertex lists must ascend");
        GIO_EXPECTS_MSG(d.wc.component_of[static_cast<std::size_t>(v)] == -1,
                        "component seed assigns vertex " + std::to_string(v) +
                            " twice");
        d.wc.component_of[static_cast<std::size_t>(v)] = c;
        d.wc.local_id[static_cast<std::size_t>(v)] =
            static_cast<VertexId>(i);
      }
      covered += static_cast<std::int64_t>(comp.vertices.size());
      edge_total += comp.edges;
      GIO_EXPECTS_MSG(comp.external_ids.empty() ||
                          comp.external_ids.size() == comp.vertices.size(),
                      "component seed external ids must align with vertices");
      d.wc.vertices.push_back(std::move(comp.vertices));
      d.edges.push_back(comp.edges);
      d.fingerprints.push_back(comp.fingerprint);
      d.known.push_back(true);
      d.source_index.push_back(src);
      d.external_ids.push_back(std::move(comp.external_ids));
      d.predecessors.push_back(comp.predecessor);
      d.has_predecessor.push_back(comp.has_predecessor);
    }
    GIO_EXPECTS_MSG(covered == n,
                    "component seed must cover every vertex of the graph");
    GIO_EXPECTS_MSG(edge_total == num_edges(),
                    "component seed edge counts must sum to the graph's");
    seed_.reset();
  } else {
    d.wc = weakly_connected_components(graph());
    d.edges.reserve(static_cast<std::size_t>(d.wc.count));
    for (int c = 0; c < d.wc.count; ++c)
      d.edges.push_back(d.wc.edges_in(graph_, c));
    d.fingerprints.assign(static_cast<std::size_t>(d.wc.count), 0);
    d.known.assign(static_cast<std::size_t>(d.wc.count), false);
    d.external_ids.resize(static_cast<std::size_t>(d.wc.count));
    d.predecessors.assign(static_cast<std::size_t>(d.wc.count), 0);
    d.has_predecessor.assign(static_cast<std::size_t>(d.wc.count), false);
  }
  decomp_ = std::move(d);
  return *decomp_;
}

std::uint64_t ArtifactCache::component_fingerprint(int c) {
  Decomposition& d = decomposition();
  const auto i = static_cast<std::size_t>(c);
  if (d.known[i]) return d.fingerprints[i];
  // In-place hash of the still-unextracted component; memoized so every
  // later artifact kind (and the spectral plan) pays zero.
  d.fingerprints[i] = subgraph_fingerprint(graph(), d.wc, c);
  d.known[i] = true;
  bump<&Stats::fingerprint_computes>();
  return d.fingerprints[i];
}

Digraph ArtifactCache::component_subgraph(int c) {
  Decomposition& d = decomposition();
  bump<&Stats::subgraph_extractions>();
  if (lazy_.has_value())
    return lazy_->component(d.source_index[static_cast<std::size_t>(c)]);
  return d.wc.subgraph(graph_, c);
}

ComponentPlan ArtifactCache::build_plan(const SpectralOptions& options) {
  ComponentPlan plan;
  if (!options.decompose) {
    // Monolithic: one in-place entry covering the whole graph, content-
    // addressed by the whole-graph fingerprint (its cache entries stay
    // distinct from decomposed ones — solver_options_equal keys the
    // decompose switch).
    PlannedComponent whole;
    whole.vertices = num_vertices();
    whole.edges = num_edges();
    whole.in_place = &graph();
    if (fingerprint_.has_value()) {
      whole.fingerprint = *fingerprint_;
      whole.fingerprinted = true;
    } else {
      whole.fingerprint_fn = [this] {
        fingerprint_ = graph_fingerprint(graph_);
        return *fingerprint_;
      };
    }
    plan.components.push_back(std::move(whole));
    return plan;
  }
  Decomposition& d = decomposition();
  plan.components.reserve(static_cast<std::size_t>(d.wc.count));
  for (int c = 0; c < d.wc.count; ++c) {
    PlannedComponent entry;
    entry.vertices = static_cast<std::int64_t>(
        d.wc.vertices[static_cast<std::size_t>(c)].size());
    entry.edges = d.edges[static_cast<std::size_t>(c)];
    entry.predecessor = d.predecessors[static_cast<std::size_t>(c)];
    entry.has_predecessor = d.has_predecessor[static_cast<std::size_t>(c)];
    entry.external_ids = d.external_ids[static_cast<std::size_t>(c)];
    if (d.known[static_cast<std::size_t>(c)]) {
      entry.fingerprint = d.fingerprints[static_cast<std::size_t>(c)];
      entry.fingerprinted = true;
    } else {
      // In-place hash of the still-unextracted component; memoized so a
      // later kind (or a re-request with new options) pays zero.
      entry.fingerprint_fn = [this, c] {
        Decomposition& dd = *decomp_;
        const auto i = static_cast<std::size_t>(c);
        dd.fingerprints[i] = subgraph_fingerprint(graph(), dd.wc, c);
        dd.known[i] = true;
        return dd.fingerprints[i];
      };
    }
    if (d.wc.count == 1 && materialized_) {
      // A connected graph's single component reproduces the graph
      // verbatim — solve in place, never copy.
      entry.in_place = &graph_;
    } else if (lazy_.has_value()) {
      entry.materialize = [this, c] {
        return lazy_->component(
            decomp_->source_index[static_cast<std::size_t>(c)]);
      };
    } else {
      entry.materialize = [this, c] {
        return decomp_->wc.subgraph(graph_, c);
      };
    }
    plan.components.push_back(std::move(entry));
  }
  return plan;
}

template <class Map>
typename Map::mapped_type* ArtifactCache::memoized(
    Map& map, const typename Map::key_type& key) {
  const auto it = map.find(key);
  if (it == map.end()) {
    bump<&Stats::misses>();
    return nullptr;
  }
  bump<&Stats::hits>();
  return &it->second;
}

template <auto Counter, class Lookup, class Compute, class Save>
auto ArtifactCache::resolve_component(int c, Lookup lookup, Compute compute,
                                      Save save, const Digraph* sub) {
  const std::uint64_t fp = component_fingerprint(c);
  if (auto cached = lookup(fp)) return *std::move(cached);
  Digraph extracted;
  if (sub == nullptr) {
    if (decomposition().wc.count == 1 && materialized_) {
      sub = &graph_;  // the only component reproduces the graph verbatim
    } else {
      extracted = component_subgraph(c);
      sub = &extracted;
    }
  }
  bump<Counter>();
  auto value = compute(*sub);
  save(fp, value);
  return value;
}

std::vector<VertexId> ArtifactCache::component_topo(int c,
                                                    const Digraph* sub) {
  const Decomposition& d = decomposition();
  const auto i = static_cast<std::size_t>(c);
  const auto n = static_cast<std::int64_t>(d.wc.vertices[i].size());
  return resolve_component<&Stats::topo_computes>(
      c,
      [&](std::uint64_t fp) -> std::optional<std::vector<VertexId>> {
        auto cached = store_->lookup_topo(fp);
        if (!cached.has_value() ||
            static_cast<std::int64_t>(cached->order.size()) != n)
          return std::nullopt;
        return std::move(cached->order);
      },
      [&](const Digraph& g) {
        telemetry::Span span("topo");
        span.attr("vertices", n).attr("edges", d.edges[i]);
        auto order = topological_order(g);
        span.end();
        GIO_EXPECTS_MSG(order.has_value(), "graph is cyclic");
        return *std::move(order);
      },
      [&](std::uint64_t fp, const std::vector<VertexId>& order) {
        store_->store_topo(fp, {order});
      },
      sub);
}

std::uint64_t ArtifactCache::fingerprint() {
  if (fingerprint_.has_value()) {
    bump<&Stats::hits>();
    return *fingerprint_;
  }
  bump<&Stats::misses>();
  fingerprint_ = graph_fingerprint(graph());
  return *fingerprint_;
}

const std::vector<VertexId>& ArtifactCache::topo_order() {
  if (topo_.has_value()) {
    bump<&Stats::hits>();
    return *topo_;
  }
  bump<&Stats::misses>();
  Decomposition& d = decomposition();
  const int count = d.wc.count;
  // Per-component orders in local ids: store hit, trivial, or Kahn run.
  std::vector<std::vector<VertexId>> orders(
      static_cast<std::size_t>(count));
  for (int c = 0; c < count; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (d.edges[i] == 0) {
      // Edgeless: min-first Kahn is the ascending local numbering —
      // cheaper to regenerate than to fingerprint and store.
      orders[i].resize(d.wc.vertices[i].size());
      std::iota(orders[i].begin(), orders[i].end(), VertexId{0});
      continue;
    }
    orders[i] = component_topo(c);
  }
  // Merge by smallest next global id. Each component's min-first Kahn
  // order is the restriction of the whole-graph order (readiness never
  // crosses components), and ascending-extraction numbering makes
  // local→global monotone within a component, so the globally smallest
  // ready vertex is always some component's next element — the merge
  // replays whole-graph Kahn exactly.
  std::vector<std::size_t> pos(static_cast<std::size_t>(count), 0);
  std::vector<VertexId> merged;
  merged.reserve(static_cast<std::size_t>(num_vertices()));
  using Item = std::pair<VertexId, int>;  // (global id, component)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (int c = 0; c < count; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (!orders[i].empty())
      heap.push({d.wc.vertices[i][static_cast<std::size_t>(orders[i][0])],
                 c});
  }
  while (!heap.empty()) {
    const auto [global, c] = heap.top();
    heap.pop();
    merged.push_back(global);
    const auto i = static_cast<std::size_t>(c);
    if (++pos[i] < orders[i].size())
      heap.push(
          {d.wc.vertices[i][static_cast<std::size_t>(orders[i][pos[i]])],
           c});
  }
  topo_ = std::move(merged);
  return *topo_;
}

const la::CsrMatrix& ArtifactCache::laplacian(LaplacianKind kind) {
  if (const auto* hit = memoized(laplacians_, kind)) return *hit;
  return laplacians_.emplace(kind, graphio::laplacian(graph(), kind))
      .first->second;
}

const ArtifactCache::SpectrumArtifact& ArtifactCache::spectrum(
    LaplacianKind kind, int count, const SpectralOptions& options) {
  GIO_EXPECTS(count >= 0);
  count = static_cast<int>(std::min<std::int64_t>(count, num_vertices()));
  const auto it = spectra_.find(kind);
  // Hit on `requested`, not values.size(): a non-converged solve returns
  // a shorter prefix, and re-running the identical failing solve would
  // only repeat the most expensive case for the same partial answer.
  if (it != spectra_.end() && it->second.requested >= count &&
      solver_options_equal(spectra_options_.at(kind), options)) {
    bump<&Stats::hits>();
    it->second.touched_serial = ++spectrum_touches_;
    return it->second;
  }
  bump<&Stats::misses>();
  WallTimer timer;

  // Lookup-then-extract: the plan describes every component without its
  // vertex data, the resolver answers clean components straight from the
  // fingerprint-keyed store (zero allocations), and only misses
  // materialize their subgraph and eigensolve. Equal components (within
  // this graph or, via an Engine-shared store, across specs and — with a
  // disk tier — across restarts) eigensolve once; trivial (edgeless)
  // components never touch the store — recomputing zeros is cheaper than
  // fingerprinting them.
  SpectralPipeline pipeline(options);
  pipeline.set_component_resolver(
      [this](std::uint64_t fp, std::int64_t, std::int64_t, LaplacianKind k,
             int h, const SpectralOptions& opts) {
        return store_->lookup_spectrum(fp, k, h, opts);
      },
      [this](std::uint64_t fp, LaplacianKind k, int requested,
             const SpectralOptions& opts, const ComponentSolve& solve) {
        store_->store_spectrum(fp, k, requested, opts, solve);
      });
  if (options.retain_basis) {
    // The warm-start layer: converged component bases are retained in the
    // store's memory-only eigenbasis tier, and solves of patched
    // successors seed from them (store/artifact_store.hpp).
    pipeline.set_basis_hooks(
        [this](std::uint64_t fp, LaplacianKind k) {
          return store_->lookup_eigenbasis(fp, k);
        },
        [this](std::uint64_t fp, LaplacianKind k, Eigenbasis basis) {
          store_->store_eigenbasis(fp, k, std::move(basis));
        });
  }
  PipelineResult result = pipeline.run_plan(build_plan(options), kind,
                                            count);

  SpectrumArtifact artifact;
  artifact.requested = count;
  artifact.values = result.values;
  artifact.converged = result.converged;
  artifact.degraded = result.degraded;
  artifact.components = result.components;
  artifact.eigensolves = result.eigensolves;
  artifact.component_hits = result.component_cache_hits;
  artifact.subgraph_extractions = result.subgraph_extractions;
  artifact.fingerprint_computes = result.fingerprint_computes;
  artifact.warm_hits = result.warm_hits;
  artifact.warm_iterations_saved = result.warm_iterations_saved;
  SpectrumRun run;
  run.kind = kind;
  run.requested = count;
  run.merged_values = static_cast<std::int64_t>(result.values.size());
  run.per_component = result.per_component;
  spectrum_runs_.push_back(std::move(run));
  artifact.per_component = std::move(result.per_component);
  if (options.decompose && decomp_.has_value())
    artifact.component_fingerprints = decomp_->fingerprints;
  artifact.seconds = timer.seconds();
  artifact.computed_serial = artifact.touched_serial = ++spectrum_touches_;
  bump<&Stats::eigensolves>(result.eigensolves);
  bump<&Stats::component_hits>(result.component_cache_hits);
  bump<&Stats::subgraph_extractions>(result.subgraph_extractions);
  bump<&Stats::fingerprint_computes>(result.fingerprint_computes);
  bump<&Stats::warm_hits>(result.warm_hits);
  bump<&Stats::warm_iterations_saved>(result.warm_iterations_saved);
  bump<&Stats::fingerprint_seconds>(result.phases.fingerprint_seconds);
  bump<&Stats::extract_seconds>(result.phases.extract_seconds);
  bump<&Stats::solve_seconds>(result.phases.solve_seconds);
  bump<&Stats::merge_seconds>(result.phases.merge_seconds);
  eigensolves_by_kind_[kind] += result.eigensolves;
  spectra_options_.insert_or_assign(kind, options);
  return spectra_.insert_or_assign(kind, std::move(artifact)).first->second;
}

std::int64_t ArtifactCache::cached_spectrum_values(
    LaplacianKind kind) const noexcept {
  const auto it = spectra_.find(kind);
  return it == spectra_.end()
             ? 0
             : static_cast<std::int64_t>(it->second.values.size());
}

const ArtifactCache::WavefrontArtifact& ArtifactCache::max_wavefront_cut(
    const flow::ConvexMinCutOptions& options) {
  if (const auto* hit = memoized(max_cuts_, options.engine)) return *hit;
  Decomposition& d = decomposition();
  const int count = d.wc.count;
  WavefrontArtifact artifact;
  artifact.components = count;
  artifact.cuts.resize(static_cast<std::size_t>(count), 0);
  for (int c = 0; c < count; ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (d.edges[i] == 0) continue;  // no descendants anywhere: C(v) = 0
    const store::MincutSweepArtifact sweep =
        resolve_component<&Stats::mincut_sweeps>(
            c,
            [&](std::uint64_t fp) {
              return store_->lookup_mincut(fp, options.engine);
            },
            [&](const Digraph& g) {
              // Memory 0 keeps every cut relevant; per-M bounds derive
              // from the per-component best cuts.
              telemetry::Span span("mincut");
              span.attr("vertices", g.num_vertices())
                  .attr("edges", g.num_edges());
              const flow::ConvexMinCutResult r =
                  flow::convex_mincut_bound(g, 0.0, options);
              return store::MincutSweepArtifact{r.best_cut, r.best_vertex,
                                                r.vertices_processed,
                                                r.completed};
            },
            [&](std::uint64_t fp, const store::MincutSweepArtifact& r) {
              if (r.completed) store_->store_mincut(fp, options.engine, r);
            });
    artifact.cuts[i] = sweep.best_cut;
    artifact.completed = artifact.completed && sweep.completed;
    if (sweep.best_cut > artifact.best_cut) {
      artifact.best_cut = sweep.best_cut;
      artifact.best_vertex =
          sweep.best_vertex >= 0
              ? d.wc.vertices[i][static_cast<std::size_t>(sweep.best_vertex)]
              : VertexId{-1};
    }
  }
  return max_cuts_.emplace(options.engine, std::move(artifact))
      .first->second;
}

const ArtifactCache::MemsimArtifact& ArtifactCache::memsim_row(
    std::int64_t memory, int random_orders) {
  const auto key = std::make_pair(memory, random_orders);
  if (const auto* hit = memoized(memsims_, key)) return *hit;
  Decomposition& d = decomposition();
  const int count = d.wc.count;
  MemsimArtifact artifact;
  artifact.components = count;
  for (int c = 0; c < count; ++c) {
    const auto i = static_cast<std::size_t>(c);
    // Isolated vertices are sources and sinks at once: all their I/O is
    // trivial and excluded from reads/writes by the simulator.
    if (d.edges[i] == 0) continue;
    const store::MemsimRowArtifact row = resolve_component<&Stats::memsim_runs>(
        c,
        [&](std::uint64_t fp) {
          return store_->lookup_memsim(fp, memory, random_orders);
        },
        [&](const Digraph& g) {
          telemetry::Span span("memsim");
          span.attr("vertices", g.num_vertices())
              .attr("memory", memory)
              .attr("random_orders", random_orders);
          const sim::SimResult r =
              sim::best_schedule_io(g, memory, random_orders);
          return store::MemsimRowArtifact{r.reads, r.writes};
        },
        [&](std::uint64_t fp, const store::MemsimRowArtifact& r) {
          store_->store_memsim(fp, memory, random_orders, r);
        });
    artifact.reads += row.reads;
    artifact.writes += row.writes;
  }
  return memsims_.emplace(key, std::move(artifact)).first->second;
}

const ArtifactCache::PartitionArtifact& ArtifactCache::partition_row(
    double memory) {
  if (const auto* hit = memoized(partitions_, memory)) return *hit;
  Decomposition& d = decomposition();
  const int count = d.wc.count;
  PartitionArtifact artifact;
  artifact.components = count;
  double total = 0.0;
  std::int64_t segments = 0;
  int nontrivial = 0;
  for (int c = 0; c < count; ++c) {
    const auto i = static_cast<std::size_t>(c);
    // Edgeless: the component's own optimum is one empty segment (−2M),
    // exactly cancelled by the seam refund of counting it — skip both.
    if (d.edges[i] == 0) continue;
    ++nontrivial;
    const store::PartitionRowArtifact row =
        resolve_component<&Stats::partition_runs>(
            c,
            [&](std::uint64_t fp) {
              return store_->lookup_partition(fp, memory);
            },
            [&](const Digraph& g) {
              // The DP walks the component's own natural order — the
              // restriction of the merged whole-graph Kahn order, already
              // store-cached by the topo artifact.
              const std::vector<VertexId> order = component_topo(c, &g);
              telemetry::Span span("partition_dp");
              span.attr("vertices", g.num_vertices())
                  .attr("edges", d.edges[i]);
              const OptimalPartitionResult r =
                  optimal_lemma1_bound(g, order, memory);
              return store::PartitionRowArtifact{r.objective,
                                                 r.objective_segments};
            },
            [&](std::uint64_t fp, const store::PartitionRowArtifact& r) {
              store_->store_partition(fp, memory, r);
            });
    total += row.objective;
    segments += row.segments;
  }
  if (nontrivial > 0) {
    const double objective =
        total + 2.0 * memory * static_cast<double>(nontrivial - 1);
    if (objective > 0.0) {
      artifact.bound = objective;
      artifact.segments = segments - (nontrivial - 1);
    }
  }
  return partitions_.emplace(memory, std::move(artifact)).first->second;
}

std::int64_t ArtifactCache::eigensolves(LaplacianKind kind) const noexcept {
  const auto it = eigensolves_by_kind_.find(kind);
  return it == eigensolves_by_kind_.end() ? 0 : it->second;
}

}  // namespace graphio::engine
