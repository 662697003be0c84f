#include "graphio/stream/session.hpp"

#include <algorithm>
#include <utility>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/faults/fault_injection.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::stream {

namespace {

// Registry totals of every StreamSession's Stats.
const telemetry::StatCounters<StreamSession::Stats>& stream_counters() {
  static const telemetry::StatCounters<StreamSession::Stats> counters(
      "stream");
  return counters;
}

}  // namespace

template <auto Member>
void StreamSession::bump(std::int64_t n) {
  stream_counters().bump<Member>(stats_, n);
}

StreamSession::StreamSession(std::string name,
                             std::shared_ptr<store::ArtifactStore> store)
    : name_(std::move(name)),
      engine_(store == nullptr
                  ? std::make_unique<engine::Engine>()
                  : std::make_unique<engine::Engine>(std::move(store))) {
  GIO_EXPECTS_MSG(!name_.empty(), "stream session needs a name");
  GIO_EXPECTS_MSG(
      !engine::GraphSpec::try_parse(name_).has_value(),
      "stream graph name '" + name_ +
          "' collides with a family spec or graph file — pick a plain name");
}

PatchReport StreamSession::load(const std::string& spec) {
  const Digraph g = engine::GraphSpec::parse(spec).build();
  const std::lock_guard<std::mutex> lock(mutex_);
  return load_locked(g);
}

PatchReport StreamSession::load(const Digraph& graph) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return load_locked(graph);
}

PatchReport StreamSession::load_locked(const Digraph& graph) {
  telemetry::Span span("stream.load");
  WallTimer timer;
  const std::int64_t evicted_before = stats_.evicted;
  graph_ = DynamicGraph(graph);
  components_.reset(graph_);
  // Loading replaces everything: evict the previous graph's memory-tier
  // entries this session refcounts (a shared store's disk tier, being
  // append-only, is untouched) and re-fingerprint from scratch.
  for (const auto& [fp, count] : fingerprint_refcount_) {
    bump<&Stats::evicted>(engine_->artifact_store()->erase(fp));
    (void)count;
  }
  component_fingerprint_.clear();
  fingerprint_refcount_.clear();
  loaded_ = true;
  PatchReport report = finish_patch_locked(
      Patch{}, components_.component_ids(), evicted_before, timer.seconds());
  span.attr("graph", name_)
      .attr("vertices", report.vertices)
      .attr("edges", report.edges)
      .attr("components", report.components);
  return report;
}

PatchReport StreamSession::apply(const Patch& patch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GIO_EXPECTS_MSG(loaded_, "stream session '" + name_ +
                               "' has no graph loaded yet");
  telemetry::Span span("stream.patch");
  WallTimer timer;
  const std::int64_t evicted_before = stats_.evicted;
  // Atomicity by inverse-mutation journal: every mutation records its
  // exact inverse as it applies, so a failing mutation unwinds in
  // O(state the patch touched) — successful patches (the common case) no
  // longer pay the O(n + m) snapshot copy the rollback path used to
  // demand up front.
  graph_.begin_journal();
  components_.begin_patch();
  for (std::size_t i = 0; i < patch.mutations.size(); ++i) {
    const Mutation& m = patch.mutations[i];
    try {
      // Mid-patch fault seam: fires between mutations, after some have
      // already applied — exactly the state the rollback journal exists
      // to unwind.
      faults::inject("stream.apply");
      switch (m.op) {
        case MutationOp::kAddVertex:
          for (std::int64_t k = 0; k < m.count; ++k)
            components_.on_add_vertex(graph_.add_vertex());
          break;
        case MutationOp::kRemoveVertex:
          // Notify first: the labels must still cover v.
          components_.on_remove_vertex(m.v);
          graph_.remove_vertex(m.v);
          break;
        case MutationOp::kAddEdge:
          graph_.add_edge(m.u, m.v);
          components_.on_add_edge(m.u, m.v);
          break;
        case MutationOp::kRemoveEdge:
          graph_.remove_edge(m.u, m.v);
          components_.on_remove_edge(m.u, m.v);
          break;
      }
    } catch (const faults::FaultInjected&) {
      // Same unwind as a real failure, but rethrown intact so the serve
      // layer can report the fault's kind/site in its structured error.
      graph_.rollback_journal();
      components_.rollback_patch();
      throw;
    } catch (const std::exception& e) {
      graph_.rollback_journal();
      components_.rollback_patch();
      GIO_EXPECTS_MSG(false, "mutation " + std::to_string(i + 1) + "/" +
                                 std::to_string(patch.mutations.size()) +
                                 " (" + std::string(to_string(m.op)) +
                                 ") failed: " + e.what());
    }
  }
  components_.flush(graph_);
  graph_.commit_journal();
  PatchReport report = finish_patch_locked(patch, components_.dirty(),
                                           evicted_before, timer.seconds());
  span.attr("graph", name_)
      .attr("label", patch.label)
      .attr("mutations", report.mutations)
      .attr("dirty", report.dirty_components)
      .attr("clean", report.clean_components);
  return report;
}

void StreamSession::refingerprint_locked(const std::vector<int>& dirty) {
  auto release = [this](std::uint64_t fp) {
    if (--fingerprint_refcount_.at(fp) == 0) {
      fingerprint_refcount_.erase(fp);
      bump<&Stats::evicted>(engine_->artifact_store()->erase(fp));
    }
  };
  // Dirty components: compute the successor fingerprint FIRST, adopt any
  // retained eigenbasis old→new, and only then release the old content —
  // refcount eviction at zero also drops the content's bases, so the
  // adopt-before-release order is what keeps a predecessor basis alive
  // for the warm solve of the very component whose patch retired it.
  // Incrementing the new fingerprint before releasing the old also keeps
  // store entries alive when a patch leaves a component's content equal.
  predecessor_fingerprint_.clear();
  const bool warm = engine_->artifact_store()->eigenbasis_budget() > 0;
  for (int c : dirty) {
    const std::uint64_t fp =
        engine::graph_fingerprint(components_.subgraph(graph_, c));
    const auto it = component_fingerprint_.find(c);
    if (it == component_fingerprint_.end()) {
      component_fingerprint_.emplace(c, fp);
      ++fingerprint_refcount_[fp];
      continue;
    }
    const std::uint64_t old_fp = it->second;
    if (old_fp == fp) continue;  // content returned unchanged
    ++fingerprint_refcount_[fp];
    predecessor_fingerprint_.emplace(c, old_fp);
    if (warm) engine_->artifact_store()->adopt_eigenbasis(old_fp, fp);
    it->second = fp;
    release(old_fp);
  }
  // Components that died this patch (merged away, fully removed): equal
  // content surviving elsewhere keeps its refcount and cache entries;
  // eviction fires only when a content's last instance goes.
  for (auto it = component_fingerprint_.begin();
       it != component_fingerprint_.end();) {
    if (components_.alive(it->first)) {
      ++it;
      continue;
    }
    release(it->second);
    it = component_fingerprint_.erase(it);
  }
}

std::uint64_t StreamSession::combined_fingerprint_locked() const {
  // Order-independent combination: FNV over the sorted multiset of
  // per-component fingerprints. fingerprint_refcount_ IS that multiset,
  // already sorted by key.
  std::uint64_t h = engine::fnv64_begin();
  std::int64_t components = 0;
  for (const auto& [fp, count] : fingerprint_refcount_) {
    for (int i = 0; i < count; ++i) h = engine::fnv64_mix(h, fp);
    components += count;
  }
  h = engine::fnv64_mix(h, static_cast<std::uint64_t>(components));
  return h;
}

PatchReport StreamSession::finish_patch_locked(const Patch& patch,
                                               const std::vector<int>& dirty,
                                               std::int64_t evicted_before,
                                               double seconds) {
  refingerprint_locked(dirty);
  // Hand the engine the decomposition this session already maintains —
  // membership straight from DynamicComponents, fingerprints from the
  // incremental re-hash above — so the query path never decomposes or
  // re-fingerprints: clean components resolve from the artifact store
  // by fingerprint alone, and only dirty ones materialize. The graph
  // itself goes over lazily: compaction ascends, so external ids map to
  // would-be-materialized local ids by an alive-prefix count, and a
  // query that only needs per-component artifacts (every method except
  // pebble-exact and monolithic spectra) never pays the O(n + m)
  // whole-graph materialization at all.
  std::vector<VertexId> local_of(static_cast<std::size_t>(graph_.id_limit()),
                                 -1);
  VertexId next_local = 0;
  for (VertexId v = 0; v < graph_.id_limit(); ++v)
    if (graph_.alive(v)) local_of[static_cast<std::size_t>(v)] = next_local++;
  const std::vector<int> ids = components_.component_ids();
  engine::ComponentSeed seed;
  for (int c : ids) {
    engine::ComponentSeed::Component comp;
    comp.fingerprint = component_fingerprint_.at(c);
    const std::vector<VertexId>& ext = components_.vertices_of(c);
    comp.vertices.reserve(ext.size());
    for (VertexId v : ext) {
      comp.vertices.push_back(local_of[static_cast<std::size_t>(v)]);
      comp.edges += static_cast<std::int64_t>(graph_.children(v).size());
    }
    // Session-stable external ids let a retained eigenbasis remap its
    // rows across vertex add/remove patches; the predecessor fingerprint
    // is the warm-start fallback key for this patch's dirty components.
    comp.external_ids = ext;
    const auto pred = predecessor_fingerprint_.find(c);
    if (pred != predecessor_fingerprint_.end()) {
      comp.predecessor = pred->second;
      comp.has_predecessor = true;
    }
    seed.components.push_back(std::move(comp));
  }
  // The callbacks capture `this` and read graph_/components_ without the
  // session mutex: safe, because every call into them happens inside
  // evaluate() (which holds the mutex) and the next patch replaces the
  // installed graph — and with it every outstanding callback — before it
  // mutates anything.
  engine::LazyGraph lazy;
  lazy.vertices = graph_.num_vertices();
  lazy.edges = graph_.num_edges();
  lazy.materialize = [this] { return graph_.materialize(); };
  lazy.component = [this, ids](int i) {
    return components_.subgraph(graph_, ids[static_cast<std::size_t>(i)]);
  };
  lazy.max_out_degree = [this] {
    std::int64_t best = 0;
    for (VertexId v = 0; v < graph_.id_limit(); ++v)
      if (graph_.alive(v))
        best = std::max(best,
                        static_cast<std::int64_t>(graph_.children(v).size()));
    return best;
  };
  lazy.max_in_degree = [this] {
    std::int64_t best = 0;
    for (VertexId v = 0; v < graph_.id_limit(); ++v)
      if (graph_.alive(v))
        best = std::max(best,
                        static_cast<std::int64_t>(graph_.parents(v).size()));
    return best;
  };
  engine_->install_graph(name_, std::move(lazy), std::move(seed));

  PatchReport report;
  report.graph = name_;
  report.label = patch.label;
  report.mutations = patch.size();
  report.vertices = graph_.num_vertices();
  report.edges = graph_.num_edges();
  report.components = components_.count();
  report.dirty_components = static_cast<int>(dirty.size());
  report.clean_components = components_.count() - report.dirty_components;
  report.fingerprint = engine::fingerprint_hex(combined_fingerprint_locked());
  report.seconds = seconds;

  bump<&Stats::patches>();
  bump<&Stats::mutations>(report.mutations);
  bump<&Stats::dirty_components>(report.dirty_components);
  bump<&Stats::clean_components>(report.clean_components);
  // refingerprint_locked (and, for loads, the pre-reset sweep) advanced
  // stats_.evicted; the report carries this patch's share.
  report.evicted = stats_.evicted - evicted_before;
  last_dirty_ = report.dirty_components;
  last_clean_ = report.clean_components;
  return report;
}

engine::BoundReport StreamSession::evaluate(engine::BoundRequest request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GIO_EXPECTS_MSG(loaded_, "stream session '" + name_ +
                               "' has no graph loaded yet");
  request.spec = name_;
  request.graph.reset();
  if (request.name.empty()) request.name = name_;
  // The warm-start layer follows the store's eigenbasis budget: with a
  // budget set, converged component bases are retained and patched
  // successors warm-start from them; at 0 the query path is bit-identical
  // to the cold one (retention is excluded from the options key).
  request.spectral.retain_basis =
      engine_->artifact_store()->eigenbasis_budget() > 0;
  bump<&Stats::queries>();
  telemetry::Span span("stream.query");
  span.attr("graph", name_)
      .attr("dirty", last_dirty_)
      .attr("clean", last_clean_);
  engine::BoundReport report = engine_->evaluate(request);
  // Stream lineage: the per-patch dirty/clean split this query paid for,
  // plus the durable session identity (component-multiset fingerprint —
  // the key serve's ResultStore uses for stream rows).
  report.provenance.kind = "stream";
  report.provenance.graph = name_;
  report.provenance.fingerprint = combined_fingerprint_locked();
  report.provenance.dirty = last_dirty_;
  report.provenance.clean = last_clean_;
  return report;
}

std::uint64_t StreamSession::fingerprint() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return combined_fingerprint_locked();
}

Digraph StreamSession::graph() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  GIO_EXPECTS_MSG(loaded_, "stream session '" + name_ +
                               "' has no graph loaded yet");
  return graph_.materialize();
}

std::int64_t StreamSession::num_vertices() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return graph_.num_vertices();
}

std::int64_t StreamSession::num_edges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return graph_.num_edges();
}

bool StreamSession::loaded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
}

StreamSession::Stats StreamSession::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace graphio::stream
