#include "graphio/engine/engine.hpp"

#include <utility>

#include "graphio/engine/graph_spec.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/support/parallel.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::engine {

namespace {

/// Fills report.provenance from the evaluation's bracketed state: the
/// pipeline runs performed (computed spectra, reconciled against the
/// registry deltas), the artifacts served without re-running, and the
/// final rows. Deterministic: run order, then kind order, no wall-clock.
void assemble_provenance(BoundReport& report, ArtifactCache& cache,
                         std::size_t runs_before,
                         std::uint64_t serial_before,
                         std::int64_t warm_delta, std::int64_t iter_delta) {
  audit::ProvenanceRecord& prov = report.provenance;
  prov.kind = "bound";
  prov.graph = report.graph;
  prov.registry.warm_hits = warm_delta;
  prov.registry.iterations = iter_delta;
  const std::vector<ArtifactCache::SpectrumRun>& runs = cache.spectrum_runs();
  for (std::size_t i = runs_before; i < runs.size(); ++i) {
    const ArtifactCache::SpectrumRun& run = runs[i];
    audit::SpectrumProvenance sp;
    sp.laplacian = std::string(to_string(run.kind));
    sp.requested = run.requested;
    sp.computed = true;
    sp.merged_values = run.merged_values;
    sp.components.reserve(run.per_component.size());
    for (const ComponentSolve& solve : run.per_component)
      sp.components.push_back(audit::component_provenance(solve));
    prov.spectra.push_back(std::move(sp));
  }
  for (const auto& [kind, artifact] : cache.cached_spectra()) {
    if (artifact.touched_serial <= serial_before) continue;  // unused here
    if (artifact.computed_serial > serial_before) continue;  // in runs above
    audit::SpectrumProvenance sp;
    sp.laplacian = std::string(to_string(kind));
    sp.requested = artifact.requested;
    sp.computed = false;
    sp.merged_values = static_cast<std::int64_t>(artifact.values.size());
    sp.components.reserve(artifact.per_component.size());
    for (const ComponentSolve& solve : artifact.per_component)
      sp.components.push_back(audit::component_provenance(solve));
    prov.spectra.push_back(std::move(sp));
  }
  prov.rows.reserve(report.rows.size());
  for (const MethodRow& row : report.rows) {
    audit::RowLineage lineage;
    lineage.method = row.method;
    lineage.memory = row.memory;
    lineage.processors = row.processors;
    lineage.applicable = row.applicable;
    lineage.bound = row.value;
    lineage.best_k = row.best_k;
    lineage.converged = row.converged;
    lineage.degraded = row.degraded;
    prov.rows.push_back(std::move(lineage));
  }
}

}  // namespace

BoundReport Engine::evaluate_with_cache(const BoundRequest& request,
                                        ArtifactCache& cache) {
  GIO_EXPECTS_MSG(!request.memories.empty(),
                  "request needs at least one memory size");
  for (double m : request.memories)
    GIO_EXPECTS_MSG(m >= 0.0, "memory size must be non-negative");
  GIO_EXPECTS(request.processors >= 1);
  const std::vector<const BoundMethod*> selected = select_methods(request);

  WallTimer timer;
  const ArtifactCache::Stats before = cache.stats();
  // Provenance bracket: registry counters (process-wide — the record's
  // `exclusive` flag says whether the deltas are attributable solely to
  // this evaluation) and the cache's spectrum run/touch serials.
  struct SolverCounters {
    telemetry::Counter& warm_hits;
    telemetry::Counter& iterations;
  };
  static SolverCounters solver_counters{
      telemetry::MetricsRegistry::global().counter("solver.warm_hits"),
      telemetry::MetricsRegistry::global().counter("solver.iterations")};
  const std::int64_t warm_before = solver_counters.warm_hits.value();
  const std::int64_t iter_before = solver_counters.iterations.value();
  const std::size_t runs_before = cache.spectrum_runs().size();
  const std::uint64_t serial_before = cache.spectrum_touch_serial();

  BoundReport report;
  report.graph = request.display_name();
  report.vertices = cache.num_vertices();
  report.edges = cache.num_edges();
  report.processors = request.processors;
  report.memories = request.memories;

  // Family metadata for the closed-form method: the spec, or a spec-shaped
  // display name attached to an explicit graph.
  std::optional<GraphSpec> spec;
  if (!request.spec.empty()) spec = GraphSpec::try_parse(request.spec);
  else if (!request.name.empty()) spec = GraphSpec::try_parse(request.name);

  MethodContext ctx{cache, request, spec.has_value() ? &*spec : nullptr};
  for (const BoundMethod* method : selected) {
    telemetry::Span method_span("engine.method");
    method_span.attr("method", method->id())
        .attr("graph", report.graph)
        .attr("memories", request.memories.size());
    std::vector<MethodRow> rows;
    try {
      rows = method->evaluate(ctx, request.memories);
    } catch (const std::exception& e) {
      // A method must never sink the whole report; surface the failure as
      // inapplicable rows instead. converged=false distinguishes "threw"
      // (possibly transient) from a method's own deterministic
      // inapplicability verdict — the serve ResultStore only persists
      // converged rows.
      rows.clear();
      for (double m : request.memories) {
        MethodRow row;
        row.method = std::string(method->id());
        row.memory = m;
        row.kind = method->kind();
        row.applicable = false;
        row.converged = false;
        row.note = e.what();
        rows.push_back(std::move(row));
      }
    }
    report.rows.insert(report.rows.end(),
                       std::make_move_iterator(rows.begin()),
                       std::make_move_iterator(rows.end()));
  }

  report.cache = cache.stats() - before;
  assemble_provenance(report, cache, runs_before, serial_before,
                      solver_counters.warm_hits.value() - warm_before,
                      solver_counters.iterations.value() - iter_before);
  report.seconds = timer.seconds();
  return report;
}

ArtifactCache& Engine::ensure_cache(const std::string& spec) {
  GIO_EXPECTS_MSG(!spec.empty(),
                  "request needs a graph spec or an explicit graph");
  auto it = caches_.find(spec);
  if (it == caches_.end()) {
    it = caches_
             .emplace(spec, std::make_unique<ArtifactCache>(
                                GraphSpec::parse(spec).build(), store_))
             .first;
  }
  return *it->second;
}

BoundReport Engine::evaluate(const BoundRequest& request) {
  if (request.graph.has_value()) {
    // Explicit graphs get a private artifact cache (the Engine cannot
    // tell whether two Digraph values are the same computation), but
    // share the artifact store — content addressing makes that safe and
    // lets explicit graphs reuse spec-built component artifacts.
    ArtifactCache cache(*request.graph, store_);
    return evaluate_with_cache(request, cache);
  }
  return evaluate_with_cache(request, ensure_cache(request.spec));
}

const Digraph& Engine::graph(const std::string& spec) {
  return ensure_cache(spec).graph();
}

void Engine::install_graph(const std::string& name, Digraph graph,
                           std::optional<ComponentSeed> seed) {
  GIO_EXPECTS_MSG(!name.empty(), "installed graph needs a name");
  GIO_EXPECTS_MSG(!GraphSpec::try_parse(name).has_value(),
                  "installed graph name '" + name +
                      "' collides with a family spec or graph file");
  retire_cache_stats(name);
  caches_.insert_or_assign(
      name, std::make_unique<ArtifactCache>(std::move(graph), store_,
                                            std::move(seed)));
}

void Engine::install_graph(const std::string& name, LazyGraph graph,
                           ComponentSeed seed) {
  GIO_EXPECTS_MSG(!name.empty(), "installed graph needs a name");
  GIO_EXPECTS_MSG(!GraphSpec::try_parse(name).has_value(),
                  "installed graph name '" + name +
                      "' collides with a family spec or graph file");
  retire_cache_stats(name);
  caches_.insert_or_assign(
      name, std::make_unique<ArtifactCache>(std::move(graph), store_,
                                            std::move(seed)));
}

void Engine::retire_cache_stats(const std::string& name) {
  const auto it = caches_.find(name);
  if (it != caches_.end()) retired_ += it->second->stats();
}

std::uint64_t Engine::fingerprint(const std::string& spec) {
  return ensure_cache(spec).fingerprint();
}

ArtifactCache::Stats Engine::stats() const {
  ArtifactCache::Stats total = retired_;
  for (const auto& [spec, cache] : caches_) total += cache->stats();
  return total;
}

std::vector<BoundReport> Engine::evaluate_batch(
    std::span<const BoundRequest> requests, bool parallel) {
  std::vector<BoundReport> reports(requests.size());
  if (!parallel) {
    for (std::size_t i = 0; i < requests.size(); ++i)
      reports[i] = evaluate(requests[i]);
    return reports;
  }
  // Parallel path: private caches per request keep the fan-out race-free
  // without locking the persistent cache map.
  std::vector<std::string> errors(requests.size());
  parallel_for_dynamic(static_cast<std::int64_t>(requests.size()),
                       [&](std::int64_t i) {
                         const BoundRequest& request =
                             requests[static_cast<std::size_t>(i)];
                         try {
                           Digraph g = request.graph.has_value()
                                           ? *request.graph
                                           : GraphSpec::parse(request.spec)
                                                 .build();
                           ArtifactCache cache(std::move(g), store_);
                           reports[static_cast<std::size_t>(i)] =
                               evaluate_with_cache(request, cache);
                         } catch (const std::exception& e) {
                           errors[static_cast<std::size_t>(i)] = e.what();
                         }
                       });
  for (std::size_t i = 0; i < requests.size(); ++i)
    GIO_EXPECTS_MSG(errors[i].empty(), "request '" +
                                           requests[i].display_name() +
                                           "' failed: " + errors[i]);
  // Concurrent evaluations interleave their updates to the process-wide
  // solver counters, so no parallel report's registry delta is
  // attributable to it alone.
  for (BoundReport& report : reports)
    report.provenance.registry.exclusive = false;
  return reports;
}

const ArtifactCache* Engine::cache(const std::string& spec) const {
  const auto it = caches_.find(spec);
  return it == caches_.end() ? nullptr : it->second.get();
}

void Engine::clear() {
  for (const auto& [spec, cache] : caches_) retired_ += cache->stats();
  caches_.clear();
  store_->clear();
}

}  // namespace graphio::engine
