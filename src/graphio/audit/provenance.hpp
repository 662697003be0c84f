// Provenance — per-result lineage records and the replayable audit trail.
//
// The library's whole value is that its numbers are *certified lower
// bounds*, yet one bound can be assembled from a mix of Rayleigh–Ritz
// refreshes, warm-seeded or cold eigensolves, memory-tier hits, and
// disk-replay artifacts. A ProvenanceRecord makes that composition
// inspectable end to end: per component the solver tier actually taken
// (refresh / warm / cold / trivial), the iterations spent, the residual
// certifying the θ − ‖r‖ floor, the artifact source (computed this run,
// memory tier, disk replay), and the warm predecessor fingerprint — plus
// the merge lineage from per-kind spectra to the final per-(method, M)
// rows, and the MetricsRegistry counter deltas the claims must reconcile
// with.
//
// Serialization is *stable JSON*: no wall-clock field anywhere, doubles
// at 17 significant digits, deterministic key order — two runs that did
// the same work produce byte-identical records, which is what lets
// `graphio audit` re-run a recorded trail and diff the results exactly.
//
// This header depends only on core + io + support + the engine-free
// store::AppendLog (NOT on engine): the engine's BoundReport embeds a
// ProvenanceRecord, so the dependency must point this way.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/io/json.hpp"
#include "graphio/store/append_log.hpp"
#include "graphio/support/table.hpp"

namespace graphio::audit {

/// The solver tier one component solve actually took:
///   "refresh"  certified one-pass Rayleigh–Ritz over a retained basis
///   "warm"     iterative solve seeded from a retained basis
///   "cold"     unseeded solve (dense or iterative)
///   "trivial"  edgeless component — no solver, spectrum identically zero
/// Cache-served solves report the tier of the solve that *produced* the
/// values; the artifact source (below) says it was served, not re-run.
[[nodiscard]] std::string_view solve_tier(const ComponentSolve& solve);

/// Where the values came from for *this* evaluation: "computed" (an
/// eigensolver ran), "memory" (artifact-store memory tier), or "disk"
/// (replayed from the store's append-only JSONL across a restart).
[[nodiscard]] std::string_view solve_source(const ComponentSolve& solve);

/// Lineage of one component's contribution to a spectrum.
struct ComponentProvenance {
  std::uint64_t fingerprint = 0;
  bool fingerprinted = false;
  std::int64_t vertices = 0;
  std::int64_t edges = 0;
  std::string tier = "trivial";  ///< solve_tier of the producing solve
  std::string solver;            ///< dense|lanczos|lobpcg ("" for trivial)
  std::string source = "computed";  ///< solve_source for this evaluation
  int iterations = 0;
  /// Largest residual ‖Ax − θx‖ over the returned pairs — the
  /// certificate width behind the θ − ‖r‖ values.
  double residual = 0.0;
  /// Smallest certified value the component contributed (≥ 0).
  double certified_floor = 0.0;
  std::uint64_t warm_predecessor = 0;  ///< 0 when not warm-started
  bool converged = true;
};

/// Builds the lineage entry for one ComponentSolve.
[[nodiscard]] ComponentProvenance component_provenance(
    const ComponentSolve& solve);

/// One spectrum the evaluation consumed: either a pipeline run performed
/// within the evaluation (`computed` true — its components reconcile
/// against the registry deltas) or a cached artifact served without
/// re-running (`computed` false — components describe the producing run).
struct SpectrumProvenance {
  std::string laplacian;  ///< "norm" (L̃) or "plain" (L)
  int requested = 0;      ///< h the spectrum was computed for
  bool computed = false;
  std::int64_t merged_values = 0;  ///< values after the exact merge
  std::vector<ComponentProvenance> components;  ///< component order
};

/// One final row of the bound report, closing the lineage from spectra
/// (and the non-spectral substrates) to the numbers a user sees.
struct RowLineage {
  std::string method;
  double memory = 0.0;
  std::int64_t processors = 1;
  bool applicable = true;
  double bound = 0.0;
  int best_k = 0;
  bool converged = true;
  /// True when the bound was certified-truncated (deadline or injected
  /// fault): still a sound lower bound, but weaker than a full evaluation
  /// — `graphio audit` accepts it iff the recorded value does not exceed
  /// the fresh one.
  bool degraded = false;
  /// "computed" or "store" (served from the serve ResultStore).
  std::string source = "computed";
};

/// Process-wide MetricsRegistry counter deltas bracketed around the
/// evaluation. `exclusive` is true only when nothing else could have
/// moved the counters (single-lane execution); audits reconcile the
/// claimed tiers against these deltas exactly when it is set.
struct RegistryDelta {
  std::int64_t warm_hits = 0;   ///< solver.warm_hits delta
  std::int64_t iterations = 0;  ///< solver.iterations delta
  bool exclusive = true;
};

struct ProvenanceRecord {
  int schema = 1;
  std::string kind = "bound";  ///< "bound" or "stream"
  std::string graph;           ///< display name / stream session name
  /// Durable identity of the analyzed graph: the whole-graph content
  /// fingerprint, or the component-multiset session fingerprint for
  /// stream queries. 0 when the producing surface did not stamp one.
  std::uint64_t fingerprint = 0;
  /// Stream queries: components dirtied / left clean by the patches
  /// since the previous query. −1 (omitted from JSON) otherwise.
  std::int64_t dirty = -1;
  std::int64_t clean = -1;
  /// The originating request in its serve job-line JSON form (see
  /// serve/job.hpp), when the producing surface recorded one — this is
  /// what lets `graphio audit` re-evaluate a bound record from scratch.
  /// Empty (and omitted from JSON) otherwise.
  std::string request;
  RegistryDelta registry;
  std::vector<SpectrumProvenance> spectra;
  std::vector<RowLineage> rows;

  /// Stable JSON (no wall-clock fields; see file comment).
  void append_json(io::JsonWriter& w) const;
  [[nodiscard]] std::string to_json() const;
  /// Human table, one row per component per spectrum.
  [[nodiscard]] Table to_table() const;
};

/// Parses a record serialized by append_json. Throws contract_error on
/// malformed input.
[[nodiscard]] ProvenanceRecord parse_record(const io::JsonValue& v);

/// Loads every record of a provenance JSONL file (blank lines skipped;
/// malformed lines throw — an audit trail must not silently shrink).
[[nodiscard]] std::vector<ProvenanceRecord> load_provenance(
    const std::filesystem::path& file);

/// Internal-consistency issues of one record (empty means clean):
/// tier/iteration/predecessor invariants per component, non-negative
/// residuals and floors, and — when registry.exclusive — exact
/// reconciliation of the claimed solver tiers against the registry
/// deltas (Σ iterations of computed components == solver.iterations
/// delta; refresh+warm computed components == solver.warm_hits delta).
[[nodiscard]] std::vector<std::string> check_record(
    const ProvenanceRecord& record);

/// Append-only provenance JSONL next to a ResultStore: one record per
/// line in `<dir>/provenance.jsonl`, written through the same
/// store::AppendLog as the result and artifact stores (never replayed —
/// `graphio audit` reads trails with load_provenance). Thread-safe; lines
/// are flushed as written so a crashed run leaves a replayable prefix.
class ProvenanceLog {
 public:
  explicit ProvenanceLog(const std::filesystem::path& dir);

  /// Appends one record. A write failure (or injected `provenance.append`
  /// fault) disables the log with a warning and the `provenance.demoted`
  /// counter — losing lineage must never fail the run that produced the
  /// bound.
  void append(const ProvenanceRecord& record);

  /// Flushes and fsyncs the trail (no-op when demoted). Called at batch
  /// boundaries under `--durable`.
  void sync();

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return log_.path();
  }
  [[nodiscard]] std::int64_t appended() const noexcept {
    return log_.stats().appended;
  }

 private:
  std::mutex mutex_;
  store::AppendLog log_;
};

}  // namespace graphio::audit
