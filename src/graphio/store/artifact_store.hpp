// ArtifactStore — typed, content-addressed store of per-component
// analysis artifacts, with an optional durable tier.
//
// Kwasniewski-style composability (PAPERS.md) says every per-component
// artifact the bound methods consume — not just eigen-spectra — is a pure
// function of the component's content: its spectrum, its topological
// order, its max-wavefront min-cut sweep, its memsim schedule row, its
// optimal Lemma 1 partition objective. The store therefore keys every
// kind by the component's content
// fingerprint (engine/fingerprint.hpp) plus a kind-specific options key,
// and serves them across specs, across stream patches, and (with the disk
// tier) across process restarts:
//
//   memory tier   mutex-guarded maps, refcount-evicted by the stream
//                 session via erase(fingerprint) — subsumes the former
//                 ComponentSpectrumCache with identical hit semantics.
//                 The four plain kinds (topo, mincut, memsim, partition)
//                 are one keyed-table template plus a per-kind line
//                 codec; spectra (options groups) and eigenbases
//                 (bytes-bounded LRU, memory-only) are special;
//   disk tier     `<dir>/artifacts.jsonl`, the shared store::AppendLog
//                 (store/append_log.hpp): replayed on startup, torn/
//                 garbage lines counted and skipped, inserts appended and
//                 flushed. erase() never touches disk — a cold restart
//                 against a warm directory answers every method with
//                 zero eigensolves and zero topo recomputes.
//
// Per-kind hits/misses/evictions total into the registry counters
// `store.<kind>.*`, the log's into `store.disk.*` (telemetry/
// stat_counters.hpp: one declaration per counter).
//
// One instance is shared by every ArtifactCache of an Engine, every
// worker Engine of a serve Scheduler, and every stream session of a
// BatchSession; all public methods are thread-safe.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/flow/convex_mincut.hpp"
#include "graphio/graph/laplacian.hpp"
#include "graphio/store/append_log.hpp"

namespace graphio::store {

/// Kahn topological order of one component, in the component's local
/// vertex ids (ascending-extraction numbering, so the order is meaningful
/// for any graph the component's content appears in).
struct TopoOrderArtifact {
  std::vector<VertexId> order;
};

/// The memory-independent core of one component's convex min-cut sweep:
/// max_v C(v) over the component (the bound at memory M derives as
/// 2·max(0, best_cut − M); per-component sweeps sum per Kwasniewski).
struct MincutSweepArtifact {
  std::int64_t best_cut = 0;
  VertexId best_vertex = -1;  ///< component-local id (-1 if none positive)
  std::int64_t vertices_processed = 0;
  bool completed = true;
};

/// One component's best simulated schedule at a fixed (memory, orders)
/// configuration — components share no values, so per-component rows sum
/// to a valid whole-graph schedule cost.
struct MemsimRowArtifact {
  std::int64_t reads = 0;
  std::int64_t writes = 0;
};

/// One component's optimal Lemma 1 partition objective at a fixed memory
/// size, UNCLAMPED (core/partition_dp.hpp OptimalPartitionResult
/// ::objective): segment costs are additive across weak components, so
/// per-component objectives compose to the whole-graph certificate as
/// Σ_c objective_c + 2M·(components − 1), clamped at 0 by the consumer.
struct PartitionRowArtifact {
  double objective = 0.0;
  std::int64_t segments = 0;  ///< segments of the maximizing partition
};

class ArtifactStore {
 public:
  /// Memory-only store (no durable tier).
  ArtifactStore();
  ~ArtifactStore();

  /// Memory store backed by `dir/artifacts.jsonl`: the log is replayed on
  /// construction (unparseable lines counted and skipped) and every new
  /// artifact is appended. Throws contract_error when the directory
  /// cannot be created or the log cannot be opened for append — a
  /// silently cache-less run would recompute every eigensolve while the
  /// caller believes artifacts persist.
  explicit ArtifactStore(const std::filesystem::path& dir);

  // ---------------------------------------------------------- spectrum
  /// The cached solve for (fingerprint, kind) computed with equivalent
  /// solver options and at least `count` requested values — the exact hit
  /// rule of the former ComponentSpectrumCache: a non-converged solve is
  /// still a hit for its requested count (re-running an identical failing
  /// solve helps nobody), and values are truncated to the `count`
  /// smallest so equal-count requests see one deterministic answer
  /// regardless of population order.
  std::optional<ComponentSolve> lookup_spectrum(
      std::uint64_t fingerprint, LaplacianKind kind, int count,
      const SpectralOptions& options);

  /// Records a solve computed for `requested` values. Distinct solver
  /// options coexist as separate entries; within one options group,
  /// whichever of the existing and new entry answers more requests wins
  /// (ties keep the existing entry). Converged solves are mirrored to the
  /// disk tier; partial ones stay memory-only (persisting a degraded
  /// spectrum would serve it forever).
  void store_spectrum(std::uint64_t fingerprint, LaplacianKind kind,
                      int requested, const SpectralOptions& options,
                      const ComponentSolve& solve);

  // --------------------------------------------------------- topo order
  std::optional<TopoOrderArtifact> lookup_topo(std::uint64_t fingerprint);
  void store_topo(std::uint64_t fingerprint, const TopoOrderArtifact& topo);

  // ------------------------------------------------------ min-cut sweep
  std::optional<MincutSweepArtifact> lookup_mincut(std::uint64_t fingerprint,
                                                   flow::FlowEngine engine);
  /// Only completed sweeps reach the disk tier — a time-budget-cut sweep
  /// is a valid but degraded bound that must not be served forever.
  void store_mincut(std::uint64_t fingerprint, flow::FlowEngine engine,
                    const MincutSweepArtifact& sweep);

  // --------------------------------------------------------- memsim row
  std::optional<MemsimRowArtifact> lookup_memsim(std::uint64_t fingerprint,
                                                 std::int64_t memory,
                                                 int random_orders);
  void store_memsim(std::uint64_t fingerprint, std::int64_t memory,
                    int random_orders, const MemsimRowArtifact& row);

  // ------------------------------------------------------ partition row
  /// Keyed by the exact memory value (doubles round-trip through the disk
  /// tier at 17 significant digits, so a value always looks up the way it
  /// was written).
  std::optional<PartitionRowArtifact> lookup_partition(
      std::uint64_t fingerprint, double memory);
  void store_partition(std::uint64_t fingerprint, double memory,
                       const PartitionRowArtifact& row);

  // --------------------------------------------------------- eigenbasis
  // Retained component eigenbases (Ritz vectors) for warm-started
  // solves. Memory tier ONLY: vectors are n×h doubles and must never hit
  // the append-only JSONL disk tier. The tier is a bytes-bounded LRU —
  // lookups refresh recency, inserts evict the least recently used bases
  // until the budget holds. A budget of 0 disables the tier entirely
  // (lookups miss, puts drop).
  std::optional<Eigenbasis> lookup_eigenbasis(std::uint64_t fingerprint,
                                              LaplacianKind kind);
  void store_eigenbasis(std::uint64_t fingerprint, LaplacianKind kind,
                        Eigenbasis basis);
  /// Re-keys every retained basis of `from` to `to`, recording `from` as
  /// the predecessor — the stream session calls this while
  /// re-fingerprinting a dirty component, BEFORE releasing the old
  /// fingerprint, so refcount eviction of dead content (which also drops
  /// its basis) cannot race the warm solve that needs it.
  void adopt_eigenbasis(std::uint64_t from, std::uint64_t to);
  /// Sets the eigenbasis LRU budget in bytes (0 disables and drops all
  /// resident bases).
  void set_eigenbasis_budget(std::int64_t bytes);
  [[nodiscard]] std::int64_t eigenbasis_budget() const;
  /// Resident eigenbasis bytes (for stats surfaces).
  [[nodiscard]] std::int64_t eigenbasis_bytes() const;

  /// Drops every memory-tier entry cached for one component fingerprint —
  /// all kinds, all options groups; returns how many entries went. The
  /// stream subsystem calls this when the last component with that
  /// content disappears from a session, so a long-lived mutation stream
  /// cannot grow the memory tier without bound. The disk tier is
  /// append-only and deliberately untouched: the content may return (a
  /// reverted patch, a restarted process), and compact() reclaims space
  /// offline.
  std::int64_t erase(std::uint64_t fingerprint);

  /// Drops every memory-tier entry (counters kept, disk untouched).
  void clear();

  /// Rewrites the log to exactly the current memory-tier contents —
  /// deduplicating lines accumulated by erase-then-recompute cycles —
  /// and returns the number of lines written. Requires a disk tier. On
  /// rename failure the original log is left intact and appendable (the
  /// stale `.tmp` is removed) and the error is surfaced; on success the
  /// rename is made durable with a directory fsync.
  std::int64_t compact();

  /// Flushes and fsyncs the disk tier (no-op without one). BatchSession
  /// calls this at batch boundaries under `--durable`.
  void sync();

  struct KindStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
    std::int64_t evicted = 0;
    /// Registry names under `store.<kind>`; entries is per-instance only.
    static constexpr auto fields() {
      return std::tuple{telemetry::StatField{&KindStats::hits, "hits"},
                        telemetry::StatField{&KindStats::misses, "misses"},
                        telemetry::StatField{&KindStats::entries, "entries",
                                             false},
                        telemetry::StatField{&KindStats::evicted, "evicted"}};
    }
  };
  struct Stats {
    KindStats spectrum;
    KindStats topo;
    KindStats mincut;
    KindStats memsim;
    KindStats partition;
    KindStats eigenbasis;            ///< memory-only warm-start tier
    std::int64_t eigenbasis_bytes = 0;  ///< resident basis bytes
    std::int64_t loaded = 0;   ///< artifacts replayed from disk at startup
    std::int64_t corrupt = 0;  ///< log lines skipped as unparseable
    std::int64_t appended = 0; ///< artifacts written to disk this session
    bool demoted = false;      ///< disk tier disabled after a write failure
    [[nodiscard]] std::int64_t entries() const noexcept {
      return spectrum.entries + topo.entries + mincut.entries +
             memsim.entries + partition.entries + eigenbasis.entries;
    }
    [[nodiscard]] std::int64_t hits() const noexcept {
      return spectrum.hits + topo.hits + mincut.hits + memsim.hits +
             partition.hits + eigenbasis.hits;
    }
    [[nodiscard]] std::int64_t misses() const noexcept {
      return spectrum.misses + topo.misses + mincut.misses + memsim.misses +
             partition.misses + eigenbasis.misses;
    }
    [[nodiscard]] std::int64_t evicted() const noexcept {
      return spectrum.evicted + topo.evicted + mincut.evicted +
             memsim.evicted + partition.evicted + eigenbasis.evicted;
    }
  };
  [[nodiscard]] Stats stats() const;

  /// True when a durable tier is attached and healthy. A disk-tier write
  /// failure (short write, ENOSPC, injected fault) *demotes* the store to
  /// memory-only — the log stops growing but is never corrupted, lookups
  /// and inserts keep working, and the incident is surfaced once on
  /// stderr plus the `store.disk.demoted` counter.
  [[nodiscard]] bool durable() const noexcept { return log_.durable(); }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return log_.path();
  }

  /// Canonical encoding of exactly the solver-relevant option fields
  /// (core/spectral_bound.hpp solver_options_equal): two options compare
  /// equal iff their keys are byte-identical, which is what lets the disk
  /// tier round-trip spectrum entries without serializing the full
  /// options struct. Exposed for tests.
  static std::string spectral_options_key(const SpectralOptions& options);

 private:
  struct SpectrumEntry {
    std::string options_key;
    int requested = 0;
    ComponentSolve solve;
  };

  /// Inserts without counting hits/misses; returns true when the memory
  /// tier changed (new entry, or an existing one improved) — the signal
  /// that a non-replay insert should also append to disk.
  bool put_spectrum_locked(std::uint64_t fingerprint, LaplacianKind kind,
                           int requested, const std::string& options_key,
                           const ComponentSolve& solve);
  void replay_line_locked(const std::string& line);

  struct BasisEntry {
    Eigenbasis basis;
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;  ///< LRU tick (monotonic per store)
  };
  /// Evicts least-recently-used bases until resident bytes fit the
  /// budget; updates stats. Caller holds the mutex.
  void evict_eigenbases_locked();

  /// The keyed tables of the plain kinds (defined with their codecs in
  /// the .cpp).
  struct Tables;

  mutable std::mutex mutex_;
  std::map<std::pair<std::uint64_t, LaplacianKind>,
           std::vector<SpectrumEntry>>
      spectra_;
  std::unique_ptr<Tables> tables_;
  std::map<std::pair<std::uint64_t, LaplacianKind>, BasisEntry> bases_;
  std::int64_t basis_budget_ = 0;
  std::int64_t basis_bytes_ = 0;
  std::uint64_t basis_tick_ = 0;
  Stats stats_;  ///< spectrum and eigenbasis kinds
  AppendLog log_;
};

}  // namespace graphio::store
