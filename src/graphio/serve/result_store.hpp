// ResultStore — persistent on-disk cache of evaluated bound rows.
//
// Every computed (graph, method, M) cell is appended to a JSONL log under
// the store directory and indexed in memory, so repeated sweeps over a
// corpus hit disk instead of recomputing eigen-spectra: a warm rerun of a
// whole batch performs zero eigensolves (certified by the serve tests).
//
// Keys are content-addressed: the graph's structural fingerprint
// (engine/fingerprint.hpp), the method id, the memory size, and the
// request knobs that change results for some method (processors for
// "parallel", sim_random_orders for "memsim", the solver policy and
// decomposition switch for the spectral families). Other per-method
// options (min-cut budgets etc.) are NOT part of the key — the serve
// layer always evaluates those with defaults; drivers tuning them should
// point each configuration at its own store directory.
//
// The log is the shared store::AppendLog (store/append_log.hpp), so it is
// append-only and crash-tolerant exactly like the artifact store's:
// unparseable lines (e.g. a torn final line after a crash) are counted and
// skipped on load, the next insert simply appends after them, and a write
// failure demotes the store to memory-only. Stats total into the
// `result_store.*` registry counters (telemetry/stat_counters.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>

#include "graphio/engine/method.hpp"
#include "graphio/store/append_log.hpp"

namespace graphio::serve {

class ResultStore {
 public:
  struct Key {
    std::uint64_t graph_fingerprint = 0;
    std::string method;
    double memory = 0.0;
    std::int64_t processors = 1;
    int sim_random_orders = 4;
    /// Solver policy for the spectral families ("" for other methods, so
    /// their rows serve every solver setting).
    std::string solver;
    /// Per-component decomposition switch (spectral families only).
    bool decompose = true;
  };

  /// Opens (creating the directory if needed) and replays `dir/results.jsonl`.
  /// Throws contract_error when the directory cannot be created or the log
  /// cannot be opened for append.
  explicit ResultStore(const std::filesystem::path& dir);

  /// The cached row for a key, or nullopt. Thread-safe; counts a hit/miss.
  std::optional<engine::MethodRow> lookup(const Key& key);

  /// Records a computed row: appends one JSONL line and indexes it. A key
  /// already present is ignored (first write wins, matching lookup).
  /// Thread-safe. A disk write failure demotes the store to memory-only
  /// (the in-process index keeps serving; the log is never corrupted).
  void insert(const Key& key, const engine::MethodRow& row);

  /// Flushes and fsyncs the log (no-op when demoted). Called at batch
  /// boundaries under `--durable`.
  void sync();

  struct Stats {
    std::int64_t loaded = 0;     ///< rows replayed from disk at startup
    std::int64_t corrupt = 0;    ///< log lines skipped as unparseable
    std::int64_t hits = 0;       ///< lookups served
    std::int64_t misses = 0;     ///< lookups that found nothing
    std::int64_t appended = 0;   ///< rows written this session
    bool demoted = false;        ///< disk writes disabled after a failure
    /// The lookup counters' registry names under `result_store`; the
    /// log's four total there through store::AppendLog::Stats.
    static constexpr auto fields() {
      return std::tuple{telemetry::StatField{&Stats::hits, "hits"},
                        telemetry::StatField{&Stats::misses, "misses"}};
    }
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t size() const;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return log_.path();
  }

 private:
  static std::string encode_key(const Key& key);

  mutable std::mutex mutex_;
  std::unordered_map<std::string, engine::MethodRow> rows_;
  Stats stats_;  ///< hits and misses
  store::AppendLog log_;
};

}  // namespace graphio::serve
