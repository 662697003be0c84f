// AppendLog — the one append-only JSONL log behind every durable tier:
// the ArtifactStore's `artifacts.jsonl`, the serve ResultStore's
// `results.jsonl` and the audit trail's `provenance.jsonl`. Owners differ
// only in their words (file name, error noun, fault site, demotion
// notice) and in the registry prefix the log's counters total into. Not
// thread-safe: every owner serializes on its own mutex.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>

#include "graphio/telemetry/stat_counters.hpp"

namespace graphio::store {

/// Round-trippable double rendering (17 significant digits): a value
/// written into a key or a log line reads back, and looks up, as itself.
std::string format_double_exact(double v);

class AppendLog {
 public:
  /// The owner's words for its log.
  struct Names {
    std::string_view file = {};  ///< log file name inside the directory
    std::string_view noun = {};  ///< error texts: "cannot read <noun> log"
    std::string_view fault_site = {};  ///< injected before every append
    /// Demotion notice: "graphio: <disabled> (<why>); <consequence>".
    std::string_view disabled = {};
    std::string_view consequence = {};
    /// Trace instant (with loaded/corrupt) after a replay; empty for none.
    std::string_view replay_event = {};
    /// Extra hook run once on demotion (for an owner without counters).
    void (*on_demote)() = nullptr;
  };

  struct Stats {
    std::int64_t loaded = 0;    ///< lines replayed at open
    std::int64_t corrupt = 0;   ///< lines skipped as unparseable
    std::int64_t appended = 0;  ///< lines written this session
    bool demoted = false;       ///< writes disabled after a failure
    static constexpr auto fields() {
      return std::tuple{telemetry::StatField{&Stats::loaded, "loaded"},
                        telemetry::StatField{&Stats::corrupt, "corrupt"},
                        telemetry::StatField{&Stats::appended, "appended"},
                        telemetry::StatField{&Stats::demoted, "demoted"}};
    }
  };
  using Counters = telemetry::StatCounters<Stats>;
  /// Returns the registry counters the log's Stats total into (the
  /// owner's function-local static). Called only when the log counts, so
  /// the owner's counter group registers when first used, not at open.
  using CountersFn = const Counters& (*)();
  /// Decodes and indexes one replayed line; throws on a malformed line.
  /// Returns false for a line that is well-formed but adds nothing (a
  /// duplicate key), which counts as neither loaded nor corrupt.
  using ReplayFn = std::function<bool(const std::string&)>;

  /// Detached: not durable, every call a no-op.
  AppendLog() = default;

  /// Creates `dir`, replays an existing `<dir>/<names.file>` line by line
  /// through `replay` (a line it throws on — a torn tail after a crash,
  /// garbage — is counted corrupt and skipped), then opens the file for
  /// append. Throws contract_error when the directory cannot be created
  /// or the log cannot be read or opened for append — a silently log-less
  /// run would recompute everything while the caller believes its results
  /// persist.
  AppendLog(const std::filesystem::path& dir, const Names& names,
            CountersFn counters, const ReplayFn& replay = {});

  /// Appends one line and flushes it, so a crashed run leaves a
  /// replayable prefix. A failed write (ENOSPC, short write, a fault
  /// injected at the owner's site) demotes the log: it stops growing, is
  /// never written into a failed stream, and the owner keeps serving from
  /// memory. A no-op when not durable.
  void append(std::string_view line);

  /// Flushes and fsyncs the log (no-op when not durable); a failed flush
  /// demotes.
  void sync();

  /// Replaces the log with the lines `write` emits and returns their
  /// count: writes `<file>.tmp`, renames it over the log and fsyncs the
  /// directory. A failed rename — or a fault injected at `fault_site` —
  /// removes the tmp file, leaves the original log intact and appendable,
  /// and throws. Requires a durable log.
  std::int64_t rewrite(std::string_view fault_site,
                       const std::function<std::int64_t(std::ostream&)>& write);

  /// True when a file is attached and writes have not been demoted.
  [[nodiscard]] bool durable() const noexcept {
    return !path_.empty() && !stats_.demoted;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  template <auto Member>
  void count(std::int64_t n = 1);
  void demote(const std::string& why);

  Names names_;
  CountersFn counters_ = nullptr;
  std::filesystem::path path_;
  std::ofstream out_;
  Stats stats_;
};

}  // namespace graphio::store
