// Counter consistency: every per-instance Stats field that declares a
// registry name (telemetry/stat_counters.hpp) must move its registry
// metric by exactly its own delta. A fixed workload runs on fresh
// ArtifactCache, ArtifactStore, ResultStore and StreamSession instances;
// the checks iterate each Stats struct's fields() table, so a counter
// added later is covered without touching this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "graphio/engine/artifact_cache.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/faults/fault_injection.hpp"
#include "graphio/io/json.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/store/append_log.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/telemetry/metrics.hpp"
#include "graphio/telemetry/stat_counters.hpp"

namespace graphio {
namespace {

/// Temp directory that cleans up after itself.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// Every registry counter and gauge, by name.
std::map<std::string, double> registry_snapshot() {
  const io::JsonValue doc =
      io::JsonValue::parse(telemetry::MetricsRegistry::global().to_json());
  std::map<std::string, double> values;
  for (const char* group : {"counters", "gauges"})
    for (const auto& [name, value] : doc.at(group).members())
      values[name] = value.as_double();
  return values;
}

double value_of(const std::map<std::string, double>& snapshot,
                const std::string& name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second;
}

/// Checks each named field of `stats` (a fresh instance's totals, so its
/// own delta) against its registry metric's delta across the workload.
/// Returns how many named fields moved, so callers can insist the
/// workload exercised them.
template <class S>
int expect_registry_matches(const std::string& prefix, const S& stats,
                            const std::map<std::string, double>& before,
                            const std::map<std::string, double>& after) {
  int moved = 0;
  std::apply(
      [&](const auto&... field) {
        (
            [&] {
              if (!field.registry) return;
              const std::string name = prefix + "." + std::string(field.name);
              const double own = static_cast<double>(stats.*field.member);
              const double registry =
                  value_of(after, name) - value_of(before, name);
              EXPECT_NEAR(registry, own, 1e-9 * std::max(1.0, std::abs(own)))
                  << name;
              if (own != 0.0) ++moved;
            }(),
            ...);
      },
      S::fields());
  return moved;
}

store::AppendLog::Stats log_stats(std::int64_t loaded, std::int64_t corrupt,
                                  std::int64_t appended, bool demoted) {
  store::AppendLog::Stats s;
  s.loaded = loaded;
  s.corrupt = corrupt;
  s.appended = appended;
  s.demoted = demoted;
  return s;
}

TEST(StatCounters, ArtifactCacheFieldsMatchRegistry) {
  const auto before = registry_snapshot();
  const Digraph g = engine::GraphSpec::parse("multi:3:fft:3").build();
  engine::ArtifactCache::Stats stats;
  {
    engine::ArtifactCache cache(g);
    (void)cache.fingerprint();
    (void)cache.topo_order();
    (void)cache.topo_order();
    (void)cache.spectrum(LaplacianKind::kOutDegreeNormalized, 6);
    (void)cache.spectrum(LaplacianKind::kOutDegreeNormalized, 4);
    (void)cache.max_wavefront_cut();
    (void)cache.memsim_row(4, 2);
    (void)cache.partition_row(4.0);
    (void)cache.partition_row(4.0);
    stats = cache.stats();
  }
  const auto after = registry_snapshot();
  EXPECT_GE(expect_registry_matches("cache", stats, before, after), 10);
  EXPECT_GT(stats.component_hits, 0);  // equal copies solve once
}

TEST(StatCounters, ArtifactCacheStatsArithmeticCoversEveryField) {
  engine::ArtifactCache::Stats a;
  a.hits = 3;
  a.warm_iterations_saved = 7;
  a.merge_seconds = 0.5;
  engine::ArtifactCache::Stats b = a;
  b += a;
  EXPECT_EQ(b.hits, 6);
  EXPECT_EQ(b.warm_iterations_saved, 14);
  EXPECT_EQ(b.merge_seconds, 1.0);
  const engine::ArtifactCache::Stats d = b - a;
  EXPECT_EQ(d.hits, 3);
  EXPECT_EQ(d.warm_iterations_saved, 7);
  EXPECT_EQ(d.merge_seconds, 0.5);
}

TEST(StatCounters, ArtifactStoreFieldsMatchRegistry) {
  const TempDir dir("graphio_stat_counters_store");
  const Digraph g = engine::GraphSpec::parse("multi:2:fft:3").build();
  SpectralOptions options;
  options.retain_basis = true;

  const auto before = registry_snapshot();
  store::ArtifactStore::Stats first;
  {
    auto s = std::make_shared<store::ArtifactStore>(dir.path);
    s->set_eigenbasis_budget(1 << 20);
    engine::ArtifactCache cache(g, s);
    (void)cache.topo_order();
    (void)cache.spectrum(LaplacianKind::kOutDegreeNormalized, 4, options);
    (void)cache.max_wavefront_cut();
    (void)cache.memsim_row(4, 2);
    (void)cache.partition_row(4.0);
    // A second cache over the same store hits every kind.
    engine::ArtifactCache warm(g, s);
    (void)warm.topo_order();
    (void)warm.spectrum(LaplacianKind::kOutDegreeNormalized, 4, options);
    (void)warm.max_wavefront_cut();
    (void)warm.memsim_row(4, 2);
    (void)warm.partition_row(4.0);
    (void)s->lookup_eigenbasis(1, LaplacianKind::kPlain);
    for (const std::uint64_t fp :
         warm.cached_spectra().at(LaplacianKind::kOutDegreeNormalized)
             .component_fingerprints)
      s->erase(fp);
    first = s->stats();
  }
  auto middle = registry_snapshot();
  // Every plain kind and spectra miss, hit and evict; the eigenbasis tier
  // at least misses.
  for (const auto& [kind, stats] :
       {std::pair{"spectrum", first.spectrum}, {"topo", first.topo},
        {"mincut", first.mincut}, {"memsim", first.memsim},
        {"partition", first.partition}}) {
    EXPECT_EQ(expect_registry_matches(std::string("store.") + kind, stats,
                                      before, middle),
              3)
        << kind;
  }
  EXPECT_GE(expect_registry_matches("store.eigenbasis", first.eigenbasis,
                                    before, middle),
            1);
  EXPECT_GT(first.appended, 0);
  expect_registry_matches(
      "store.disk",
      log_stats(first.loaded, first.corrupt, first.appended, first.demoted),
      before, middle);

  // Reopen: replay (with one torn line) and a demoting append.
  std::ofstream(dir.path / "artifacts.jsonl", std::ios::app)
      << "{\"kind\":\"topo\",\"fp\":";
  store::ArtifactStore::Stats second;
  {
    store::ArtifactStore s(dir.path);
    const faults::ScopedFaultPlan plan("store.disk.append:nth=1");
    s.store_topo(0x5eed, {{0}});
    second = s.stats();
  }
  const auto after = registry_snapshot();
  EXPECT_EQ(expect_registry_matches(
                "store.disk",
                log_stats(second.loaded, second.corrupt, second.appended,
                          second.demoted),
                middle, after),
            3);  // loaded, corrupt, demoted
  EXPECT_EQ(second.corrupt, 1);
  EXPECT_TRUE(second.demoted);
}

TEST(StatCounters, ResultStoreFieldsMatchRegistry) {
  const TempDir dir("graphio_stat_counters_results");
  serve::ResultStore::Key key;
  key.graph_fingerprint = 9;
  key.method = "mincut";
  key.memory = 4.0;
  engine::MethodRow row;
  row.method = "mincut";
  row.memory = 4.0;
  row.value = 2.0;

  const auto before = registry_snapshot();
  serve::ResultStore::Stats first;
  {
    serve::ResultStore s(dir.path);
    EXPECT_FALSE(s.lookup(key));
    s.insert(key, row);
    EXPECT_TRUE(s.lookup(key));
    first = s.stats();
  }
  std::ofstream(dir.path / "results.jsonl", std::ios::app) << "{\"graph\":";
  serve::ResultStore::Stats second;
  {
    serve::ResultStore s(dir.path);
    EXPECT_TRUE(s.lookup(key));
    key.memory = 8.0;
    const faults::ScopedFaultPlan plan("result_store.append:nth=1");
    s.insert(key, row);
    second = s.stats();
  }
  const auto after = registry_snapshot();
  serve::ResultStore::Stats total = first;
  total.hits += second.hits;
  total.misses += second.misses;
  EXPECT_EQ(expect_registry_matches("result_store", total, before, after), 2);
  EXPECT_EQ(expect_registry_matches(
                "result_store",
                log_stats(first.loaded + second.loaded,
                          first.corrupt + second.corrupt,
                          first.appended + second.appended, second.demoted),
                before, after),
            4);
}

TEST(StatCounters, StreamSessionFieldsMatchRegistry) {
  const auto before = registry_snapshot();
  stream::StreamSession::Stats stats;
  {
    stream::StreamSession session("stat_counters_s");
    session.load("multi:2:fft:3");
    engine::BoundRequest req;
    req.memories = {4};
    req.methods = {"spectral", "mincut"};
    (void)session.evaluate(req);
    stream::Patch patch;
    patch.mutations.push_back(stream::Mutation::add_vertex());
    patch.mutations.push_back(stream::Mutation::add_edge(64, 0));
    session.apply(patch);
    (void)session.evaluate(req);
    session.load("fft:3");
    stats = session.stats();
  }
  const auto after = registry_snapshot();
  EXPECT_EQ(expect_registry_matches("stream", stats, before, after), 6);
}

}  // namespace
}  // namespace graphio
