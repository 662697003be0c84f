#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "graphio/core/spectral_bound.hpp"
#include "graphio/core/spectral_pipeline.hpp"
#include "graphio/engine/artifact_cache.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/engine/fingerprint.hpp"
#include "graphio/engine/graph_spec.hpp"
#include "graphio/graph/builders.hpp"
#include "graphio/graph/components.hpp"
#include "graphio/support/contracts.hpp"

namespace graphio {
namespace {

SpectralOptions dense_monolithic() {
  SpectralOptions options;
  options.backend = EigenBackend::kDense;
  options.decompose = false;
  return options;
}

void expect_near_spectra(const std::vector<double>& a,
                         const std::vector<double>& b, double tol,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << what << " lambda_" << i;
}

// ------------------------------------------------------------- decomposition

TEST(SpectralPipeline, ConnectedGraphIsSingleInPlaceSolve) {
  const Digraph g = builders::fft(4);
  const PipelineResult result = SpectralPipeline(SpectralOptions{}).run(
      g, LaplacianKind::kOutDegreeNormalized, 16);
  EXPECT_EQ(result.components, 1);
  EXPECT_EQ(result.eigensolves, 1);
  ASSERT_EQ(result.per_component.size(), 1u);
  EXPECT_EQ(result.per_component[0].vertices, g.num_vertices());
  EXPECT_EQ(static_cast<int>(result.values.size()), 16);
  EXPECT_TRUE(result.converged);
}

TEST(SpectralPipeline, DisjointFftCorpusSolvesPerComponent) {
  // The ISSUE 3 acceptance shape: 8 disjoint FFTs -> 8 small eigensolves,
  // never 1 monolithic one, with the merged spectrum matching the
  // monolithic dense solve exactly.
  const Digraph g = engine::GraphSpec::parse("multi:8:fft:4").build();
  const int h = 40;

  const PipelineResult piped =
      SpectralPipeline(SpectralOptions{}).run(g, LaplacianKind::kOutDegreeNormalized, h);
  EXPECT_EQ(piped.components, 8);
  EXPECT_EQ(piped.eigensolves, 8);
  for (const ComponentSolve& solve : piped.per_component) {
    EXPECT_EQ(solve.vertices, g.num_vertices() / 8);
    EXPECT_EQ(solve.solver, la::SolverKind::kDense);  // tier flip
  }

  const PipelineResult mono = SpectralPipeline(dense_monolithic())
                                  .run(g, LaplacianKind::kOutDegreeNormalized,
                                       h);
  EXPECT_EQ(mono.components, 1);
  EXPECT_EQ(mono.eigensolves, 1);
  expect_near_spectra(piped.values, mono.values, 1e-8, "multi:8:fft:4");
}

TEST(SpectralPipeline, EdgelessComponentsNeedNoEigensolve) {
  // path(3) plus two isolated vertices: the singletons contribute exact
  // zeros without touching a solver.
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const PipelineResult result =
      SpectralPipeline(SpectralOptions{}).run(g, LaplacianKind::kPlain, 5);
  EXPECT_EQ(result.components, 3);
  EXPECT_EQ(result.eigensolves, 1);  // only the path
  ASSERT_EQ(result.values.size(), 5u);
  // Plain Laplacian of P3 has spectrum {0, 1, 3}; the union adds two 0s.
  const std::vector<double> expected{0.0, 0.0, 0.0, 1.0, 3.0};
  expect_near_spectra(result.values, expected, 1e-9, "path+isolated");
}

TEST(SpectralPipeline, WhollyEdgelessGraphIsAllZerosNoSolve) {
  const Digraph g(6);
  const PipelineResult result =
      SpectralPipeline(SpectralOptions{}).run(g, LaplacianKind::kOutDegreeNormalized, 4);
  EXPECT_EQ(result.eigensolves, 0);
  EXPECT_EQ(result.components, 6);
  ASSERT_EQ(result.values.size(), 4u);
  for (double v : result.values) EXPECT_EQ(v, 0.0);
}

TEST(SpectralPipeline, DecomposeOffReproducesMonolithicBehavior) {
  const Digraph g = engine::GraphSpec::parse("multi:3:inner:3").build();
  SpectralOptions mono;
  mono.decompose = false;
  const PipelineResult result =
      SpectralPipeline(mono).run(g, LaplacianKind::kPlain, 8);
  EXPECT_EQ(result.components, 1);
  EXPECT_EQ(result.eigensolves, 1);
}

TEST(SpectralPipeline, UnknownSolverPolicyThrowsWithNames) {
  SpectralOptions options;
  options.solver = "qr";
  try {
    (void)SpectralPipeline(options).run(builders::path(4),
                                        LaplacianKind::kPlain, 2);
    FAIL() << "expected contract_error";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("auto|dense|lanczos|lobpcg"),
              std::string::npos);
  }
}

TEST(SpectralPipeline, ComponentSolverHookIsUsed) {
  const Digraph g = engine::GraphSpec::parse("multi:4:path:3").build();
  int calls = 0;
  SpectralPipeline pipeline((SpectralOptions()));
  pipeline.set_component_solver(
      [&calls](const Digraph& component, LaplacianKind kind, int h,
               const SpectralOptions& options) {
        ++calls;
        return solve_component_spectrum(component, kind, h, options);
      });
  const PipelineResult result = pipeline.run(g, LaplacianKind::kPlain, 6);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(result.components, 4);
}

// ------------------------------------------------- fingerprint-first plans

/// Builds the eager plan run() would use, with counted materializers and
/// precomputed fingerprints — the shape every resolver test needs.
ComponentPlan counted_plan(const Digraph& g, const WeakComponents& wc,
                           int* materialized) {
  ComponentPlan plan;
  for (int c = 0; c < wc.count; ++c) {
    PlannedComponent entry;
    entry.vertices = static_cast<std::int64_t>(
        wc.vertices[static_cast<std::size_t>(c)].size());
    entry.edges = wc.edges_in(g, c);
    entry.fingerprint = engine::subgraph_fingerprint(g, wc, c);
    entry.fingerprinted = true;
    entry.materialize = [&g, &wc, c, materialized] {
      ++*materialized;
      return wc.subgraph(g, c);
    };
    plan.components.push_back(std::move(entry));
  }
  return plan;
}

void attach_cache(SpectralPipeline& pipeline,
                  store::ArtifactStore& cache) {
  pipeline.set_component_resolver(
      [&cache](std::uint64_t fp, std::int64_t, std::int64_t,
               LaplacianKind k, int h, const SpectralOptions& opts) {
        return cache.lookup_spectrum(fp, k, h, opts);
      },
      [&cache](std::uint64_t fp, LaplacianKind k, int requested,
               const SpectralOptions& opts, const ComponentSolve& solve) {
        cache.store_spectrum(fp, k, requested, opts, solve);
      });
}

TEST(SpectralPipeline, ResolvedComponentsNeverMaterialize) {
  // Four content-equal components, cache warm for that content: the whole
  // run_plan is lookups — zero extractions, zero eigensolves.
  const Digraph g = engine::GraphSpec::parse("multi:4:fft:3").build();
  const WeakComponents wc = weakly_connected_components(g);
  ASSERT_EQ(wc.count, 4);
  const SpectralOptions options;
  const int h = 6;

  store::ArtifactStore cache;
  const Digraph sub0 = wc.subgraph(g, 0);
  cache.store_spectrum(engine::graph_fingerprint(sub0), LaplacianKind::kPlain, h,
              options,
              solve_component_spectrum(sub0, LaplacianKind::kPlain, h,
                                       options));

  int materialized = 0;
  const ComponentPlan plan = counted_plan(g, wc, &materialized);
  SpectralPipeline pipeline(options);
  attach_cache(pipeline, cache);
  const PipelineResult result =
      pipeline.run_plan(plan, LaplacianKind::kPlain, h);

  EXPECT_EQ(materialized, 0);
  EXPECT_EQ(result.subgraph_extractions, 0);
  EXPECT_EQ(result.fingerprint_computes, 0);
  EXPECT_EQ(result.component_cache_hits, 4);
  EXPECT_EQ(result.eigensolves, 0);

  const PipelineResult direct =
      SpectralPipeline(options).run(g, LaplacianKind::kPlain, h);
  expect_near_spectra(result.values, direct.values, 1e-8, "resolved plan");
}

TEST(SpectralPipeline, MissesMaterializePublishAndThenResolve) {
  // Cold cache: each *distinct* content extracts and solves once; the
  // published solves make an immediate second run all-hits.
  const Digraph g = engine::GraphSpec::parse("multi:3:inner:4").build();
  const WeakComponents wc = weakly_connected_components(g);
  ASSERT_EQ(wc.count, 3);
  const SpectralOptions options;
  const int h = 5;

  store::ArtifactStore cache;
  int materialized = 0;
  const ComponentPlan plan = counted_plan(g, wc, &materialized);
  SpectralPipeline pipeline(options);
  attach_cache(pipeline, cache);

  const PipelineResult first =
      pipeline.run_plan(plan, LaplacianKind::kOutDegreeNormalized, h);
  EXPECT_EQ(first.subgraph_extractions, 1);  // 3 equal copies, 1 content
  EXPECT_EQ(first.eigensolves, 1);
  EXPECT_EQ(first.component_cache_hits, 2);
  EXPECT_EQ(materialized, 1);

  const PipelineResult second =
      pipeline.run_plan(plan, LaplacianKind::kOutDegreeNormalized, h);
  EXPECT_EQ(second.subgraph_extractions, 0);
  EXPECT_EQ(second.component_cache_hits, 3);
  EXPECT_EQ(materialized, 1);
  expect_near_spectra(first.values, second.values, 0.0, "warm replay");
}

TEST(SpectralPipeline, LazyFingerprintsAreComputedOnDemandAndCounted) {
  const Digraph g = engine::GraphSpec::parse("multi:2:fft:3").build();
  const WeakComponents wc = weakly_connected_components(g);
  const SpectralOptions options;
  store::ArtifactStore cache;

  int hashed = 0;
  int materialized = 0;
  ComponentPlan plan = counted_plan(g, wc, &materialized);
  for (int c = 0; c < wc.count; ++c) {
    PlannedComponent& entry =
        plan.components[static_cast<std::size_t>(c)];
    entry.fingerprinted = false;
    entry.fingerprint_fn = [&g, &wc, &hashed, c] {
      ++hashed;
      return engine::subgraph_fingerprint(g, wc, c);
    };
  }
  SpectralPipeline pipeline(options);
  attach_cache(pipeline, cache);
  const PipelineResult result =
      pipeline.run_plan(plan, LaplacianKind::kPlain, 4);
  EXPECT_EQ(result.fingerprint_computes, 2);
  EXPECT_EQ(hashed, 2);
  // Equal content: the first copy misses (extracts, publishes), the
  // second resolves off its freshly published fingerprint.
  EXPECT_EQ(result.subgraph_extractions, 1);
  EXPECT_EQ(result.component_cache_hits, 1);
}

TEST(SpectralPipeline, TrivialPlannedComponentsSkipEverything) {
  // Edgeless components: no fingerprint, no resolve, no materialize.
  Digraph g(4);
  g.add_edge(0, 1);
  const WeakComponents wc = weakly_connected_components(g);
  ASSERT_EQ(wc.count, 3);
  store::ArtifactStore cache;
  int materialized = 0;
  const ComponentPlan plan = counted_plan(g, wc, &materialized);
  SpectralPipeline pipeline((SpectralOptions()));
  attach_cache(pipeline, cache);
  const PipelineResult result =
      pipeline.run_plan(plan, LaplacianKind::kPlain, 4);
  EXPECT_EQ(result.subgraph_extractions, 1);  // only the edge's component
  EXPECT_EQ(cache.stats().spectrum.hits + cache.stats().spectrum.misses, 1);
  ASSERT_EQ(result.values.size(), 4u);
  EXPECT_EQ(result.values[0], 0.0);
  EXPECT_EQ(result.values[1], 0.0);
}

// Satellite (ISSUE 5): lookup-then-extract bounds equal the pre-plan
// extract-then-lookup path to 1e-8 across specs × every solver policy.
// The reference reproduces the PR 3/4 control flow literally: extract the
// subgraph first, hash it, then consult the same cache type.
// std::string parameters print as their text, so the listed parameter (and
// the ctest name derived from it) does not carry a per-run address.
class PlanPathParity
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(PlanPathParity, LookupFirstEqualsExtractFirst) {
  const std::string spec = std::get<0>(GetParam());
  const std::string solver = std::get<1>(GetParam());
  const Digraph g = engine::GraphSpec::parse(spec).build();
  SpectralOptions options;
  options.solver = solver;
  // Small h keeps the forced sparse tiers well-posed on tiny components.
  const int h =
      static_cast<int>(std::min<std::int64_t>(g.num_vertices(), 6));

  for (const LaplacianKind kind :
       {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized}) {
    // Lookup-then-extract: the engine's plan-driven artifact cache.
    engine::ArtifactCache plan_cache{Digraph(g)};
    const std::vector<double> plan_values =
        plan_cache.spectrum(kind, h, options).values;

    // Extract-then-lookup: materialize every component, hash the
    // materialized subgraph, then consult the cache — the old hook.
    store::ArtifactStore cache;
    SpectralPipeline reference(options);
    reference.set_component_solver(
        [&cache](const Digraph& component, LaplacianKind k, int hh,
                 const SpectralOptions& opts) {
          if (component.num_edges() == 0)
            return solve_component_spectrum(component, k, hh, opts);
          const std::uint64_t fp = engine::graph_fingerprint(component);
          if (auto cached = cache.lookup_spectrum(fp, k, hh, opts))
            return *std::move(cached);
          ComponentSolve solve =
              solve_component_spectrum(component, k, hh, opts);
          cache.store_spectrum(fp, k, hh, opts, solve);
          return solve;
        });
    const PipelineResult ref = reference.run(g, kind, h);
    expect_near_spectra(plan_values, ref.values, 1e-8,
                        spec + "/" + solver);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SpecsBySolvers, PlanPathParity,
    ::testing::Combine(::testing::Values("fft:4", "matmul:2",
                                         "multi:3:fft:3", "multi:2:inner:5"),
                       ::testing::Values("auto", "dense", "lanczos",
                                         "lobpcg")));

// --------------------------------------------------- merged-spectrum parity

// Random disjoint unions with 2..8 components: the merged per-component
// spectrum must match the monolithic dense spectrum of the union within
// 1e-8 (it is exactly the same multiset, so the tolerance only absorbs
// floating-point noise between solve orders).
class RandomUnionParity : public ::testing::TestWithParam<int> {};

TEST_P(RandomUnionParity, MergedMatchesWholeGraphDense) {
  const int seed = GetParam();
  const int num_components = 2 + seed % 7;  // 2..8
  std::vector<Digraph> parts;
  for (int c = 0; c < num_components; ++c) {
    const std::int64_t n = 10 + ((seed * 7 + c * 13) % 30);
    const double p = 0.08 + 0.02 * (c % 4);
    parts.push_back(builders::erdos_renyi_dag(
        n, p, static_cast<std::uint64_t>(seed * 100 + c)));
  }
  const Digraph g = disjoint_union(parts);
  const int h = static_cast<int>(std::min<std::int64_t>(
      g.num_vertices(), 24));

  for (const LaplacianKind kind :
       {LaplacianKind::kPlain, LaplacianKind::kOutDegreeNormalized}) {
    const PipelineResult piped = SpectralPipeline(SpectralOptions{}).run(g, kind, h);
    const PipelineResult mono =
        SpectralPipeline(dense_monolithic()).run(g, kind, h);
    // The ER parts may themselves be disconnected, so expect *at least*
    // the assembled component count.
    EXPECT_GE(piped.components, num_components);
    EXPECT_TRUE(piped.converged);
    expect_near_spectra(piped.values, mono.values, 1e-8,
                        "seed " + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomUnionParity,
                         ::testing::Range(0, 10));

// Engine-facing acceptance: on every shipped builder family (small
// instances, so the dense reference is affordable) the pipeline bound
// equals the monolithic dense whole-graph bound within 1e-8.
class BuilderParity : public ::testing::TestWithParam<const char*> {};

TEST_P(BuilderParity, PipelineBoundMatchesMonolithicDense) {
  const std::string spec = GetParam();
  const Digraph g = engine::GraphSpec::parse(spec).build();
  SpectralOptions piped;
  piped.adaptive = false;
  const SpectralBound a = spectral_bound(g, 8.0, piped);
  const SpectralBound b = spectral_bound(g, 8.0, dense_monolithic());
  EXPECT_NEAR(a.bound, b.bound, 1e-8) << spec;
  EXPECT_EQ(a.best_k, b.best_k) << spec;
}

INSTANTIATE_TEST_SUITE_P(
    Families, BuilderParity,
    ::testing::Values("fft:4", "bhk:5", "inner:6", "matmul:3", "strassen:2",
                      "er:60:0.1:7", "grid:5:6", "tree:4", "path:12",
                      "stencil1d:6:4", "stencil2d:4:4:3", "scan:4",
                      "bitonic:3", "trisolve:5", "cholesky:4",
                      "multi:4:fft:3", "multi:2:bhk:4"));

}  // namespace
}  // namespace graphio
