// graphio_perfbench — the load driver of the graphio benchmark.
//
//   graphio_perfbench <inputs.json> <out.json> <workdir> <seconds>
//
// Reads the inputs perfbench/workloads.py generated, drives one workload
// through the library's public entry points (engine::Engine,
// stream::StreamSession, serve::BatchSession), and writes the raw
// observations — per-operation latencies, set-up and restart times, the
// outputs the checks need, work counters — to <out.json>. The Python
// side (perfbench/run.py) checks the outputs and turns the observations
// into metrics; this program computes no statistics of its own.
//
// With "trace": 1 in the inputs, the driver also records spans around
// the public calls it makes (name, start, end, parent, request id), kept
// in memory and written to <workdir>/spans.jsonl at exit. Layer work the
// library does inside one public call is attached as derived child spans
// whose durations come from the call's own return values
// (ComponentSolve::seconds, MethodRow::seconds). Untraced runs record
// nothing.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graphio/engine/engine.hpp"
#include "graphio/io/json.hpp"
#include "graphio/serve/batch_session.hpp"
#include "graphio/store/artifact_store.hpp"
#include "graphio/stream/session.hpp"
#include "graphio/telemetry/trace.hpp"

namespace fs = std::filesystem;
using graphio::Digraph;
using graphio::io::JsonValue;
using graphio::io::JsonWriter;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();
// Session name: must not parse as a family spec or name a file in the
// working directory (the checkout root).
constexpr const char* kStreamName = "patched_er_union";

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// ------------------------------------------------------------------ spans

struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t request = 0;
};

// In-memory span recorder. Ids are 1-based indexes into `records`.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  std::int64_t begin(const std::string& name, std::int64_t request) {
    if (!on_) return 0;
    const auto id = static_cast<std::int64_t>(records_.size()) + 1;
    records_.push_back({name, now_s(), 0.0, id,
                        stack_.empty() ? 0 : stack_.back(), request});
    stack_.push_back(id);
    return id;
  }
  void end(std::int64_t id) {
    if (!on_ || id == 0) return;
    records_[static_cast<std::size_t>(id - 1)].end = now_s();
    stack_.pop_back();
  }
  // A closed child of `parent` whose duration the library measured; laid
  // out back to back from the parent's start.
  void derived(const std::string& name, std::int64_t parent,
               double seconds) {
    if (!on_ || parent == 0) return;
    SpanRecord& p = records_[static_cast<std::size_t>(parent - 1)];
    double& cursor = cursor_[parent];
    if (cursor == 0.0) cursor = p.start;
    const auto id = static_cast<std::int64_t>(records_.size()) + 1;
    records_.push_back({name, cursor, cursor + seconds, id, parent,
                        p.request});
    cursor += seconds;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void write(const fs::path& file) const {
    std::ofstream out(file);
    for (const SpanRecord& r : records_) {
      JsonWriter w;
      w.begin_object()
          .key("name").value(r.name)
          .key("start").value(r.start)
          .key("end").value(r.end)
          .key("id").value(r.id)
          .key("parent").value(r.parent)
          .key("request").value(r.request)
          .end_object();
      out << w.str() << "\n";
    }
  }

 private:
  bool on_;
  std::vector<SpanRecord> records_;
  std::vector<std::int64_t> stack_;
  std::map<std::int64_t, double> cursor_;
};

class Scoped {
 public:
  Scoped(Spans& spans, const std::string& name, std::int64_t request)
      : spans_(spans), id_(spans.begin(name, request)) {}
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void close() {
    if (open_) spans_.end(id_);
    open_ = false;
  }
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::int64_t id_;
  bool open_ = true;
};

// -------------------------------------------------------------- counters

using Counters = std::map<std::string, double>;

// Attributes the component solves of `runs` (from index `from`) to the
// la layer: derived spans under `parent` plus solve counters. The tier is
// read from the solve's own fields, not its reason text (a warm solve's
// reason is rewritten to "warm(pred=...)"):
//  - a dense solve that was warm-started is the warm tier's fallback: the
//    warm LOBPCG did not converge and the dense redo ran; its time is
//    LOBPCG-tier time;
//  - a cold dense solve above dense_threshold is the Lanczos -> dense
//    rescue (the policy picks an iterative tier there, and only a
//    non-converged Lanczos falls back to dense); its time is Lanczos-tier
//    time.
void attribute_solves(
    const std::vector<graphio::engine::ArtifactCache::SpectrumRun>& runs,
    std::size_t from, Spans& spans, std::int64_t parent, Counters& c) {
  const std::int64_t dense_threshold =
      graphio::SpectralOptions{}.dense_threshold;
  for (std::size_t r = from; r < runs.size(); ++r) {
    for (const graphio::ComponentSolve& s : runs[r].per_component) {
      if (!s.solver_ran) continue;
      const bool dense = s.solver == graphio::la::SolverKind::kDense;
      std::string name;
      if (dense && s.warm_started) {
        name = "la.lobpcg";
      } else if (dense && s.vertices > dense_threshold) {
        name = "la.lanczos";
        c["la.rescues"] += 1;
      } else if (dense) {
        name = "la.dense";
        c["la.dense_solves"] += 1;
      } else if (s.solver == graphio::la::SolverKind::kLanczos) {
        name = "la.lanczos";
        c["la.lanczos_cycles"] += s.iterations;
      } else {
        name = "la.lobpcg";
        c["la.lobpcg_iterations"] += s.iterations;
      }
      if (s.warm_started) {
        c["core.warm_seeded"] += 1;
        if (s.refresh)
          c["core.refresh_accepted"] += 1;
        else
          c["core.warm_fallbacks"] += 1;
      }
      spans.derived(name, parent, s.seconds);
    }
  }
}

void attribute_rows(const graphio::engine::BoundReport& report, Spans& spans,
                    std::int64_t parent) {
  for (const graphio::engine::MethodRow& row : report.rows) {
    if (row.method == "memsim")
      spans.derived("sim.memsim", parent, row.seconds);
    else if (row.method == "partition-dp")
      spans.derived("core.partition", parent, row.seconds);
  }
}

void count_cache(const graphio::engine::ArtifactCache::Stats& s,
                 Counters& c) {
  c["engine.eigensolves"] += static_cast<double>(s.eigensolves);
  c["engine.component_hits"] += static_cast<double>(s.component_hits);
  c["engine.subgraph_extractions"] +=
      static_cast<double>(s.subgraph_extractions);
  c["engine.fingerprint_computes"] +=
      static_cast<double>(s.fingerprint_computes);
}

// ------------------------------------------------------------ input/output

std::vector<double> doubles(const JsonValue& v) {
  std::vector<double> out;
  for (const JsonValue& x : v.items()) out.push_back(x.as_double());
  return out;
}

graphio::engine::BoundRequest make_request(const JsonValue& v) {
  graphio::engine::BoundRequest req;
  req.spec = v.at("spec").as_string();
  req.memories = doubles(v.at("memories"));
  for (const JsonValue& m : v.at("methods").items())
    req.methods.push_back(m.as_string());
  return req;
}

// The (M, spectral, memsim) triples a cold-bound check compares; a
// missing or inapplicable row is written as null.
void write_rows(JsonWriter& w, const graphio::engine::BoundReport& report,
                const std::vector<double>& memories) {
  w.begin_array();
  for (double m : memories) {
    w.begin_array().value(m);
    for (const char* method : {"spectral", "memsim"}) {
      const graphio::engine::MethodRow* row = report.row(method, m);
      if (row != nullptr && row->applicable)
        w.value(row->value);
      else
        w.null();
    }
    w.end_array();
  }
  w.end_array();
}

void write_doubles(JsonWriter& w, const std::vector<double>& xs) {
  w.begin_array();
  for (double x : xs) w.value(x);
  w.end_array();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t dir_bytes(const fs::path& dir) {
  std::int64_t total = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += static_cast<std::int64_t>(e.file_size());
  return total;
}

struct Run {
  std::vector<double> ops;      // per-operation latency, seconds
  std::vector<double> setup;    // set-up repetitions, seconds
  std::vector<double> restart;  // restart repetitions, seconds
  std::vector<double> tail;     // serve-batch: per-pass p95 job latency
  double measured = 0.0;        // wall time of the measured phase
  std::int64_t attempted = 0;
  std::vector<std::string> errors;  // one per operation that threw
  Counters counters;
  std::ostringstream checks;    // JSON members of "checks" (no braces)
};

// ------------------------------------------------------------ cold-bound

void cold_bound(const JsonValue& in, double seconds, Spans& spans, Run& run) {
  const JsonValue& blocks = in.at("blocks");
  const auto min_blocks =
      static_cast<std::size_t>(in.at("min_blocks").as_int());

  // Set-up: request parsing, Engine construction and one small warm-up
  // evaluation (first use of the solver and thread runtime). Timed once
  // before the first request and again at every side sample below.
  auto setup_sample = [&] {
    const double t = now_s();
    std::vector<graphio::engine::BoundRequest> parsed;
    for (const JsonValue& block : blocks.items())
      for (const JsonValue& r : block.items())
        parsed.push_back(make_request(r));
    graphio::Engine engine;
    (void)engine.evaluate(make_request(in.at("warmup")));
    run.setup.push_back(now_s() - t);
  };
  setup_sample();

  JsonWriter rows;
  rows.begin_array();
  std::int64_t request_id = 0;
  auto evaluate_one = [&](const JsonValue& r) {
    ++request_id;
    ++run.attempted;
    try {
      const graphio::engine::BoundRequest req = make_request(r);
      const double t = now_s();
      graphio::engine::BoundReport report;
      if (!spans.on()) {
        graphio::Engine engine;
        report = engine.evaluate(req);
      } else {
        Scoped root(spans, "request", request_id);
        graphio::Engine engine;
        {
          // evaluate() reuses the graph this builds.
          Scoped s(spans, "graph.build", request_id);
          (void)engine.graph(req.spec);
        }
        Scoped ev(spans, "engine.evaluate", request_id);
        report = engine.evaluate(req);
        ev.close();
        attribute_solves(engine.cache(req.spec)->spectrum_runs(), 0, spans,
                         ev.id(), run.counters);
        attribute_rows(report, spans, ev.id());
        count_cache(report.cache, run.counters);
      }
      run.ops.push_back(now_s() - t);
      rows.begin_object().key("spec").value(req.spec).key("rows");
      write_rows(rows, report, req.memories);
      rows.end_object();
    } catch (const std::exception& e) {
      run.errors.push_back(r.at("spec").as_string() + ": " + e.what());
    }
  };

  // restart_s: fresh Engines answer a fixed request set over one warm
  // artifact store (warmed once, untimed). Side samples — one set-up and
  // one restart — are taken every few requests throughout the run, so
  // they see the same machine conditions as the requests, and are left
  // out of the run's wall time.
  auto store = std::make_shared<graphio::store::ArtifactStore>();
  const JsonValue& restart = in.at("restart");
  for (const JsonValue& r : restart.items())
    (void)graphio::Engine(store).evaluate(make_request(r));
  std::int64_t restart_eigensolves = 0;
  double excluded = 0.0;
  auto side_sample = [&] {
    const double t0 = now_s();
    setup_sample();
    const double t = now_s();
    for (const JsonValue& r : restart.items()) {
      graphio::Engine engine(store);
      restart_eigensolves += engine.evaluate(make_request(r)).cache.eigensolves;
    }
    run.restart.push_back(now_s() - t);
    excluded += now_s() - t0;
  };

  const auto every = in.at("sample_every").as_int();
  const double start = now_s();
  std::size_t done = 0;
  for (const JsonValue& block : blocks.items()) {
    if (done >= min_blocks && now_s() - start - excluded >= seconds) break;
    for (const JsonValue& r : block.items()) {
      evaluate_one(r);
      if (request_id % every == 0) side_sample();
    }
    ++done;
  }
  run.measured = now_s() - start - excluded;

  if (!in.at("probe").is_null()) {
    const std::size_t timed = run.ops.size();
    evaluate_one(in.at("probe"));
    run.ops.resize(timed);  // the probe is not part of the latency sample
  }
  rows.end_array();
  run.checks << "\"rows\":" << rows.str()
             << ",\"restart_eigensolves\":" << restart_eigensolves;
}

// ----------------------------------------------------------- stream-patch

struct StepInput {
  bool remove = false;
  graphio::VertexId u = 0;
  graphio::VertexId v = 0;
};

graphio::stream::Patch to_patch(const StepInput& s) {
  graphio::stream::Patch p;
  p.mutations.push_back(s.remove
                            ? graphio::stream::Mutation::remove_edge(s.u, s.v)
                            : graphio::stream::Mutation::add_edge(s.u, s.v));
  return p;
}

std::map<double, double> spectral_rows(
    const graphio::engine::BoundReport& report) {
  std::map<double, double> out;
  for (const graphio::engine::MethodRow* row : report.rows_for("spectral"))
    out[row->memory] = row->value;
  return out;
}

void write_pairs(JsonWriter& w, const std::map<double, double>& rows) {
  w.begin_array();
  for (const auto& [m, v] : rows) w.begin_array().value(m).value(v).end_array();
  w.end_array();
}

graphio::engine::BoundReport cold_evaluate(Digraph g,
                                           const std::vector<double>& mems) {
  graphio::engine::BoundRequest req;
  req.graph = std::move(g);
  req.memories = mems;
  req.methods = {"spectral"};
  graphio::Engine engine;
  return engine.evaluate(req);
}

void stream_patch(const JsonValue& in, double seconds, Spans& spans,
                  Run& run) {
  Digraph initial(in.at("vertices").as_int());
  for (const JsonValue& e : in.at("edges").items())
    initial.add_edge(e.at(0).as_int(), e.at(1).as_int());
  std::vector<StepInput> steps;
  for (const JsonValue& s : in.at("steps").items())
    steps.push_back({s.at("op").as_string() == "remove_edge",
                     s.at("u").as_int(), s.at("v").as_int()});
  graphio::engine::BoundRequest query;
  query.memories = doubles(in.at("memories"));
  query.methods = {"spectral"};
  const std::int64_t budget = in.at("basis_mb").as_int() << 20;

  // Set-up: a fresh store and session, the load, and the first full
  // query. The first set-up makes the session the steps patch; the set-up
  // is timed again on a throwaway session every `setup_every` steps.
  auto set_up = [&](std::shared_ptr<graphio::store::ArtifactStore>& store,
                    std::unique_ptr<graphio::stream::StreamSession>& session) {
    const double t = now_s();
    store = std::make_shared<graphio::store::ArtifactStore>();
    store->set_eigenbasis_budget(budget);
    session =
        std::make_unique<graphio::stream::StreamSession>(kStreamName, store);
    (void)session->load(initial);
    (void)session->evaluate(query);
    run.setup.push_back(now_s() - t);
  };
  std::shared_ptr<graphio::store::ArtifactStore> store;
  std::unique_ptr<graphio::stream::StreamSession> session;
  set_up(store, session);

  // restart_s: a fresh session over the warm store loads the current
  // graph and answers the query. Restart and set-up samples are taken
  // every few steps throughout the run and left out of its wall time.
  std::int64_t restart_eigensolves = 0;
  double excluded = 0.0;
  auto setup_sample = [&] {
    const double t = now_s();
    std::shared_ptr<graphio::store::ArtifactStore> side_store;
    std::unique_ptr<graphio::stream::StreamSession> side_session;
    set_up(side_store, side_session);
    side_session.reset();  // torn down inside the excluded time
    side_store.reset();
    excluded += now_s() - t;
  };
  auto restart_sample = [&] {
    const double t0 = now_s();
    const Digraph current = session->graph();
    const double t = now_s();
    graphio::stream::StreamSession fresh(kStreamName, store);
    (void)fresh.load(current);
    restart_eigensolves += fresh.evaluate(query).cache.eigensolves;
    run.restart.push_back(now_s() - t);
    excluded += now_s() - t0;
  };

  JsonWriter removals;  // traced only: streamed vs cold after each removal
  removals.begin_array();
  const auto min_steps = static_cast<std::size_t>(in.at("min_steps").as_int());
  const auto every = static_cast<std::size_t>(in.at("restart_every").as_int());
  const auto setup_every =
      static_cast<std::size_t>(in.at("setup_every").as_int());
  graphio::engine::BoundReport last;
  const graphio::engine::ArtifactCache* cache = nullptr;
  std::size_t seen_runs = 0;
  const double start = now_s();
  std::size_t done = 0;
  for (const StepInput& step : steps) {
    if (done >= min_steps && now_s() - start - excluded >= seconds) break;
    if (done > 0 && done % every == 0) restart_sample();
    if (done > 0 && done % setup_every == 0) setup_sample();
    ++run.attempted;
    const auto id = static_cast<std::int64_t>(done + 1);
    try {
      const graphio::stream::Patch patch = to_patch(step);
      const double t = now_s();
      if (!spans.on()) {
        (void)session->apply(patch);
        last = session->evaluate(query);
        run.ops.push_back(now_s() - t);
      } else {
        const auto before = store->stats();
        graphio::stream::PatchReport patched;
        {
          Scoped root(spans, "step", id);
          {
            Scoped s(spans, "stream.apply", id);
            patched = session->apply(patch);
          }
          Scoped ev(spans, "stream.evaluate", id);
          last = session->evaluate(query);
          ev.close();
          const auto* now_cache = session->engine().cache(kStreamName);
          if (now_cache != cache) seen_runs = 0;
          cache = now_cache;
          const double refreshes = run.counters["core.refresh_accepted"];
          attribute_solves(cache->spectrum_runs(), seen_runs, spans, ev.id(),
                           run.counters);
          seen_runs = cache->spectrum_runs().size();
          if (step.remove) {
            run.counters["stream.remove_steps"] += 1;
            run.counters["stream.remove_refreshes"] +=
                run.counters["core.refresh_accepted"] - refreshes;
          }
        }
        run.ops.push_back(now_s() - t);
        const auto after = store->stats();
        Counters& c = run.counters;
        c["stream.dirty_components"] += patched.dirty_components;
        c["stream.clean_components"] += patched.clean_components;
        c["stream.evicted"] += static_cast<double>(patched.evicted);
        c["store.eigenbasis_hits"] += static_cast<double>(
            after.eigenbasis.hits - before.eigenbasis.hits);
        c["store.eigenbasis_misses"] += static_cast<double>(
            after.eigenbasis.misses - before.eigenbasis.misses);
        c["store.spectrum_hits"] +=
            static_cast<double>(after.spectrum.hits - before.spectrum.hits);
        c["store.spectrum_misses"] += static_cast<double>(
            after.spectrum.misses - before.spectrum.misses);
        count_cache(last.cache, c);
        if (step.remove) {
          Scoped s(spans, "check.cold", id);
          const auto cold = cold_evaluate(session->graph(), query.memories);
          removals.begin_object().key("step").value(id).key("streamed");
          write_pairs(removals, spectral_rows(last));
          removals.key("cold");
          write_pairs(removals, spectral_rows(cold));
          removals.end_object();
        }
      }
    } catch (const std::exception& e) {
      run.errors.push_back("step " + std::to_string(id) + ": " + e.what());
    }
    ++done;
  }
  run.measured = now_s() - start - excluded;
  removals.end_array();
  const auto cold = cold_evaluate(session->graph(), query.memories);

  JsonWriter w;
  w.begin_object().key("streamed");
  write_pairs(w, spectral_rows(last));
  w.key("cold");
  write_pairs(w, spectral_rows(cold));
  w.end_object();
  run.checks << "\"final\":" << w.str() << ",\"removals\":" << removals.str()
             << ",\"restart_eigensolves\":" << restart_eigensolves;
  run.counters["stream.steps"] = static_cast<double>(done);
}

// ------------------------------------------------------------ serve-batch

// Runs the corpus once; `lines` receives the result lines.
graphio::serve::BatchSummary serve_pass(graphio::serve::BatchSession& session,
                                        const std::string& jobs,
                                        std::string& lines) {
  std::istringstream in(jobs);
  std::ostringstream out;
  graphio::serve::BatchSummary summary = session.run(in, out);
  lines = out.str();
  return summary;
}

// The checks compare result lines from files: holding every pass's lines
// in memory would inflate the driver's peak RSS with the pass count.
void save_lines(const fs::path& file, const std::string& lines) {
  std::ofstream(file) << lines;
}

void serve_batch(const JsonValue& in, double seconds, const fs::path& work,
                 Spans& spans, Run& run) {
  const JsonValue& lines_in = in.at("jobs");
  const std::int64_t njobs = static_cast<std::int64_t>(lines_in.items().size());
  // The corpus in the order pass `p` runs it.
  auto corpus = [&](std::int64_t p) {
    std::string jobs;
    for (const JsonValue& i :
         in.at("orders").at(static_cast<std::size_t>(p)).items())
      jobs += lines_in.at(static_cast<std::size_t>(i.as_int())).as_string() +
              "\n";
    return jobs;
  };
  auto options = [&](const fs::path& dir) {
    graphio::serve::BatchOptions o;
    o.threads = static_cast<int>(in.at("threads").as_int());
    o.store_dir = (dir / "results").string();
    o.artifact_dir = (dir / "artifacts").string();
    return o;
  };

  // Set-up: opening the session (worker pool) and both stores, on store
  // directories that exist and are empty, so the sample times the
  // library's open and not the file system's directory creation and
  // removal (which grows with the deletions earlier runs left behind).
  // One open takes about 20-60 us, so a sample is the mean of
  // `setup_opens` back-to-back opens. Samples are taken before the first pass and
  // after every pass.
  const auto setup_opens = in.at("setup_opens").as_int();
  const fs::path setup_dir = work / "setup";
  { graphio::serve::BatchSession first(options(setup_dir)); }
  auto setup_sample = [&] {
    const double t = now_s();
    for (std::int64_t k = 0; k < setup_opens; ++k)
      graphio::serve::BatchSession session(options(setup_dir));
    run.setup.push_back((now_s() - t) / static_cast<double>(setup_opens));
  };
  const auto setup_samples = in.at("setup_samples_per_pass").as_int();
  for (std::int64_t k = 0; k < setup_samples; ++k) setup_sample();

  // After each cold pass: save its result lines for the checks, then take
  // the restart_s samples — fresh sessions on that pass's directories
  // replay the corpus from the disk tiers. All of it is left out of the
  // run's wall time.
  JsonWriter checked;
  checked.begin_array();
  double excluded = 0.0;
  auto check_pass = [&](const fs::path& dir, std::int64_t pass,
                        const std::string& jobs,
                        const std::string& cold_lines) {
    const double t0 = now_s();
    save_lines(dir / "cold.jsonl", cold_lines);
    checked.begin_object().key("cold_lines").value(
        (dir / "cold.jsonl").string());
    checked.key("restarts").begin_array();
    for (std::int64_t k = 0; k < in.at("restarts_per_pass").as_int(); ++k) {
      const double t = now_s();
      Scoped root(spans, "serve.restart", pass);
      std::unique_ptr<graphio::serve::BatchSession> session;
      {
        Scoped s(spans, "store.open", pass);
        session = std::make_unique<graphio::serve::BatchSession>(options(dir));
      }
      std::string lines;
      const auto summary = serve_pass(*session, jobs, lines);
      run.restart.push_back(now_s() - t);
      root.close();
      const fs::path file = dir / ("restart-" + std::to_string(k) + ".jsonl");
      save_lines(file, lines);
      run.attempted += summary.jobs;
      run.counters["serve.failed_jobs"] += static_cast<double>(
          summary.failed + summary.rejected_lines);
      if (spans.on() && k == 0) {
        const auto st = session->artifact_store()->stats();
        Counters& c = run.counters;
        c["store.disk_loaded"] += static_cast<double>(st.loaded);
        c["store.disk_bytes"] += static_cast<double>(
            dir_bytes(dir / "results") + dir_bytes(dir / "artifacts"));
        c["store.result_hits"] += static_cast<double>(summary.store_hits);
        c["store.result_misses"] +=
            static_cast<double>(summary.store_misses);
      }
      checked.begin_object()
          .key("eigensolves").value(summary.cache.eigensolves)
          .key("lines").value(file.string())
          .end_object();
    }
    checked.end_array().end_object();
    for (std::int64_t k = 0; k < setup_samples; ++k) setup_sample();
    excluded += now_s() - t0;
  };

  if (spans.on()) graphio::telemetry::Tracer::global().enable();
  const auto min_passes = in.at("min_passes").as_int();
  const auto max_passes =
      static_cast<std::int64_t>(in.at("orders").items().size());
  const double start = now_s();
  double busy = 0.0;
  std::int64_t passes = 0;
  for (; passes < max_passes; ++passes) {
    if (passes >= min_passes && now_s() - start - excluded >= seconds) break;
    const std::int64_t id = passes + 1;
    const fs::path dir = work / ("pass-" + std::to_string(passes));
    const std::string jobs = corpus(passes);
    graphio::serve::BatchSummary summary;
    std::string lines;
    {
      Scoped root(spans, "serve.pass", id);
      graphio::serve::BatchSession session(options(dir));
      {
        Scoped s(spans, "serve.run", id);
        summary = serve_pass(session, jobs, lines);
      }
      if (spans.on()) {
        const auto st = session.artifact_store()->stats();
        Counters& c = run.counters;
        c["store.spectrum_hits"] += static_cast<double>(st.spectrum.hits);
        c["store.spectrum_misses"] +=
            static_cast<double>(st.spectrum.misses);
        c["serve.steals"] += static_cast<double>(summary.steals);
        c["serve.retried"] += static_cast<double>(summary.retried);
        c["serve.failed"] += static_cast<double>(summary.failed);
        c["serve.job_p50_s"] = summary.p50_seconds;
        c["serve.job_p95_s"] = summary.p95_seconds;
        c["la.dense_solves"] +=
            static_cast<double>(summary.cache.eigensolves);
        count_cache(summary.cache, c);
      }
    }
    run.attempted += summary.jobs;
    run.ops.push_back(summary.p50_seconds);
    run.tail.push_back(summary.p95_seconds);
    busy += summary.latency.sum;
    run.counters["serve.failed_jobs"] += static_cast<double>(
        summary.failed + summary.rejected_lines);
    check_pass(dir, id, jobs, lines);
  }
  run.measured = now_s() - start - excluded;
  checked.end_array();
  run.counters["serve.passes"] = static_cast<double>(passes);
  run.counters["serve.jobs"] = static_cast<double>(njobs);
  run.counters["serve.busy_s"] = busy;
  run.counters["serve.threads"] =
      static_cast<double>(in.at("threads").as_int());
  if (spans.on()) {
    graphio::telemetry::Tracer& tracer = graphio::telemetry::Tracer::global();
    tracer.disable();
    for (const auto& row : tracer.summarize().rows)
      run.counters["lib." + row.name + "_self_s"] += row.self_us * 1e-6;
  }
  run.checks << "\"passes\":" << checked.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 5) {
    std::cerr << "usage: graphio_perfbench <inputs.json> <out.json> "
                 "<workdir> <seconds>\n";
    return 2;
  }
  std::ifstream in_file(argv[1]);
  std::stringstream text;
  text << in_file.rdbuf();
  const JsonValue inputs = JsonValue::parse(text.str());
  const fs::path work = argv[3];
  const double seconds = std::stod(argv[4]);
  fs::create_directories(work);

  const std::string workload = inputs.at("workload").as_string();
  Spans spans(inputs.at("trace").as_int() != 0);
  Run run;
  if (spans.on()) {
    // Cost of one recorded span, measured on a throwaway recorder.
    Spans probe(true);
    constexpr int kProbe = 100000;
    const double t = now_s();
    for (int i = 0; i < kProbe; ++i) Scoped s(probe, "probe", i);
    run.counters["trace.span_cost_s"] = (now_s() - t) / kProbe;
  }
  if (workload == "cold-bound")
    cold_bound(inputs.at("cold_bound"), seconds, spans, run);
  else if (workload == "stream-patch")
    stream_patch(inputs.at("stream_patch"), seconds, spans, run);
  else if (workload == "serve-batch")
    serve_batch(inputs.at("serve_batch"), seconds, work, spans, run);
  else {
    std::cerr << "unknown workload " << workload << "\n";
    return 2;
  }
  if (spans.on()) spans.write(work / "spans.jsonl");

  JsonWriter w;
  w.begin_object().key("ops");
  write_doubles(w, run.ops);
  w.key("setup");
  write_doubles(w, run.setup);
  w.key("restart");
  write_doubles(w, run.restart);
  w.key("tail");
  write_doubles(w, run.tail);
  w.key("errors").begin_array();
  for (const std::string& e : run.errors) w.value(e);
  w.end_array();
  w.key("measured").value(run.measured);
  w.key("attempted").value(run.attempted);
  w.key("peak_rss_mb").value(peak_rss_mb());
  w.key("spans").value(static_cast<std::int64_t>(spans.size()));
  w.key("counters").begin_object();
  for (const auto& [k, v] : run.counters) w.key(k).value(v);
  w.end_object().end_object();
  std::string doc = w.str();
  doc.pop_back();  // splice the checks object in before the closing brace
  std::ofstream out(argv[2]);
  out << doc << ",\"checks\":{" << run.checks.str() << "}}\n";
  return out.good() ? 0 : 1;
}
