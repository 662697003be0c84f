#include "graphio/audit/provenance.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::audit {

namespace {

void append_component_json(io::JsonWriter& w, const ComponentProvenance& c) {
  w.begin_object();
  if (c.fingerprinted) w.key("fp").value(engine::fingerprint_hex(c.fingerprint));
  w.key("vertices").value(c.vertices);
  w.key("edges").value(c.edges);
  w.key("tier").value(c.tier);
  if (!c.solver.empty()) w.key("solver").value(c.solver);
  w.key("source").value(c.source);
  w.key("iterations").value(c.iterations);
  w.key("residual").value(c.residual);
  w.key("floor").value(c.certified_floor);
  if (c.warm_predecessor != 0)
    w.key("pred").value(engine::fingerprint_hex(c.warm_predecessor));
  w.key("converged").value(c.converged);
  w.end_object();
}

ComponentProvenance parse_component(const io::JsonValue& v) {
  ComponentProvenance c;
  if (const io::JsonValue* fp = v.get("fp")) {
    c.fingerprint = engine::parse_fingerprint(fp->as_string());
    c.fingerprinted = true;
  }
  c.vertices = v.at("vertices").as_int();
  c.edges = v.at("edges").as_int();
  c.tier = v.at("tier").as_string();
  if (const io::JsonValue* solver = v.get("solver"))
    c.solver = solver->as_string();
  c.source = v.at("source").as_string();
  c.iterations = static_cast<int>(v.at("iterations").as_int());
  c.residual = v.at("residual").as_double();
  c.certified_floor = v.at("floor").as_double();
  if (const io::JsonValue* pred = v.get("pred"))
    c.warm_predecessor = engine::parse_fingerprint(pred->as_string());
  c.converged = v.at("converged").as_bool();
  return c;
}

void append_row_json(io::JsonWriter& w, const RowLineage& r) {
  w.begin_object();
  w.key("method").value(r.method);
  w.key("memory").value(r.memory);
  if (r.processors != 1) w.key("processors").value(r.processors);
  w.key("applicable").value(r.applicable);
  if (r.applicable) {
    w.key("bound").value(r.bound);
    if (r.best_k != 0) w.key("best_k").value(r.best_k);
    w.key("converged").value(r.converged);
    // Only-when-true keeps pre-existing trails byte-identical.
    if (r.degraded) w.key("degraded").value(true);
  }
  w.key("source").value(r.source);
  w.end_object();
}

RowLineage parse_row(const io::JsonValue& v) {
  RowLineage r;
  r.method = v.at("method").as_string();
  r.memory = v.at("memory").as_double();
  if (const io::JsonValue* p = v.get("processors")) r.processors = p->as_int();
  r.applicable = v.at("applicable").as_bool();
  if (r.applicable) {
    r.bound = v.at("bound").as_double();
    if (const io::JsonValue* k = v.get("best_k"))
      r.best_k = static_cast<int>(k->as_int());
    r.converged = v.at("converged").as_bool();
    if (const io::JsonValue* d = v.get("degraded")) r.degraded = d->as_bool();
  }
  r.source = v.at("source").as_string();
  return r;
}

}  // namespace

std::string_view solve_tier(const ComponentSolve& solve) {
  if (solve.skipped) return "skipped";
  if (solve.refresh) return "refresh";
  if (solve.warm_started) return "warm";
  if (!solve.solver_ran && !solve.from_cache) return "trivial";
  return "cold";
}

std::string_view solve_source(const ComponentSolve& solve) {
  if (!solve.from_cache) return "computed";
  return solve.from_disk ? "disk" : "memory";
}

ComponentProvenance component_provenance(const ComponentSolve& solve) {
  ComponentProvenance c;
  c.fingerprint = solve.fingerprint;
  c.fingerprinted = solve.fingerprinted;
  c.vertices = solve.vertices;
  c.edges = solve.edges;
  c.tier = std::string(solve_tier(solve));
  if (c.tier != "trivial" && c.tier != "skipped")
    c.solver = std::string(la::to_string(solve.solver));
  c.source = std::string(solve_source(solve));
  c.iterations = solve.iterations;
  c.residual = solve.max_residual;
  // Iterative solves clamp values at max(0, θ−‖r‖); dense solves are
  // backward-stable and may report the zero eigenvalue as −ε roundoff.
  // The certified floor is ≥ 0 either way (the Laplacian is PSD).
  c.certified_floor =
      solve.values.empty() ? 0.0 : std::max(0.0, solve.values.front());
  c.warm_predecessor = solve.warm_predecessor;
  c.converged = solve.converged;
  return c;
}

void ProvenanceRecord::append_json(io::JsonWriter& w) const {
  w.begin_object();
  w.key("schema").value(schema);
  w.key("kind").value(kind);
  w.key("graph").value(graph);
  if (fingerprint != 0)
    w.key("fp").value(engine::fingerprint_hex(fingerprint));
  if (dirty >= 0) w.key("dirty").value(dirty);
  if (clean >= 0) w.key("clean").value(clean);
  if (!request.empty()) w.key("request").value(request);
  w.key("registry").begin_object();
  w.key("warm_hits").value(registry.warm_hits);
  w.key("iterations").value(registry.iterations);
  w.key("exclusive").value(registry.exclusive);
  w.end_object();
  w.key("spectra").begin_array();
  for (const SpectrumProvenance& sp : spectra) {
    w.begin_object();
    w.key("laplacian").value(sp.laplacian);
    w.key("requested").value(sp.requested);
    w.key("computed").value(sp.computed);
    w.key("merged_values").value(sp.merged_values);
    w.key("components").begin_array();
    for (const ComponentProvenance& c : sp.components)
      append_component_json(w, c);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("rows").begin_array();
  for (const RowLineage& r : rows) append_row_json(w, r);
  w.end_array();
  w.end_object();
}

std::string ProvenanceRecord::to_json() const {
  io::JsonWriter w;
  append_json(w);
  return w.str();
}

Table ProvenanceRecord::to_table() const {
  Table t({"lap", "component", "tier", "solver", "source", "iters",
           "residual", "floor", "conv"});
  for (const SpectrumProvenance& sp : spectra) {
    for (const ComponentProvenance& c : sp.components) {
      t.add_row({sp.laplacian,
                 c.fingerprinted ? engine::fingerprint_hex(c.fingerprint)
                                 : "n=" + std::to_string(c.vertices),
                 c.tier, c.solver.empty() ? "-" : c.solver, c.source,
                 format_int(c.iterations),
                 format_double(c.residual, 6),
                 format_double(c.certified_floor, 6),
                 c.converged ? "yes" : "NO"});
    }
  }
  return t;
}

ProvenanceRecord parse_record(const io::JsonValue& v) {
  ProvenanceRecord r;
  r.schema = static_cast<int>(v.at("schema").as_int());
  r.kind = v.at("kind").as_string();
  r.graph = v.at("graph").as_string();
  if (const io::JsonValue* fp = v.get("fp"))
    r.fingerprint = engine::parse_fingerprint(fp->as_string());
  if (const io::JsonValue* dirty = v.get("dirty")) r.dirty = dirty->as_int();
  if (const io::JsonValue* clean = v.get("clean")) r.clean = clean->as_int();
  if (const io::JsonValue* req = v.get("request"))
    r.request = req->as_string();
  const io::JsonValue& reg = v.at("registry");
  r.registry.warm_hits = reg.at("warm_hits").as_int();
  r.registry.iterations = reg.at("iterations").as_int();
  r.registry.exclusive = reg.at("exclusive").as_bool();
  for (const io::JsonValue& sp_v : v.at("spectra").items()) {
    SpectrumProvenance sp;
    sp.laplacian = sp_v.at("laplacian").as_string();
    sp.requested = static_cast<int>(sp_v.at("requested").as_int());
    sp.computed = sp_v.at("computed").as_bool();
    sp.merged_values = sp_v.at("merged_values").as_int();
    for (const io::JsonValue& c_v : sp_v.at("components").items())
      sp.components.push_back(parse_component(c_v));
    r.spectra.push_back(std::move(sp));
  }
  for (const io::JsonValue& row_v : v.at("rows").items())
    r.rows.push_back(parse_row(row_v));
  return r;
}

std::vector<ProvenanceRecord> load_provenance(
    const std::filesystem::path& file) {
  std::ifstream in(file);
  GIO_EXPECTS_MSG(in.good(),
                  "cannot read provenance log '" + file.string() + "'");
  std::vector<ProvenanceRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    records.push_back(parse_record(io::JsonValue::parse(line)));
  }
  return records;
}

std::vector<std::string> check_record(const ProvenanceRecord& record) {
  std::vector<std::string> issues;
  const auto flag = [&issues, &record](const std::string& what) {
    issues.push_back("record '" + record.graph + "': " + what);
  };
  for (const SpectrumProvenance& sp : record.spectra) {
    for (std::size_t i = 0; i < sp.components.size(); ++i) {
      const ComponentProvenance& c = sp.components[i];
      const std::string where =
          sp.laplacian + " component #" + std::to_string(i);
      if (c.tier != "refresh" && c.tier != "warm" && c.tier != "cold" &&
          c.tier != "trivial" && c.tier != "skipped")
        flag(where + " has unknown tier '" + c.tier + "'");
      if (c.source != "computed" && c.source != "memory" &&
          c.source != "disk")
        flag(where + " has unknown source '" + c.source + "'");
      if (c.residual < 0.0) flag(where + " has a negative residual");
      if (c.certified_floor < 0.0)
        flag(where + " has a negative certified floor");
      if (c.iterations < 0) flag(where + " has negative iterations");
      if (c.tier == "refresh") {
        if (c.iterations != 1)
          flag(where + " claims a refresh with iterations != 1");
        if (c.warm_predecessor == 0)
          flag(where + " claims a refresh without a warm predecessor");
      }
      if (c.tier == "warm" && c.warm_predecessor == 0)
        flag(where + " claims a warm start without a predecessor");
      if (c.tier == "trivial") {
        if (c.edges != 0) flag(where + " claims trivial but has edges");
        if (c.iterations != 0 || c.residual != 0.0)
          flag(where + " claims trivial but reports solver work");
      }
      if (c.tier == "cold" && c.warm_predecessor != 0)
        flag(where + " claims cold but carries a warm predecessor");
      if (c.tier == "skipped") {
        if (c.iterations != 0 || c.residual != 0.0)
          flag(where + " claims skipped but reports solver work");
        if (c.converged)
          flag(where + " claims skipped but also converged");
      }
    }
  }
  if (record.registry.exclusive) {
    std::int64_t iterations = 0;
    std::int64_t warm = 0;
    for (const SpectrumProvenance& sp : record.spectra) {
      if (!sp.computed) continue;
      for (const ComponentProvenance& c : sp.components) {
        if (c.source != "computed") continue;
        iterations += c.iterations;
        if (c.tier == "refresh" || c.tier == "warm") ++warm;
      }
    }
    if (iterations != record.registry.iterations)
      flag("claimed iterations " + std::to_string(iterations) +
           " != solver.iterations delta " +
           std::to_string(record.registry.iterations));
    if (warm != record.registry.warm_hits)
      flag("claimed warm tiers " + std::to_string(warm) +
           " != solver.warm_hits delta " +
           std::to_string(record.registry.warm_hits));
  }
  return issues;
}

ProvenanceLog::ProvenanceLog(const std::filesystem::path& dir)
    : log_(dir,
           {.file = "provenance.jsonl",
            .noun = "provenance",
            .fault_site = "provenance.append",
            .disabled = "provenance trail disabled",
            .consequence = "bounds unaffected",
            // Registered only when it fires: a healthy trail adds no
            // provenance.* counters to the registry.
            .on_demote =
                [] {
                  telemetry::MetricsRegistry::global()
                      .counter("provenance.demoted")
                      .increment();
                }},
           nullptr) {}

void ProvenanceLog::append(const ProvenanceRecord& record) {
  const std::string line = record.to_json();
  const std::scoped_lock lock(mutex_);
  log_.append(line);
}

void ProvenanceLog::sync() {
  const std::scoped_lock lock(mutex_);
  log_.sync();
}

}  // namespace graphio::audit
