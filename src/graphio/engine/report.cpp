#include "graphio/engine/report.hpp"

#include <cmath>

#include "graphio/telemetry/stat_counters.hpp"

namespace graphio::engine {

namespace {

void append_row_json(io::JsonWriter& w, const MethodRow& row,
                     bool include_timing) {
  w.begin_object();
  w.key("method").value(row.method);
  w.key("memory").value(row.memory);
  if (row.processors != 1) w.key("processors").value(row.processors);
  w.key("kind").value(to_string(row.kind));
  w.key("applicable").value(row.applicable);
  if (row.applicable) {
    w.key("bound").value(row.value);
    if (row.best_k != 0) w.key("best_k").value(row.best_k);
    w.key("converged").value(row.converged);
    // Only-when-true keeps fault-free outputs byte-identical.
    if (row.degraded) w.key("degraded").value(true);
  }
  if (include_timing) w.key("seconds").value(row.seconds);
  if (!row.note.empty()) w.key("note").value(row.note);
  w.end_object();
}

std::vector<std::string> row_cells(const MethodRow& row, bool with_graph,
                                   const std::string& graph) {
  std::vector<std::string> cells;
  if (with_graph) cells.push_back(graph);
  cells.push_back(row.method);
  cells.push_back(format_double(row.memory, 0));
  cells.push_back(std::string(to_string(row.kind)));
  cells.push_back(row.applicable ? format_double(row.value, 3)
                                 : std::string("-"));
  cells.push_back(row.note);
  cells.push_back(row.converged ? "yes" : "NO");
  cells.push_back(format_double(row.seconds, 3));
  return cells;
}

}  // namespace

std::vector<const MethodRow*> BoundReport::rows_for(
    std::string_view method) const {
  std::vector<const MethodRow*> out;
  for (const MethodRow& row : rows)
    if (row.method == method) out.push_back(&row);
  return out;
}

const MethodRow* BoundReport::row(std::string_view method,
                                  double memory) const {
  for (const MethodRow& r : rows)
    if (r.method == method && r.memory == memory) return &r;
  return nullptr;
}

void BoundReport::append_json(io::JsonWriter& w, bool include_timing,
                              bool include_provenance) const {
  w.begin_object();
  w.key("graph").begin_object();
  w.key("name").value(graph);
  w.key("vertices").value(vertices);
  w.key("edges").value(edges);
  w.end_object();
  w.key("processors").value(processors);
  w.key("memories").begin_array();
  for (double m : memories) w.value(m);
  w.end_array();
  if (include_timing) {
    w.key("cache").begin_object();
    telemetry::write_counts(w, cache);
    w.key("phase_seconds").begin_object();
    w.key("fingerprint").value(cache.fingerprint_seconds);
    w.key("extract").value(cache.extract_seconds);
    w.key("solve").value(cache.solve_seconds);
    w.key("merge").value(cache.merge_seconds);
    w.end_object();
    w.end_object();
    w.key("seconds").value(seconds);
  }
  w.key("rows").begin_array();
  for (const MethodRow& row : rows) append_row_json(w, row, include_timing);
  w.end_array();
  if (include_provenance) {
    w.key("provenance");
    provenance.append_json(w);
  }
  w.end_object();
}

std::string BoundReport::to_json() const {
  io::JsonWriter w;
  append_json(w);
  return w.str();
}

Table BoundReport::to_table() const {
  Table t({"method", "M", "kind", "bound", "detail", "conv", "seconds"});
  for (const MethodRow& row : rows)
    t.add_row(row_cells(row, /*with_graph=*/false, graph));
  return t;
}

std::string reports_to_json(std::span<const BoundReport> reports) {
  io::JsonWriter w;
  w.begin_array();
  for (const BoundReport& report : reports) report.append_json(w);
  w.end_array();
  return w.str();
}

Table reports_to_table(std::span<const BoundReport> reports) {
  Table t({"graph", "method", "M", "kind", "bound", "detail", "conv",
           "seconds"});
  for (const BoundReport& report : reports)
    for (const MethodRow& row : report.rows)
      t.add_row(row_cells(row, /*with_graph=*/true, report.graph));
  return t;
}

}  // namespace graphio::engine
