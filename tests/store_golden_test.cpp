// Golden bytes of the three append-only JSONL logs.
//
// Every on-disk line the library writes is pinned here byte for byte:
// one line per ArtifactStore kind (spectrum, topo, mincut, memsim,
// partition), one ResultStore row and one ProvenanceLog record. The
// pinned lines are then replayed — together with a torn final line — and
// the decoded values and the loaded/corrupt counts are checked. A change
// to any writer, parser or replay loop that alters what a store directory
// holds, or what an existing directory loads as, fails here.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "graphio/audit/provenance.hpp"
#include "graphio/serve/result_store.hpp"
#include "graphio/store/artifact_store.hpp"

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

std::vector<std::string> read_lines(const std::filesystem::path& file) {
  std::ifstream in(file);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_lines(const std::filesystem::path& file,
                 const std::vector<std::string>& lines,
                 const std::string& torn_tail) {
  std::filesystem::create_directories(file.parent_path());
  std::ofstream out(file);
  for (const std::string& line : lines) out << line << '\n';
  out << torn_tail;  // no newline: a crash mid-append
}

SpectralOptions golden_options() {
  SpectralOptions options;
  options.solver = "lanczos";
  options.eig_rel_tol = 1e-7;
  return options;
}

const std::vector<std::string>& artifact_lines() {
  static const std::vector<std::string> lines = {
      R"({"kind":"spectrum","fp":"00000000000abcde","lap":"norm","opts":"0|lanczos|1|9.9999999999999995e-08|0.01|2048|4096|8|0|1024|120","requested":4,"vertices":5,"edges":7,"solver":"lanczos","converged":true,"iterations":9,"warm":true,"residual":2.5000000000000001e-09,"pred":"0000000000001234","reason":"n>=threshold","values":[0,0.12345678901234568,2.0000000000000004,1e-300]})",
      R"({"kind":"topo","fp":"0000000000000011","order":[2,0,1]})",
      R"({"kind":"mincut","fp":"0000000000000022","engine":"push-relabel","best_cut":6,"best_vertex":3,"vertices_processed":9})",
      R"({"kind":"memsim","fp":"0000000000000033","memory":8,"orders":4,"reads":17,"writes":5})",
      R"({"kind":"partition","fp":"0000000000000044","memory":2.5,"objective":-3.25,"segments":2})",
  };
  return lines;
}

TEST(GoldenBytes, ArtifactStoreWritesPinnedLines) {
  const TempDir dir("graphio_golden_artifacts_write");
  {
    store::ArtifactStore s(dir.path);
    ComponentSolve solve;
    solve.vertices = 5;
    solve.edges = 7;
    solve.solver = la::SolverKind::kLanczos;
    solve.solver_ran = true;
    solve.converged = true;
    solve.iterations = 9;
    solve.warm_started = true;
    solve.max_residual = 2.5e-9;
    solve.warm_predecessor = 0x1234;
    solve.solver_reason = "n>=threshold";
    solve.values = {0.0, 0.1234567890123456789, std::nextafter(2.0, 3.0),
                    1e-300};
    s.store_spectrum(0xabcde, LaplacianKind::kOutDegreeNormalized, 4,
                     golden_options(), solve);
    s.store_topo(0x11, {{2, 0, 1}});
    s.store_mincut(0x22, flow::FlowEngine::kPushRelabel, {6, 3, 9, true});
    s.store_memsim(0x33, 8, 4, {17, 5});
    s.store_partition(0x44, 2.5, {-3.25, 2});
    EXPECT_EQ(s.stats().appended, 5);
  }
  EXPECT_EQ(read_lines(dir.path / "artifacts.jsonl"), artifact_lines());
}

TEST(GoldenBytes, ArtifactStoreReplaysPinnedLinesAndSkipsTornTail) {
  const TempDir dir("graphio_golden_artifacts_replay");
  write_lines(dir.path / "artifacts.jsonl", artifact_lines(),
              R"({"kind":"topo","fp":"00000000000000)");
  store::ArtifactStore s(dir.path);
  EXPECT_EQ(s.stats().loaded, 5);
  EXPECT_EQ(s.stats().corrupt, 1);

  const auto spectrum = s.lookup_spectrum(
      0xabcde, LaplacianKind::kOutDegreeNormalized, 4, golden_options());
  ASSERT_TRUE(spectrum.has_value());
  EXPECT_EQ(spectrum->vertices, 5);
  EXPECT_EQ(spectrum->edges, 7);
  EXPECT_EQ(spectrum->iterations, 9);
  EXPECT_TRUE(spectrum->warm_started);
  EXPECT_FALSE(spectrum->refresh);
  EXPECT_EQ(spectrum->max_residual, 2.5e-9);
  EXPECT_EQ(spectrum->warm_predecessor, 0x1234u);
  EXPECT_EQ(spectrum->solver_reason, "n>=threshold");
  EXPECT_TRUE(spectrum->from_disk);
  EXPECT_EQ(spectrum->values,
            (std::vector<double>{0.0, 0.1234567890123456789,
                                 std::nextafter(2.0, 3.0), 1e-300}));

  const auto topo = s.lookup_topo(0x11);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->order, (std::vector<VertexId>{2, 0, 1}));

  const auto sweep = s.lookup_mincut(0x22, flow::FlowEngine::kPushRelabel);
  ASSERT_TRUE(sweep.has_value());
  EXPECT_EQ(sweep->best_cut, 6);
  EXPECT_EQ(sweep->best_vertex, 3);
  EXPECT_EQ(sweep->vertices_processed, 9);
  EXPECT_TRUE(sweep->completed);
  EXPECT_FALSE(s.lookup_mincut(0x22, flow::FlowEngine::kDinic));

  const auto memsim = s.lookup_memsim(0x33, 8, 4);
  ASSERT_TRUE(memsim.has_value());
  EXPECT_EQ(memsim->reads, 17);
  EXPECT_EQ(memsim->writes, 5);

  const auto partition = s.lookup_partition(0x44, 2.5);
  ASSERT_TRUE(partition.has_value());
  EXPECT_EQ(partition->objective, -3.25);
  EXPECT_EQ(partition->segments, 2);

  // Compaction rewrites exactly the pinned lines (kind order, then key
  // order) and drops the torn tail.
  EXPECT_EQ(s.compact(), 5);
  EXPECT_EQ(read_lines(dir.path / "artifacts.jsonl"), artifact_lines());
}

const std::string& result_line() {
  static const std::string line =
      R"({"graph":"00000000deadbeef","method":"spectral","memory":8,"processors":1,"orders":4,"solver":"auto","decompose":true,"row":{"kind":"lower","applicable":true,"bound":12.5,"best_k":3,"converged":true,"seconds":0.25,"note":"golden"}})";
  return line;
}

serve::ResultStore::Key golden_key() {
  serve::ResultStore::Key key;
  key.graph_fingerprint = 0xdeadbeef;
  key.method = "spectral";
  key.memory = 8.0;
  key.solver = "auto";
  return key;
}

TEST(GoldenBytes, ResultStoreWritesPinnedLine) {
  const TempDir dir("graphio_golden_results_write");
  {
    serve::ResultStore s(dir.path);
    engine::MethodRow row;
    row.method = "spectral";
    row.memory = 8.0;
    row.value = 12.5;
    row.best_k = 3;
    row.seconds = 0.25;
    row.note = "golden";
    s.insert(golden_key(), row);
    EXPECT_EQ(s.stats().appended, 1);
  }
  EXPECT_EQ(read_lines(dir.path / "results.jsonl"),
            std::vector<std::string>{result_line()});
}

TEST(GoldenBytes, ResultStoreReplaysPinnedLineAndSkipsTornTail) {
  const TempDir dir("graphio_golden_results_replay");
  // The duplicate key replays once: first write wins, the repeat is
  // neither loaded nor corrupt.
  write_lines(dir.path / "results.jsonl", {result_line(), result_line()},
              R"({"graph":"00000000deadbeef","method":"spec)");
  serve::ResultStore s(dir.path);
  EXPECT_EQ(s.stats().loaded, 1);
  EXPECT_EQ(s.stats().corrupt, 1);
  EXPECT_EQ(s.size(), 1u);
  const auto row = s.lookup(golden_key());
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->method, "spectral");
  EXPECT_EQ(row->memory, 8.0);
  EXPECT_EQ(row->kind, engine::BoundKind::kLower);
  EXPECT_TRUE(row->applicable);
  EXPECT_EQ(row->value, 12.5);
  EXPECT_EQ(row->best_k, 3);
  EXPECT_TRUE(row->converged);
  EXPECT_EQ(row->seconds, 0.25);
  EXPECT_EQ(row->note, "golden");
}

const std::string& provenance_line() {
  static const std::string line =
      R"({"schema":1,"kind":"stream","graph":"g","fp":"0000000000c0ffee","dirty":1,"clean":2,"registry":{"warm_hits":1,"iterations":1,"exclusive":true},"spectra":[{"laplacian":"norm","requested":8,"computed":true,"merged_values":8,"components":[{"fp":"000000001234abcd","vertices":32,"edges":48,"tier":"refresh","solver":"lanczos","source":"computed","iterations":1,"residual":0.00035,"floor":0.012500000000000001,"pred":"0000000000009999","converged":true}]}],"rows":[{"method":"spectral","memory":8,"applicable":true,"bound":12.5,"best_k":3,"converged":true,"source":"computed"}]})";
  return line;
}

audit::ProvenanceRecord golden_record() {
  audit::ProvenanceRecord record;
  record.kind = "stream";
  record.graph = "g";
  record.fingerprint = 0xc0ffee;
  record.dirty = 1;
  record.clean = 2;
  record.registry.warm_hits = 1;
  record.registry.iterations = 1;
  audit::SpectrumProvenance spectrum;
  spectrum.laplacian = "norm";
  spectrum.requested = 8;
  spectrum.computed = true;
  spectrum.merged_values = 8;
  audit::ComponentProvenance c;
  c.fingerprint = 0x1234abcd;
  c.fingerprinted = true;
  c.vertices = 32;
  c.edges = 48;
  c.tier = "refresh";
  c.solver = "lanczos";
  c.iterations = 1;
  c.residual = 3.5e-4;
  c.certified_floor = 1.25e-2;
  c.warm_predecessor = 0x9999;
  spectrum.components.push_back(c);
  record.spectra.push_back(spectrum);
  audit::RowLineage row;
  row.method = "spectral";
  row.memory = 8;
  row.bound = 12.5;
  row.best_k = 3;
  record.rows.push_back(row);
  return record;
}

TEST(GoldenBytes, ProvenanceLogWritesPinnedLine) {
  const TempDir dir("graphio_golden_provenance_write");
  {
    audit::ProvenanceLog log(dir.path);
    log.append(golden_record());
    EXPECT_EQ(log.appended(), 1);
  }
  EXPECT_EQ(read_lines(dir.path / "provenance.jsonl"),
            std::vector<std::string>{provenance_line()});
}

TEST(GoldenBytes, ProvenanceTrailReplaysPinnedLineAndRejectsTornTail) {
  const TempDir dir("graphio_golden_provenance_replay");
  const std::filesystem::path file = dir.path / "provenance.jsonl";
  write_lines(file, {provenance_line()}, "");
  const std::vector<audit::ProvenanceRecord> records =
      audit::load_provenance(file);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to_json(), provenance_line());
  EXPECT_EQ(records[0].fingerprint, 0xc0ffeeu);
  ASSERT_EQ(records[0].spectra.size(), 1u);
  EXPECT_EQ(records[0].spectra[0].components[0].residual, 3.5e-4);

  // An audit trail must not silently shrink: a torn line is an error,
  // not a skipped record.
  write_lines(file, {provenance_line()}, R"({"schema":1,"kind":"str)");
  EXPECT_ANY_THROW(audit::load_provenance(file));
}

}  // namespace
}  // namespace graphio
