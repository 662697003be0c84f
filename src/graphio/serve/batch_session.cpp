#include "graphio/serve/batch_session.hpp"

#include <algorithm>
#include <filesystem>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "graphio/faults/fault_injection.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/timer.hpp"
#include "graphio/telemetry/stat_counters.hpp"

namespace graphio::serve {

namespace {

/// Any row served from a deadline- or fault-degraded evaluation. The
/// result line surfaces this at the top level so a consumer can tell
/// "sound but weaker" apart from full-strength bounds without walking
/// the rows.
bool report_degraded(const engine::BoundReport& report) {
  for (const engine::MethodRow& row : report.rows)
    if (row.degraded) return true;
  return false;
}

void write_result_line(std::ostream& out, const JobResult& result,
                       bool explain) {
  io::JsonWriter w;
  w.begin_object();
  w.key("job").value(result.id);
  if (result.ok) {
    w.key("report");
    result.report.append_json(w, /*include_timing=*/false,
                              /*include_provenance=*/explain);
    if (report_degraded(result.report)) w.key("degraded").value(true);
  } else {
    w.key("error").begin_object();
    w.key("kind").value(result.error_kind.empty() ? std::string("error")
                                                  : result.error_kind);
    if (!result.error_site.empty()) w.key("site").value(result.error_site);
    w.key("attempts").value(static_cast<std::int64_t>(result.attempts));
    if (result.quarantined) w.key("quarantined").value(true);
    w.key("message").value(result.error);
    w.end_object();
  }
  w.end_object();
  out << w.str() << '\n';
}

/// Structured error line for jobs that never reached the scheduler:
/// unparseable input lines (kind "reject") and stream-lane failures
/// (the injected fault's kind/site when one fired, "error" otherwise).
void write_reject_line(std::ostream& out, std::int64_t line_no,
                       const std::string& what,
                       const std::string& kind = "reject",
                       const std::string& site = "") {
  io::JsonWriter w;
  w.begin_object();
  w.key("job").value(line_no);
  w.key("error").begin_object();
  w.key("kind").value(kind);
  if (!site.empty()) w.key("site").value(site);
  w.key("message").value(what);
  w.end_object();
  w.end_object();
  out << w.str() << '\n';
}

/// Deterministic stream result line ({"job": N, "load"/"patch": {...}}):
/// structural counts and the session fingerprint, no wall-clock fields.
void write_stream_line(std::ostream& out, std::int64_t job_id,
                       std::string_view kind,
                       const stream::PatchReport& report) {
  io::JsonWriter w;
  w.begin_object();
  w.key("job").value(job_id);
  w.key(kind).begin_object();
  w.key("graph").value(report.graph);
  if (!report.label.empty()) w.key("label").value(report.label);
  w.key("mutations").value(report.mutations);
  w.key("vertices").value(report.vertices);
  w.key("edges").value(report.edges);
  w.key("components").value(static_cast<std::int64_t>(report.components));
  w.key("dirty").value(static_cast<std::int64_t>(report.dirty_components));
  w.key("clean").value(static_cast<std::int64_t>(report.clean_components));
  w.key("evicted").value(report.evicted);
  w.key("fingerprint").value(report.fingerprint);
  w.end_object();
  w.end_object();
  out << w.str() << '\n';
}

double percentile(std::vector<double> sorted_or_not, double p) {
  if (sorted_or_not.empty()) return 0.0;
  std::sort(sorted_or_not.begin(), sorted_or_not.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_or_not.size() - 1) + 0.5);
  return sorted_or_not[std::min(rank, sorted_or_not.size() - 1)];
}

/// Process-wide per-job latency histogram — every lane (scheduler
/// workers, stream jobs, serve loop) observes into the same one, and a
/// run's summary carries the bracketing snapshot delta.
telemetry::Histogram& job_latency_histogram() {
  static telemetry::Histogram& h =
      telemetry::MetricsRegistry::global().histogram("serve.job.seconds");
  return h;
}

}  // namespace

double BatchSummary::store_hit_rate() const {
  const std::int64_t total = store_hits + store_misses;
  return total == 0 ? 0.0
                    : static_cast<double>(store_hits) /
                          static_cast<double>(total);
}

std::string BatchSummary::to_json() const {
  io::JsonWriter w;
  w.begin_object();
  w.key("jobs").value(jobs);
  w.key("ok").value(ok);
  w.key("failed").value(failed);
  w.key("rejected_lines").value(rejected_lines);
  w.key("retried").value(retried);
  w.key("quarantined").value(quarantined);
  w.key("degraded").value(degraded);
  w.key("threads").value(threads);
  w.key("steals").value(steals);
  w.key("seconds").value(seconds);
  w.key("throughput").value(throughput);
  w.key("p50_seconds").value(p50_seconds);
  w.key("p95_seconds").value(p95_seconds);
  w.key("p99_seconds").value(p99_seconds);
  w.key("latency").begin_object();
  w.key("count").value(latency.count);
  w.key("sum_seconds").value(latency.sum);
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < latency.counts.size(); ++i) {
    if (latency.counts[i] == 0) continue;
    w.begin_object();
    if (i < latency.bounds.size())
      w.key("le").value(latency.bounds[i]);
    else
      w.key("le").value("+inf");
    w.key("count").value(latency.counts[i]);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("store").begin_object();
  w.key("hits").value(store_hits);
  w.key("misses").value(store_misses);
  w.key("hit_rate").value(store_hit_rate());
  w.end_object();
  w.key("cache").begin_object();
  telemetry::write_counts(w, cache);
  w.end_object();
  w.key("stream").begin_object();
  w.key("jobs").value(stream_jobs);
  w.key("patches").value(patches);
  w.key("mutations").value(mutations);
  w.key("dirty_components").value(dirty_components);
  w.key("clean_components").value(clean_components);
  w.end_object();
  w.end_object();
  return w.str();
}

BatchSession::BatchSession(const BatchOptions& options) {
  if (!options.store_dir.empty())
    store_ = std::make_unique<ResultStore>(options.store_dir);
  // One artifact store for the whole session: worker Engines and stream
  // sessions all resolve per-component artifacts from it, and with
  // artifact_dir set its disk tier makes them survive restarts.
  artifacts_ = options.artifact_dir.empty()
                   ? std::make_shared<store::ArtifactStore>()
                   : std::make_shared<store::ArtifactStore>(
                         std::filesystem::path(options.artifact_dir));
  // Stream sessions read the budget to decide whether to retain bases
  // and warm-start patched components (stream/session.cpp).
  artifacts_->set_eigenbasis_budget(options.warm_basis_mb << 20);
  telemetry::MetricsRegistry::global()
      .gauge("store.eigenbasis.budget_bytes")
      .set(static_cast<double>(artifacts_->eigenbasis_budget()));
  SchedulerOptions scheduler_options;
  scheduler_options.threads = options.threads;
  scheduler_options.store = store_.get();
  scheduler_options.artifacts = artifacts_;
  scheduler_options.max_attempts = options.max_attempts;
  scheduler_options.backoff_ms = options.backoff_ms;
  scheduler_options.job_timeout_ms = options.job_timeout_ms;
  scheduler_ = std::make_unique<Scheduler>(scheduler_options);
  if (!options.provenance_dir.empty())
    provenance_ = std::make_unique<audit::ProvenanceLog>(
        std::filesystem::path(options.provenance_dir));
  explain_ = options.explain;
  durable_ = options.durable;
}

void BatchSession::sync_durable() {
  if (!durable_) return;
  if (store_ != nullptr) store_->sync();
  if (artifacts_ != nullptr) artifacts_->sync();
  if (provenance_ != nullptr) provenance_->sync();
}

BatchSession::~BatchSession() = default;

const stream::StreamSession* BatchSession::stream_session(
    const std::string& name) const {
  const auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second.get();
}

double BatchSession::handle_stream_job(const Job& job, std::ostream& out,
                                       BatchSummary& summary) {
  WallTimer timer;
  ++summary.jobs;
  ++summary.stream_jobs;
  try {
    if (job.kind == JobKind::kLoad) {
      auto it = streams_.find(job.graph);
      if (it == streams_.end()) {
        // The constructor validates the name (must not collide with a
        // family spec); a bad name rejects this line only.
        it = streams_
                 .emplace(job.graph, std::make_unique<stream::StreamSession>(
                                         job.graph, artifacts_))
                 .first;
      }
      const stream::PatchReport report = it->second->load(job.load_spec);
      ++summary.patches;
      write_stream_line(out, job.id, "load", report);
      ++summary.ok;
      return timer.seconds();
    }

    const auto it = streams_.find(job.graph);
    GIO_EXPECTS_MSG(it != streams_.end(),
                    "unknown stream graph '" + job.graph +
                        "' — load it first ({\"graph\": \"" + job.graph +
                        "\", \"load\": SPEC})");
    stream::StreamSession& session = *it->second;
    if (job.kind == JobKind::kPatch) {
      const stream::PatchReport report = session.apply(job.patch);
      ++summary.patches;
      summary.mutations += report.mutations;
      summary.dirty_components += report.dirty_components;
      summary.clean_components += report.clean_components;
      write_stream_line(out, job.id, "patch", report);
      ++summary.ok;
      return timer.seconds();
    }

    JobResult result;
    result.id = job.id;
    result.ok = true;
    if (store_ == nullptr) {
      result.report = session.evaluate(job.request);
    } else {
      // An evolving graph's durable identity is its *state*: the
      // order-independent component-multiset fingerprint the session
      // maintains incrementally. Keying rows by it means a graph that
      // reverts to a prior state (patch + inverse patch) re-keys to the
      // prior rows and hits the disk store — zero eigensolves even
      // though the dirty components' spectra were evicted in between.
      // The key is numbering-agnostic (isomorphic states share it), so
      // only isomorphism-invariant rows may live under it: memsim
      // simulates schedules that tie-break on vertex ids, and stays out.
      result.report = evaluate_with_store(
          *store_, session.fingerprint(), job.request, session.name(),
          session.num_vertices(), session.num_edges(),
          [&session](const engine::BoundRequest& sub) {
            return session.evaluate(sub);
          },
          &result.store_hits, &result.store_misses,
          [](std::string_view method) { return method != "memsim"; });
      summary.store_hits += result.store_hits;
      summary.store_misses += result.store_misses;
    }
    summary.cache += result.report.cache;
    // Stream records replay from the updates file (the mutations matter,
    // not just the final query), but the query itself is still recorded.
    result.report.provenance.request = request_to_json_line(job.request);
    if (provenance_ != nullptr) provenance_->append(result.report.provenance);
    write_result_line(out, result, explain_);
    if (report_degraded(result.report)) ++summary.degraded;
    ++summary.ok;
  } catch (const faults::FaultInjected& e) {
    // Injected mid-patch fault: the session already rolled the journal
    // back, so the graph is exactly its pre-patch state.
    write_reject_line(out, job.id, e.what(), e.kind(), e.site());
    ++summary.failed;
  } catch (const std::exception& e) {
    write_reject_line(out, job.id, e.what(), "error");
    ++summary.failed;
  }
  return timer.seconds();
}

BatchSummary BatchSession::run(std::istream& in, std::ostream& out) {
  return drive(in, out, /*interactive=*/false);
}

BatchSummary BatchSession::serve(std::istream& in, std::ostream& out) {
  return drive(in, out, /*interactive=*/true);
}

BatchSummary BatchSession::drive(std::istream& in, std::ostream& out,
                                 bool interactive) {
  BatchSummary summary;
  WallTimer timer;
  const telemetry::HistogramSnapshot latency_before =
      job_latency_histogram().snapshot();
  std::vector<double> latencies;
  const auto observe = [&](double seconds) {
    job_latency_histogram().observe(seconds);
    latencies.push_back(seconds);
  };
  // One bound job's result line and tallies. Batch mode calls this from
  // the scheduler, serialized by its result mutex.
  const auto record = [&](const JobResult& result) {
    if (result.ok && provenance_ != nullptr)
      provenance_->append(result.report.provenance);
    write_result_line(out, result, explain_);
    if (interactive) out.flush();
    observe(result.seconds);
    summary.retried += result.attempts - 1;
    if (result.quarantined) ++summary.quarantined;
    if (result.ok) {
      ++summary.ok;
      if (report_degraded(result.report)) ++summary.degraded;
    } else {
      ++summary.failed;
    }
    summary.store_hits += result.store_hits;
    summary.store_misses += result.store_misses;
  };
  engine::ArtifactCache::Stats before;
  if (interactive) before = scheduler_->engine_stats();

  // Rejected lines are reported as they are read (in line order). Stream
  // jobs are stateful, so they execute *during* ingest, in file order —
  // each stream query sees exactly the loads/patches above it. Batch mode
  // queues bound jobs and fans them out across workers below; serve mode
  // answers each on worker 0 before reading the next line. Job ids are
  // 1-based line numbers so the caller can join results back to the
  // jobs file.
  std::vector<Job> jobs;
  std::string line;
  std::int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;  // blank line
    if (line[start] == '#') continue;          // comment line
    Job job;
    try {
      job = job_from_json_line(line);
    } catch (const std::exception& e) {
      ++summary.rejected_lines;
      write_reject_line(out, line_no, e.what());
      if (interactive) out.flush();
      continue;
    }
    job.id = line_no;
    if (job.is_stream()) {
      observe(handle_stream_job(job, out, summary));
      if (interactive) out.flush();
    } else if (interactive) {
      ++summary.jobs;
      record(scheduler_->run_one(job));
    } else {
      jobs.push_back(std::move(job));
    }
  }

  // += : stream queries already contributed their engines' deltas.
  if (interactive) {
    summary.threads = 1;
    summary.cache += scheduler_->engine_stats() - before;
  } else {
    summary.jobs += static_cast<std::int64_t>(jobs.size());
    latencies.reserve(latencies.size() + jobs.size());
    const Scheduler::RunStats stats = scheduler_->run(std::move(jobs), record);
    summary.threads = stats.threads;
    summary.steals = stats.steals;
    summary.cache += stats.cache;
  }
  summary.seconds = timer.seconds();
  summary.throughput =
      summary.seconds > 0.0
          ? static_cast<double>(summary.ok + summary.failed) /
                summary.seconds
          : 0.0;
  summary.p50_seconds = percentile(latencies, 0.50);
  summary.p95_seconds = percentile(latencies, 0.95);
  summary.latency = job_latency_histogram().snapshot() - latency_before;
  summary.p99_seconds = summary.latency.percentile(0.99);
  sync_durable();
  return summary;
}

}  // namespace graphio::serve
