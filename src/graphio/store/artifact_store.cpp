#include "graphio/store/artifact_store.hpp"

#include <iterator>
#include <ostream>
#include <string_view>

#include "graphio/engine/fingerprint.hpp"
#include "graphio/io/json.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/stat_counters.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::store {

namespace {

using KindStats = ArtifactStore::KindStats;
using KindCounters = telemetry::StatCounters<KindStats>;

// Registry totals of every ArtifactStore: per-kind hits/misses/evictions
// and the disk log's counts. Resolved together on first use, so the
// whole `store.*` group registers at once.
struct StoreCounters {
  KindCounters spectrum{"store.spectrum"};
  KindCounters topo{"store.topo"};
  KindCounters mincut{"store.mincut"};
  KindCounters memsim{"store.memsim"};
  KindCounters partition{"store.partition"};
  KindCounters eigenbasis{"store.eigenbasis"};
  AppendLog::Counters disk{"store.disk"};
};

const StoreCounters& store_counters() {
  static const StoreCounters counters;
  return counters;
}

const AppendLog::Names kLogNames{
    .file = "artifacts.jsonl",
    .noun = "artifact store",
    .fault_site = "store.disk.append",
    .disabled = "artifact store disk tier disabled",
    .consequence = "continuing memory-only",
    .replay_event = "store.replay",
};

// Marker event under the current span (a method or stream query span)
// when tracing is on — the hit/miss attribution per lookup the counters
// cannot give.
void trace_lookup(std::string_view kind, bool hit) {
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  if (!tracer.enabled()) return;
  tracer.instant(hit ? "store.hit" : "store.miss",
                 {telemetry::Attr::str("kind", kind)});
}

/// Counts one lookup of a kind as a hit or a miss.
void count_lookup(const KindCounters& counters, KindStats& stats,
                  std::string_view kind, bool hit) {
  if (hit)
    counters.bump<&KindStats::hits>(stats);
  else
    counters.bump<&KindStats::misses>(stats);
  trace_lookup(kind, hit);
}

std::string_view flow_name(flow::FlowEngine engine) {
  return engine == flow::FlowEngine::kDinic ? "dinic" : "push-relabel";
}

flow::FlowEngine flow_from(const std::string& s) {
  if (s == "dinic") return flow::FlowEngine::kDinic;
  if (s == "push-relabel") return flow::FlowEngine::kPushRelabel;
  GIO_EXPECTS_MSG(false, "unknown flow engine '" + s + "'");
  return flow::FlowEngine::kDinic;  // unreachable
}

la::SolverKind solver_from(const std::string& s) {
  if (s == "dense") return la::SolverKind::kDense;
  if (s == "lanczos") return la::SolverKind::kLanczos;
  if (s == "lobpcg") return la::SolverKind::kLobpcg;
  GIO_EXPECTS_MSG(false, "unknown solver kind '" + s + "'");
  return la::SolverKind::kDense;  // unreachable
}

std::string spectrum_line(std::uint64_t fp, LaplacianKind kind,
                          int requested, const std::string& options_key,
                          const ComponentSolve& solve) {
  io::JsonWriter w;
  w.begin_object();
  w.key("kind").value("spectrum");
  w.key("fp").value(engine::fingerprint_hex(fp));
  w.key("lap").value(to_string(kind));
  w.key("opts").value(options_key);
  w.key("requested").value(requested);
  w.key("vertices").value(solve.vertices);
  w.key("edges").value(solve.edges);
  w.key("solver").value(la::to_string(solve.solver));
  w.key("converged").value(solve.converged);
  // Provenance of the producing solve, written only when non-default so
  // pre-existing logs stay byte-compatible and replay stays cheap.
  if (solve.iterations != 0) w.key("iterations").value(solve.iterations);
  if (solve.warm_started) w.key("warm").value(true);
  if (solve.refresh) w.key("refresh").value(true);
  if (solve.max_residual != 0.0)
    w.key("residual").value(solve.max_residual);
  if (solve.warm_predecessor != 0)
    w.key("pred").value(engine::fingerprint_hex(solve.warm_predecessor));
  if (!solve.solver_reason.empty())
    w.key("reason").value(solve.solver_reason);
  w.key("values").begin_array();
  for (double v : solve.values) w.value(v);
  w.end_array();
  w.end_object();
  return w.str();
}

// ------------------------------------------------------ plain-kind codecs
//
// A codec names its kind and registry group, its key (content fingerprint
// first, then the kind's options), which values reach the disk tier, and
// the log fields after "kind" and "fp".

struct TopoCodec {
  static constexpr std::string_view name = "topo";
  static constexpr auto counters = &StoreCounters::topo;
  using Key = std::tuple<std::uint64_t>;
  using Value = TopoOrderArtifact;
  static bool persist(const Value&) { return true; }
  static void write(io::JsonWriter& w, const Key&, const Value& topo) {
    w.key("order").begin_array();
    for (VertexId v : topo.order) w.value(static_cast<std::int64_t>(v));
    w.end_array();
  }
  static std::pair<Key, Value> parse(const io::JsonValue& v,
                                     std::uint64_t fp) {
    Value topo;
    for (const io::JsonValue& item : v.at("order").items())
      topo.order.push_back(static_cast<VertexId>(item.as_int()));
    return {Key{fp}, std::move(topo)};
  }
};

struct MincutCodec {
  static constexpr std::string_view name = "mincut";
  static constexpr auto counters = &StoreCounters::mincut;
  using Key = std::tuple<std::uint64_t, flow::FlowEngine>;
  using Value = MincutSweepArtifact;
  /// A time-budget-cut sweep is a valid but degraded bound that must not
  /// be served forever.
  static bool persist(const Value& sweep) { return sweep.completed; }
  static void write(io::JsonWriter& w, const Key& key, const Value& sweep) {
    w.key("engine").value(flow_name(std::get<1>(key)));
    w.key("best_cut").value(sweep.best_cut);
    w.key("best_vertex").value(static_cast<std::int64_t>(sweep.best_vertex));
    w.key("vertices_processed").value(sweep.vertices_processed);
  }
  static std::pair<Key, Value> parse(const io::JsonValue& v,
                                     std::uint64_t fp) {
    Value sweep;
    sweep.best_cut = v.at("best_cut").as_int();
    sweep.best_vertex = static_cast<VertexId>(v.at("best_vertex").as_int());
    sweep.vertices_processed = v.at("vertices_processed").as_int();
    sweep.completed = true;  // only completed sweeps are persisted
    return {Key{fp, flow_from(v.at("engine").as_string())}, sweep};
  }
};

struct MemsimCodec {
  static constexpr std::string_view name = "memsim";
  static constexpr auto counters = &StoreCounters::memsim;
  using Key = std::tuple<std::uint64_t, std::int64_t, int>;
  using Value = MemsimRowArtifact;
  static bool persist(const Value&) { return true; }
  static void write(io::JsonWriter& w, const Key& key, const Value& row) {
    w.key("memory").value(std::get<1>(key));
    w.key("orders").value(std::get<2>(key));
    w.key("reads").value(row.reads);
    w.key("writes").value(row.writes);
  }
  static std::pair<Key, Value> parse(const io::JsonValue& v,
                                     std::uint64_t fp) {
    Value row;
    row.reads = v.at("reads").as_int();
    row.writes = v.at("writes").as_int();
    return {Key{fp, v.at("memory").as_int(),
                static_cast<int>(v.at("orders").as_int())},
            row};
  }
};

struct PartitionCodec {
  static constexpr std::string_view name = "partition";
  static constexpr auto counters = &StoreCounters::partition;
  using Key = std::tuple<std::uint64_t, double>;
  using Value = PartitionRowArtifact;
  static bool persist(const Value&) { return true; }
  static void write(io::JsonWriter& w, const Key& key, const Value& row) {
    w.key("memory").value(std::get<1>(key));
    w.key("objective").value(row.objective);
    w.key("segments").value(row.segments);
  }
  static std::pair<Key, Value> parse(const io::JsonValue& v,
                                     std::uint64_t fp) {
    Value row;
    row.objective = v.at("objective").as_double();
    row.segments = v.at("segments").as_int();
    return {Key{fp, v.at("memory").as_double()}, row};
  }
};

/// Key order with a fingerprint-only probe: a fingerprint's entries form
/// one contiguous range, found without naming the kind's options.
template <class Key>
struct ByFingerprint {
  using is_transparent = void;
  bool operator()(const Key& a, const Key& b) const { return a < b; }
  bool operator()(const Key& a, std::uint64_t fp) const {
    return std::get<0>(a) < fp;
  }
  bool operator()(std::uint64_t fp, const Key& b) const {
    return fp < std::get<0>(b);
  }
};

/// One plain kind's memory tier: lookup, insert, disk append, erase by
/// fingerprint, clear and compaction, with the hit/miss/entry/evict
/// accounting. Callers hold the store mutex.
template <class Codec>
class KindTable {
 public:
  using Key = typename Codec::Key;
  using Value = typename Codec::Value;
  static constexpr std::string_view name = Codec::name;

  std::optional<Value> lookup(const Key& key) {
    const auto it = entries_.find(key);
    const bool hit = it != entries_.end();
    count_lookup(counters(), stats_, Codec::name, hit);
    if (!hit) return std::nullopt;
    return it->second;
  }

  /// Inserts without counting hits/misses (first write wins); true when
  /// the key was new.
  bool put(const Key& key, const Value& value) {
    if (!entries_.emplace(key, value).second) return false;
    ++stats_.entries;
    return true;
  }

  /// put(), mirrored to the log when new and persistable.
  void store(const Key& key, const Value& value, AppendLog& log) {
    if (put(key, value) && log.durable() && Codec::persist(value))
      log.append(line(key, value));
  }

  void replay(const io::JsonValue& v, std::uint64_t fp) {
    const auto [key, value] = Codec::parse(v, fp);
    put(key, value);
  }

  std::int64_t erase(std::uint64_t fp) {
    const auto [first, last] = entries_.equal_range(fp);
    const auto n = static_cast<std::int64_t>(std::distance(first, last));
    if (n == 0) return 0;
    entries_.erase(first, last);
    stats_.entries -= n;
    counters().template bump<&KindStats::evicted>(stats_, n);
    return n;
  }

  void clear() {
    entries_.clear();
    stats_.entries = 0;
  }

  /// Writes every persistable entry's line; returns how many.
  std::int64_t write(std::ostream& out) const {
    std::int64_t written = 0;
    for (const auto& [key, value] : entries_) {
      if (!Codec::persist(value)) continue;
      out << line(key, value) << '\n';
      ++written;
    }
    return written;
  }

  [[nodiscard]] const KindStats& stats() const noexcept { return stats_; }

 private:
  static const KindCounters& counters() {
    return store_counters().*Codec::counters;
  }

  static std::string line(const Key& key, const Value& value) {
    io::JsonWriter w;
    w.begin_object();
    w.key("kind").value(Codec::name);
    w.key("fp").value(engine::fingerprint_hex(std::get<0>(key)));
    Codec::write(w, key, value);
    w.end_object();
    return w.str();
  }

  std::map<Key, Value, ByFingerprint<Key>> entries_;
  KindStats stats_;
};

}  // namespace

struct ArtifactStore::Tables {
  KindTable<TopoCodec> topo;
  KindTable<MincutCodec> mincut;
  KindTable<MemsimCodec> memsim;
  KindTable<PartitionCodec> partition;

  /// Applies `f` to every table, in log order.
  template <class F>
  void each(F&& f) {
    f(topo);
    f(mincut);
    f(memsim);
    f(partition);
  }
};

std::string ArtifactStore::spectral_options_key(
    const SpectralOptions& options) {
  // Exactly the fields of solver_options_equal, pipe-joined; the solver
  // policy names are identifiers, so '|' never collides.
  std::string out = std::to_string(static_cast<int>(options.backend));
  out += '|';
  out += options.solver;
  out += options.decompose ? "|1|" : "|0|";
  out += format_double_exact(options.eig_rel_tol);
  out += '|';
  out += format_double_exact(options.warm_refresh_rel_tol);
  out += '|';
  out += std::to_string(options.dense_threshold);
  out += '|';
  out += std::to_string(options.dense_rescue_threshold);
  out += '|';
  out += std::to_string(options.lanczos.block_size);
  out += '|';
  out += std::to_string(options.lanczos.max_basis);
  out += '|';
  out += std::to_string(options.lanczos.stall_basis_cap);
  out += '|';
  out += std::to_string(options.lanczos.max_cycles);
  return out;
}

ArtifactStore::ArtifactStore() : tables_(std::make_unique<Tables>()) {}

ArtifactStore::ArtifactStore(const std::filesystem::path& dir)
    : ArtifactStore() {
  log_ = AppendLog(
      dir, kLogNames,
      []() -> const AppendLog::Counters& { return store_counters().disk; },
      [this](const std::string& line) {
        replay_line_locked(line);
        return true;
      });
}

ArtifactStore::~ArtifactStore() = default;

void ArtifactStore::replay_line_locked(const std::string& line) {
  const io::JsonValue v = io::JsonValue::parse(line);
  const std::string& kind = v.at("kind").as_string();
  const std::uint64_t fp = engine::parse_fingerprint(v.at("fp").as_string());
  if (kind == "spectrum") {
    ComponentSolve solve;
    solve.vertices = v.at("vertices").as_int();
    solve.edges = v.at("edges").as_int();
    solve.solver = solver_from(v.at("solver").as_string());
    solve.converged = v.at("converged").as_bool();
    // Optional provenance keys (absent in logs written before they
    // existed — defaults are the cold-solve values).
    if (const io::JsonValue* it = v.get("iterations"))
      solve.iterations = static_cast<int>(it->as_int());
    if (const io::JsonValue* warm = v.get("warm"))
      solve.warm_started = warm->as_bool();
    if (const io::JsonValue* refresh = v.get("refresh"))
      solve.refresh = refresh->as_bool();
    if (const io::JsonValue* residual = v.get("residual"))
      solve.max_residual = residual->as_double();
    if (const io::JsonValue* pred = v.get("pred"))
      solve.warm_predecessor = engine::parse_fingerprint(pred->as_string());
    if (const io::JsonValue* reason = v.get("reason"))
      solve.solver_reason = reason->as_string();
    solve.from_disk = true;  // this entry's values crossed a process restart
    for (const io::JsonValue& item : v.at("values").items())
      solve.values.push_back(item.as_double());
    put_spectrum_locked(fp, laplacian_kind_from(v.at("lap").as_string()),
                        static_cast<int>(v.at("requested").as_int()),
                        v.at("opts").as_string(), solve);
    return;
  }
  bool known = false;
  tables_->each([&](auto& table) {
    if (known || kind != table.name) return;
    table.replay(v, fp);
    known = true;
  });
  GIO_EXPECTS_MSG(known, "unknown artifact kind '" + kind + "'");
}

// ------------------------------------------------------------- spectrum

std::optional<ComponentSolve> ArtifactStore::lookup_spectrum(
    std::uint64_t fingerprint, LaplacianKind kind, int count,
    const SpectralOptions& options) {
  const std::string key = spectral_options_key(options);
  const std::scoped_lock lock(mutex_);
  const auto it = spectra_.find({fingerprint, kind});
  if (it != spectra_.end()) {
    for (const SpectrumEntry& entry : it->second) {
      if (entry.requested < count || entry.options_key != key) continue;
      count_lookup(store_counters().spectrum, stats_.spectrum, "spectrum",
                   true);
      ComponentSolve solve = entry.solve;
      // Truncate to the request (values are ascending, so the prefix IS
      // the smallest `count`) — equal-count requests then see one
      // deterministic answer regardless of population order.
      if (static_cast<int>(solve.values.size()) > count)
        solve.values.resize(static_cast<std::size_t>(count));
      solve.from_cache = true;
      solve.solver_ran = false;  // this call ran no eigensolver
      solve.seconds = 0.0;
      return solve;
    }
  }
  count_lookup(store_counters().spectrum, stats_.spectrum, "spectrum", false);
  return std::nullopt;
}

bool ArtifactStore::put_spectrum_locked(std::uint64_t fingerprint,
                                        LaplacianKind kind, int requested,
                                        const std::string& options_key,
                                        const ComponentSolve& solve) {
  std::vector<SpectrumEntry>& slots = spectra_[{fingerprint, kind}];
  for (SpectrumEntry& entry : slots) {
    if (entry.options_key != options_key) continue;
    // Two workers can race to solve the same component; keep the entry
    // that answers more future requests (ties keep the existing one).
    if (entry.requested >= requested) return false;
    entry.solve = solve;
    entry.solve.from_cache = false;
    entry.requested = requested;
    return true;
  }
  SpectrumEntry entry;
  entry.options_key = options_key;
  entry.requested = requested;
  entry.solve = solve;
  entry.solve.from_cache = false;
  slots.push_back(std::move(entry));
  ++stats_.spectrum.entries;
  return true;
}

void ArtifactStore::store_spectrum(std::uint64_t fingerprint,
                                   LaplacianKind kind, int requested,
                                   const SpectralOptions& options,
                                   const ComponentSolve& solve) {
  const std::string key = spectral_options_key(options);
  const std::scoped_lock lock(mutex_);
  if (!put_spectrum_locked(fingerprint, kind, requested, key, solve)) return;
  if (durable() && solve.converged)
    log_.append(spectrum_line(fingerprint, kind, requested, key, solve));
}

// ---------------------------------------------------------- plain kinds

std::optional<TopoOrderArtifact> ArtifactStore::lookup_topo(
    std::uint64_t fingerprint) {
  const std::scoped_lock lock(mutex_);
  return tables_->topo.lookup({fingerprint});
}

void ArtifactStore::store_topo(std::uint64_t fingerprint,
                               const TopoOrderArtifact& topo) {
  const std::scoped_lock lock(mutex_);
  tables_->topo.store({fingerprint}, topo, log_);
}

std::optional<MincutSweepArtifact> ArtifactStore::lookup_mincut(
    std::uint64_t fingerprint, flow::FlowEngine engine) {
  const std::scoped_lock lock(mutex_);
  return tables_->mincut.lookup({fingerprint, engine});
}

void ArtifactStore::store_mincut(std::uint64_t fingerprint,
                                 flow::FlowEngine engine,
                                 const MincutSweepArtifact& sweep) {
  const std::scoped_lock lock(mutex_);
  tables_->mincut.store({fingerprint, engine}, sweep, log_);
}

std::optional<MemsimRowArtifact> ArtifactStore::lookup_memsim(
    std::uint64_t fingerprint, std::int64_t memory, int random_orders) {
  const std::scoped_lock lock(mutex_);
  return tables_->memsim.lookup({fingerprint, memory, random_orders});
}

void ArtifactStore::store_memsim(std::uint64_t fingerprint,
                                 std::int64_t memory, int random_orders,
                                 const MemsimRowArtifact& row) {
  const std::scoped_lock lock(mutex_);
  tables_->memsim.store({fingerprint, memory, random_orders}, row, log_);
}

std::optional<PartitionRowArtifact> ArtifactStore::lookup_partition(
    std::uint64_t fingerprint, double memory) {
  const std::scoped_lock lock(mutex_);
  return tables_->partition.lookup({fingerprint, memory});
}

void ArtifactStore::store_partition(std::uint64_t fingerprint, double memory,
                                    const PartitionRowArtifact& row) {
  const std::scoped_lock lock(mutex_);
  tables_->partition.store({fingerprint, memory}, row, log_);
}

// ----------------------------------------------------------- eigenbasis

std::optional<Eigenbasis> ArtifactStore::lookup_eigenbasis(
    std::uint64_t fingerprint, LaplacianKind kind) {
  const std::scoped_lock lock(mutex_);
  if (basis_budget_ > 0) {
    const auto it = bases_.find({fingerprint, kind});
    if (it != bases_.end()) {
      it->second.last_used = ++basis_tick_;
      count_lookup(store_counters().eigenbasis, stats_.eigenbasis,
                   "eigenbasis", true);
      return it->second.basis;
    }
  }
  count_lookup(store_counters().eigenbasis, stats_.eigenbasis, "eigenbasis",
               false);
  return std::nullopt;
}

void ArtifactStore::store_eigenbasis(std::uint64_t fingerprint,
                                     LaplacianKind kind, Eigenbasis basis) {
  const std::scoped_lock lock(mutex_);
  if (basis_budget_ <= 0) return;  // tier off: drop on the floor
  const auto bytes = static_cast<std::int64_t>(basis.bytes());
  auto [it, inserted] = bases_.try_emplace({fingerprint, kind});
  if (!inserted) basis_bytes_ -= static_cast<std::int64_t>(it->second.bytes);
  else ++stats_.eigenbasis.entries;
  it->second.basis = std::move(basis);
  it->second.bytes = static_cast<std::size_t>(bytes);
  it->second.last_used = ++basis_tick_;
  basis_bytes_ += bytes;
  evict_eigenbases_locked();
}

void ArtifactStore::adopt_eigenbasis(std::uint64_t from, std::uint64_t to) {
  const std::scoped_lock lock(mutex_);
  if (from == to || bases_.empty()) return;
  auto it = bases_.lower_bound({from, LaplacianKind{}});
  while (it != bases_.end() && it->first.first == from) {
    BasisEntry entry = std::move(it->second);
    const LaplacianKind kind = it->first.second;
    it = bases_.erase(it);
    entry.basis.predecessor = from;
    auto [slot, inserted] = bases_.try_emplace({to, kind});
    if (!inserted) {
      // The successor already has its own basis — keep it, drop ours.
      basis_bytes_ -= static_cast<std::int64_t>(entry.bytes);
      --stats_.eigenbasis.entries;
      continue;
    }
    slot->second = std::move(entry);
  }
}

void ArtifactStore::evict_eigenbases_locked() {
  while (basis_bytes_ > basis_budget_ && !bases_.empty()) {
    auto victim = bases_.begin();
    for (auto it = bases_.begin(); it != bases_.end(); ++it)
      if (it->second.last_used < victim->second.last_used) victim = it;
    basis_bytes_ -= static_cast<std::int64_t>(victim->second.bytes);
    bases_.erase(victim);
    --stats_.eigenbasis.entries;
    store_counters().eigenbasis.bump<&KindStats::evicted>(stats_.eigenbasis);
  }
}

void ArtifactStore::set_eigenbasis_budget(std::int64_t bytes) {
  const std::scoped_lock lock(mutex_);
  basis_budget_ = bytes < 0 ? 0 : bytes;
  if (basis_budget_ == 0) {
    stats_.eigenbasis.entries -= static_cast<std::int64_t>(bases_.size());
    bases_.clear();
    basis_bytes_ = 0;
  } else {
    evict_eigenbases_locked();
  }
}

std::int64_t ArtifactStore::eigenbasis_budget() const {
  const std::scoped_lock lock(mutex_);
  return basis_budget_;
}

std::int64_t ArtifactStore::eigenbasis_bytes() const {
  const std::scoped_lock lock(mutex_);
  return basis_bytes_;
}

// ------------------------------------------------------------- lifetime

std::int64_t ArtifactStore::erase(std::uint64_t fingerprint) {
  const std::scoped_lock lock(mutex_);
  std::int64_t removed = 0;
  // Each map's keys sort by fingerprint first, so a fingerprint's entries
  // form one contiguous range starting at the smallest secondary key.
  {
    auto it = spectra_.lower_bound({fingerprint, LaplacianKind{}});
    while (it != spectra_.end() && it->first.first == fingerprint) {
      const auto n = static_cast<std::int64_t>(it->second.size());
      stats_.spectrum.entries -= n;
      store_counters().spectrum.bump<&KindStats::evicted>(stats_.spectrum, n);
      removed += n;
      it = spectra_.erase(it);
    }
  }
  tables_->each([&](auto& table) { removed += table.erase(fingerprint); });
  {
    auto it = bases_.lower_bound({fingerprint, LaplacianKind{}});
    while (it != bases_.end() && it->first.first == fingerprint) {
      basis_bytes_ -= static_cast<std::int64_t>(it->second.bytes);
      --stats_.eigenbasis.entries;
      store_counters().eigenbasis.bump<&KindStats::evicted>(stats_.eigenbasis);
      ++removed;
      it = bases_.erase(it);
    }
  }
  return removed;
}

void ArtifactStore::clear() {
  const std::scoped_lock lock(mutex_);
  spectra_.clear();
  tables_->each([](auto& table) { table.clear(); });
  bases_.clear();
  basis_bytes_ = 0;
  stats_.spectrum.entries = 0;
  stats_.eigenbasis.entries = 0;
}

std::int64_t ArtifactStore::compact() {
  const std::scoped_lock lock(mutex_);
  return log_.rewrite("store.disk.compact", [this](std::ostream& out) {
    std::int64_t written = 0;
    for (const auto& [key, slots] : spectra_)
      for (const SpectrumEntry& entry : slots) {
        if (!entry.solve.converged) continue;  // never persisted
        out << spectrum_line(key.first, key.second, entry.requested,
                             entry.options_key, entry.solve)
            << '\n';
        ++written;
      }
    tables_->each([&](const auto& table) { written += table.write(out); });
    return written;
  });
}

void ArtifactStore::sync() {
  const std::scoped_lock lock(mutex_);
  log_.sync();
}

ArtifactStore::Stats ArtifactStore::stats() const {
  const std::scoped_lock lock(mutex_);
  Stats out = stats_;
  out.topo = tables_->topo.stats();
  out.mincut = tables_->mincut.stats();
  out.memsim = tables_->memsim.stats();
  out.partition = tables_->partition.stats();
  const AppendLog::Stats& disk = log_.stats();
  out.loaded = disk.loaded;
  out.corrupt = disk.corrupt;
  out.appended = disk.appended;
  out.demoted = disk.demoted;
  out.eigenbasis_bytes = basis_bytes_;
  return out;
}

}  // namespace graphio::store
