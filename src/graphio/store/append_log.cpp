#include "graphio/store/append_log.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <type_traits>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "graphio/faults/fault_injection.hpp"
#include "graphio/support/contracts.hpp"
#include "graphio/telemetry/trace.hpp"

namespace graphio::store {

namespace {

// An ofstream flush() only hands data to the OS; this pushes it to stable
// storage. It opens a fresh descriptor — fsync flushes every dirty page of
// the file, whichever descriptor wrote it — so the log keeps its buffered
// stream. Best effort, and a no-op on platforms without fsync.
void fsync_at(const std::filesystem::path& path, bool directory) {
#if !defined(_WIN32)
  const int fd = ::open(path.c_str(), O_RDONLY | (directory ? O_DIRECTORY : 0));
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
  (void)directory;
#endif
}

}  // namespace

std::string format_double_exact(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, 17);
  GIO_ASSERT(ec == std::errc());
  return std::string(buf, static_cast<std::size_t>(end - buf));
}

template <auto Member>
void AppendLog::count(std::int64_t n) {
  if (counters_ != nullptr) {
    counters_().bump<Member>(stats_, n);
  } else if constexpr (std::is_same_v<decltype(Member), bool Stats::*>) {
    stats_.*Member = true;
  } else {
    stats_.*Member += n;
  }
}

AppendLog::AppendLog(const std::filesystem::path& dir, const Names& names,
                     CountersFn counters, const ReplayFn& replay)
    : names_(names), counters_(counters) {
  const std::string noun(names_.noun);
  // create_directories is not required to report a pre-existing
  // non-directory on every implementation, so check both ways.
  GIO_EXPECTS_MSG(!dir.empty(), noun + " directory must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  GIO_EXPECTS_MSG(!ec, "cannot create " + noun + " directory '" +
                           dir.string() + "': " + ec.message());
  GIO_EXPECTS_MSG(std::filesystem::is_directory(dir, ec) && !ec,
                  noun + " path '" + dir.string() + "' is not a directory");
  path_ = dir / names_.file;

  if (replay && std::filesystem::exists(path_)) {
    std::ifstream in(path_);
    GIO_EXPECTS_MSG(in.good(),
                    "cannot read " + noun + " log '" + path_.string() + "'");
    Stats replayed;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      try {
        if (replay(line)) ++replayed.loaded;
      } catch (const std::exception&) {
        ++replayed.corrupt;  // torn/garbage line; keep replaying
      }
    }
    count<&Stats::loaded>(replayed.loaded);
    count<&Stats::corrupt>(replayed.corrupt);
    telemetry::Tracer& tracer = telemetry::Tracer::global();
    if (!names_.replay_event.empty() && tracer.enabled()) {
      tracer.instant(names_.replay_event,
                     {telemetry::Attr::integer("loaded", stats_.loaded),
                      telemetry::Attr::integer("corrupt", stats_.corrupt)});
    }
  }

  out_.open(path_, std::ios::app);
  GIO_EXPECTS_MSG(out_.good(), "cannot append to " + noun + " log '" +
                                   path_.string() + "'");
}

void AppendLog::append(std::string_view line) {
  if (!durable()) return;
  try {
    faults::inject(names_.fault_site);
    out_ << line << '\n';
    out_.flush();
    // A failed flush (ENOSPC, short write) sets badbit; the line may be
    // torn on disk, which replay tolerates. Never keep writing into a
    // failed stream — that is how logs corrupt.
    if (!out_.good())
      throw std::runtime_error("write failed on '" + path_.string() + "'");
    count<&Stats::appended>();
  } catch (const std::exception& e) {
    demote(e.what());
  }
}

void AppendLog::demote(const std::string& why) {
  count<&Stats::demoted>();
  if (names_.on_demote != nullptr) names_.on_demote();
  out_.close();
  std::fprintf(stderr, "graphio: %.*s (%s); %.*s\n",
               static_cast<int>(names_.disabled.size()),
               names_.disabled.data(), why.c_str(),
               static_cast<int>(names_.consequence.size()),
               names_.consequence.data());
}

void AppendLog::sync() {
  if (!durable()) return;
  out_.flush();
  if (!out_.good()) {
    demote("flush failed on '" + path_.string() + "'");
    return;
  }
  fsync_at(path_, false);
}

std::int64_t AppendLog::rewrite(
    std::string_view fault_site,
    const std::function<std::int64_t(std::ostream&)>& write) {
  const std::string noun(names_.noun);
  GIO_EXPECTS_MSG(durable(), noun + " has no disk tier to compact");
  std::filesystem::path tmp = path_;
  tmp += ".tmp";
  std::int64_t written = 0;
  {
    std::ofstream out(tmp, std::ios::trunc);
    GIO_EXPECTS_MSG(out.good(), "cannot write compacted " + noun + " log '" +
                                    tmp.string() + "'");
    written = write(out);
    out.flush();
    GIO_EXPECTS_MSG(out.good(), "error writing compacted " + noun + " log '" +
                                    tmp.string() + "'");
  }
  out_.close();
  std::error_code ec;
  const bool injected = faults::trip(fault_site);
  if (!injected) std::filesystem::rename(tmp, path_, ec);
  if (injected || ec) {
    // The original log is untouched by a failed rename: drop the stale
    // .tmp, resume appending to the original, and surface the failure.
    std::error_code rm;
    std::filesystem::remove(tmp, rm);
    out_.open(path_, std::ios::app);
    if (injected)
      throw faults::FaultInjected(std::string(fault_site), "io", false);
    GIO_EXPECTS_MSG(false, "cannot replace " + noun + " log '" +
                               path_.string() + "': " + ec.message());
  }
  // Make the rename itself durable: without a directory fsync a crash can
  // resurface the old inode — or nothing at all.
  fsync_at(path_, false);
  fsync_at(path_.parent_path(), true);
  out_.open(path_, std::ios::app);
  GIO_EXPECTS_MSG(out_.good(), "cannot reopen " + noun + " log '" +
                                   path_.string() + "'");
  return written;
}

}  // namespace graphio::store
