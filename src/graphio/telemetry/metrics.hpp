#pragma once

// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms, cheap enough to update from hot paths (single atomic op per
// event) and snapshottable to JSON at any time.
//
// The registry is the one source of truth for lifetime totals. The
// per-instance Stats structs (ArtifactCache, ArtifactStore, ResultStore,
// StreamSession, and the shared store::AppendLog behind every JSONL log)
// declare each field once with its registry name, and one bump call
// advances both (telemetry/stat_counters.hpp); the structs keep serving
// per-instance deltas. Registry values are monotone: they survive cache
// reinstalls and session restarts within the process.
//
// Telemetry is observe-only: nothing in here may influence results.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace graphio::telemetry {

// Monotone event counter.
class Counter {
 public:
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

// Last-value / accumulating double. `add` makes it usable for cumulative
// seconds (phase totals) as well as levels.
class Gauge {
 public:
  void set(double value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// Point-in-time copy of a histogram. Subtractable, so a caller can bracket
// a run with two snapshots and compute percentiles over just that run even
// though the underlying histogram is process-wide.
struct HistogramSnapshot {
  std::vector<double> bounds;        // upper bounds, ascending; +inf implied
  std::vector<std::int64_t> counts;  // bounds.size() + 1 (overflow last)
  std::int64_t count = 0;
  double sum = 0.0;

  // Linear interpolation inside the bucket containing rank p*count.
  // Exact for uniform-within-bucket data; for the overflow bucket the
  // last finite bound is returned (the upper edge is unknown).
  double percentile(double p) const;

  HistogramSnapshot operator-(const HistogramSnapshot& other) const;
  bool empty() const { return count == 0; }
};

// Fixed-bucket histogram with atomic bucket counts. Bucket bounds are set
// at construction and never change, so observe() is lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value) noexcept;
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::int64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Log-spaced 1-2-5 bounds in seconds, 1us .. 100s. Good resolution for
// latency distributions across six decades.
std::vector<double> default_latency_bounds();

// Named metric registry. Lookup takes a mutex; returned references are
// stable for the registry's lifetime, so hot paths resolve once and then
// touch only atomics.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // Creates with the given bounds on first use (default: latency bounds);
  // later calls return the existing histogram regardless of bounds.
  Histogram& histogram(std::string_view name, std::vector<double> bounds = {});

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  //  p50, p95, p99, buckets: [{le, count}, ...nonzero...]}}}
  std::string to_json() const;

  // Prometheus text exposition format: one family per metric under a
  // `graphio_` prefix with dots mapped to underscores — counters as
  // `_total`, gauges verbatim, histograms as *cumulative* `_bucket{le=}`
  // series ending at `+Inf`, plus `_sum`/`_count`.
  std::string to_prometheus() const;

  static MetricsRegistry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace graphio::telemetry
