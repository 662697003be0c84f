#pragma once

// One declaration per counter. A per-instance Stats struct lists each of
// its fields once, with its name, in a `static constexpr auto fields()`
// tuple of StatField. StatCounters<Stats>("cache") resolves the registry
// metric "cache.<name>" of every registry field — a Counter for integer
// and flag fields, a Gauge for seconds — and bump<&Stats::hits>() advances
// the instance field and its registry metric in one call, so the two
// cannot drift apart. The same table generates field-wise sums,
// differences and the JSON of the integer fields.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "graphio/io/json.hpp"
#include "graphio/telemetry/metrics.hpp"

namespace graphio::telemetry {

/// One field of a Stats struct. `registry` fields total into the
/// process-wide metric "<prefix>.<name>"; the rest are per-instance only.
template <class S, class T>
struct StatField {
  T S::*member;
  std::string_view name;
  bool registry = true;
};
template <class S, class T, class... Rest>
StatField(T S::*, Rest...) -> StatField<S, T>;

namespace detail {

template <class A, class B>
constexpr bool same_member(A a, B b) {
  if constexpr (std::is_same_v<A, B>) return a == b;
  return false;
}

/// Position of `Member` in S::fields() (the field count when absent).
template <class S, auto Member>
consteval std::size_t field_index() {
  std::size_t i = 0;
  std::size_t found = std::tuple_size_v<decltype(S::fields())>;
  std::apply(
      [&](const auto&... f) {
        ((found = same_member(f.member, Member) ? i : found, ++i), ...);
      },
      S::fields());
  return found;
}

}  // namespace detail

template <class S>
class StatCounters {
 public:
  /// Resolves every registry field's metric now, so a group of counters
  /// appears in the registry together on first use.
  explicit StatCounters(std::string_view prefix) {
    MetricsRegistry& registry = MetricsRegistry::global();
    std::size_t i = 0;
    std::apply(
        [&](const auto&... f) { (resolve(registry, prefix, f, i++), ...); },
        S::fields());
  }

  /// Adds `n` to `stats.*Member` and to its registry metric. A flag field
  /// is set instead, and its counter counts the setting.
  template <auto Member, class N = std::int64_t>
  void bump(S& stats, N n = 1) const {
    constexpr std::size_t i = detail::field_index<S, Member>();
    static_assert(i < kFields, "field not in S::fields()");
    using T = std::remove_reference_t<decltype(stats.*Member)>;
    if constexpr (std::is_same_v<T, bool>) {
      stats.*Member = true;
      if (counters_[i] != nullptr) counters_[i]->increment();
    } else if constexpr (std::is_floating_point_v<T>) {
      stats.*Member += n;
      if (gauges_[i] != nullptr) gauges_[i]->add(n);
    } else {
      stats.*Member += n;
      if (counters_[i] != nullptr) counters_[i]->add(n);
    }
  }

 private:
  static constexpr std::size_t kFields =
      std::tuple_size_v<decltype(S::fields())>;

  template <class T>
  void resolve(MetricsRegistry& registry, std::string_view prefix,
               const StatField<S, T>& field, std::size_t i) {
    if (!field.registry) return;
    const std::string name =
        std::string(prefix) + "." + std::string(field.name);
    if constexpr (std::is_floating_point_v<T>)
      gauges_[i] = &registry.gauge(name);
    else
      counters_[i] = &registry.counter(name);
  }

  std::array<Counter*, kFields> counters_{};
  std::array<Gauge*, kFields> gauges_{};
};

/// into.x += from.x for every field.
template <class S>
void add_fields(S& into, const S& from) noexcept {
  std::apply([&](const auto&... f) { ((into.*f.member += from.*f.member), ...); },
             S::fields());
}

/// into.x -= from.x for every field.
template <class S>
void subtract_fields(S& into, const S& from) noexcept {
  std::apply([&](const auto&... f) { ((into.*f.member -= from.*f.member), ...); },
             S::fields());
}

/// Writes `"name": value` for every integer field, in declaration order.
template <class S>
void write_counts(io::JsonWriter& w, const S& stats) {
  std::apply(
      [&](const auto&... f) {
        ((std::is_same_v<std::remove_cvref_t<decltype(stats.*f.member)>,
                         std::int64_t>
              ? void(w.key(f.name).value(
                    static_cast<std::int64_t>(stats.*f.member)))
              : void()),
         ...);
      },
      S::fields());
}

}  // namespace graphio::telemetry
