// Content fingerprints for computation graphs.
//
// The serve subsystem's persistent ResultStore keys results by *what was
// analyzed*, not by how the request named it: "fft:5", a copy of the same
// graph loaded from an edgelist file, and an equal DOT file all hash to
// the same fingerprint, so a warm store serves them all from disk. The
// hash covers exactly the structure the bounds depend on — vertex count
// and the full adjacency (with edge multiplicity) — and deliberately
// ignores vertex names, which never influence any bound.
#pragma once

#include <cstdint>
#include <string>

#include "graphio/graph/components.hpp"
#include "graphio/graph/digraph.hpp"

namespace graphio::engine {

/// The FNV-1a primitive behind every fingerprint in the library: seed
/// with fnv64_begin(), then fold 64-bit words with fnv64_mix. Exposed so
/// derived fingerprints (the stream session's component-multiset hash)
/// stay on the same scheme as graph_fingerprint.
[[nodiscard]] constexpr std::uint64_t fnv64_begin() noexcept {
  return 1469598103934665603ULL;
}
[[nodiscard]] constexpr std::uint64_t fnv64_mix(std::uint64_t h,
                                                std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (value >> (8 * byte)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

/// 64-bit FNV-1a over (n, adjacency lists in vertex order). Stable across
/// platforms and process runs; identical graphs always collide, distinct
/// graphs collide with probability ~2^-64.
[[nodiscard]] std::uint64_t graph_fingerprint(const Digraph& g) noexcept;

/// graph_fingerprint of WeakComponents::subgraph(g, c), computed in place
/// — bit-identical to hashing the extracted subgraph, without building
/// it. Sound because weak components are edge-closed (every edge of a
/// member vertex stays inside the component) and extraction maps member
/// vertices to local ids in ascending order. This is what lets the
/// fingerprint-first query path look a component up before — usually
/// instead of — materializing it.
[[nodiscard]] std::uint64_t subgraph_fingerprint(const Digraph& g,
                                                 const WeakComponents& wc,
                                                 int c) noexcept;

/// Fixed-width lowercase hex rendering ("00af3b…", 16 chars) — the form
/// used in result-store keys and JSONL records.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// The inverse of fingerprint_hex; throws contract_error on anything but
/// 16 hex digits.
[[nodiscard]] std::uint64_t parse_fingerprint(const std::string& hex);

}  // namespace graphio::engine
