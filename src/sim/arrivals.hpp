#pragma once

/// \file arrivals.hpp
/// Pre-drawn arrival streams (serving/tenant_sim, sim/continuum). Each
/// source (a tenant, an edge node) draws from its own splitmix-salted
/// stream, so its draws do not depend on the number or order of sources;
/// the merged stream is sorted stably by (t, id).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace harvest::sim {

struct Arrival {
  double t = 0.0;
  std::uint32_t id = 0;  ///< the source that emitted it
};

/// The RNG of source `id` under `seed`.
inline core::Rng stream_rng(std::uint64_t seed, std::uint64_t id) {
  return core::Rng(core::splitmix64(seed ^ (0x9e3779b97f4a7c15ULL + id)));
}

/// Merge order: by time, then by source id.
inline void sort_arrivals(std::vector<Arrival>& arrivals) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) {
                     if (x.t != y.t) return x.t < y.t;
                     return x.id < y.id;
                   });
}

}  // namespace harvest::sim
