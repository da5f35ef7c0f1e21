// Inline replacement-policy kernels and the raw-state view the cache's
// devirtualized fast path dispatches over.
//
// Each policy's touch/fill/victim logic is defined exactly once, here, as an
// inline function over raw metadata arrays.  The virtual Replacement classes
// (replacement.cc) are thin adapters calling these kernels on their own
// storage, and Cache::access dispatches to the same kernels through a
// ReplacementFast view - so the two paths share state AND code and cannot
// diverge, while the hot path pays a predictable switch instead of a
// virtual call per touch/victim.
#pragma once

#include <cstddef>
#include <cstdint>

#include "rng/rng.h"

namespace tsc::cache {

/// Kinds for configuration.
enum class ReplacementKind { kLru, kFifo, kRandom, kPlru, kNmru };

/// Raw view of one policy instance's per-set metadata.  The pointers alias
/// the owning Replacement object's storage (stable: policies allocate once
/// at construction and never reallocate), so interleaving fast-path and
/// virtual-path calls is safe.
struct ReplacementFast {
  ReplacementKind kind = ReplacementKind::kLru;
  std::uint8_t* meta8 = nullptr;    ///< LRU recency ranks / PLRU tree nodes
  std::uint32_t* meta32 = nullptr;  ///< FIFO cursor / NMRU MRU way, per set
  rng::Rng* rng = nullptr;          ///< kRandom / kNmru draws
  /// Non-null when `rng` is exactly an XorShift64Star (the simulator's
  /// default): the final class devirtualizes and inlines the draw on the
  /// fast path.  Same generator object, same sequence.
  rng::XorShift64Star* xorshift = nullptr;
  std::uint32_t ways = 0;
};

/// Draw next_below(bound) from the policy's generator, devirtualized when
/// the concrete type is known.
[[nodiscard]] inline std::uint64_t repl_draw(const ReplacementFast& f,
                                             std::uint64_t bound) {
  if (f.xorshift != nullptr) return f.xorshift->next_below(bound);
  return f.rng->next_below(bound);
}

namespace repl_ops {

// --- LRU: per-set recency ranks (rank 0 = most recent) ----------------------

inline void lru_touch(std::uint8_t* rank, std::uint32_t ways,
                      std::uint32_t way) {
  const std::uint8_t old = rank[way];
  for (std::uint32_t w = 0; w < ways; ++w) {
    if (rank[w] < old) ++rank[w];
  }
  rank[way] = 0;
}

[[nodiscard]] inline std::uint32_t lru_victim(const std::uint8_t* rank,
                                              std::uint32_t ways) {
  std::uint32_t v = 0;
  for (std::uint32_t w = 1; w < ways; ++w) {
    if (rank[w] > rank[v]) v = w;
  }
  return v;
}

// --- Tree PLRU: binary decision tree per set (pow2 ways) --------------------

inline void plru_touch(std::uint8_t* tree, std::uint32_t ways,
                       std::uint32_t way) {
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = ways;
  // Walk root->leaf, pointing each node *away* from the touched way.
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool went_right = way >= mid;
    tree[node] = went_right ? 0 : 1;  // 0 = next victim on the left
    node = 2 * node + (went_right ? 2 : 1);
    if (went_right) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
}

[[nodiscard]] inline std::uint32_t plru_victim(const std::uint8_t* tree,
                                               std::uint32_t ways) {
  std::uint32_t node = 0;
  std::uint32_t lo = 0;
  std::uint32_t hi = ways;
  while (hi - lo > 1) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const bool go_left = tree[node] == 0;
    node = 2 * node + (go_left ? 1 : 2);
    if (go_left) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

// --- NMRU: random victim excluding the MRU way ------------------------------

[[nodiscard]] inline std::uint32_t nmru_victim(std::uint32_t mru,
                                               std::uint32_t ways,
                                               const ReplacementFast& f) {
  if (ways == 1) return 0;
  const auto pick = static_cast<std::uint32_t>(repl_draw(f, ways - 1));
  return pick >= mru ? pick + 1 : pick;
}

}  // namespace repl_ops

/// The replacement touch of a hit on (set, way): the one definition of
/// what a hit does to each policy's metadata.  With the policy kind and,
/// when WAYS > 0, the way count known at compile time (the specialized
/// access path), the kernels inline and their loops unroll.
template <ReplacementKind RK, int WAYS>
inline void repl_touch(const ReplacementFast& f, std::uint32_t set,
                       std::uint32_t way) {
  const std::uint32_t ways = WAYS > 0 ? WAYS : f.ways;
  if constexpr (RK == ReplacementKind::kLru) {
    repl_ops::lru_touch(f.meta8 + std::size_t{set} * ways, ways, way);
  } else if constexpr (RK == ReplacementKind::kPlru) {
    repl_ops::plru_touch(f.meta8 + std::size_t{set} * (ways - 1), ways, way);
  } else if constexpr (RK == ReplacementKind::kNmru) {
    f.meta32[set] = way;
  }
  // kFifo / kRandom: hits do not reorder.
}

/// The same touch with the policy kind dispatched at run time (the latch's
/// hits).  The way count stays a run-time value: unrolling the 4-way
/// kernels here too bloats every inlined fetch-latch hit and slows the
/// interpreter's fetch loop by about a sixth.
inline void repl_touch(const ReplacementFast& f, std::uint32_t set,
                       std::uint32_t way) {
  switch (f.kind) {
    case ReplacementKind::kLru:
      repl_touch<ReplacementKind::kLru, 0>(f, set, way);
      break;
    case ReplacementKind::kPlru:
      repl_touch<ReplacementKind::kPlru, 0>(f, set, way);
      break;
    case ReplacementKind::kNmru:
      repl_touch<ReplacementKind::kNmru, 0>(f, set, way);
      break;
    case ReplacementKind::kFifo:
    case ReplacementKind::kRandom:
      break;
  }
}

}  // namespace tsc::cache
