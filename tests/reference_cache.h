// A deliberately naive, policy-faithful reference model of the cache - the
// differential oracle for the optimized hierarchy.
//
// The production Cache (src/cache/cache.h) earns its speed from specialized
// (mapping x replacement x way-count) access templates, SoA line storage,
// resolved mapping contexts, SWAR/SSE scans and fused replacement updates.
// Every one of those optimizations is a chance for a silent semantic drift
// that per-case unit tests would miss.  This model is the opposite design
// on purpose:
//
//   * line state is a std::map of sets to plain Entry structs (no packing,
//     no SoA, no SIMD);
//   * set indices come from the VIRTUAL mapper path (IndexMapper::map ->
//     Placement::set_index), which tests/fastpath_test.cc pins against
//     independently restated placement formulas - so oracle and fast path
//     share no resolved-context machinery;
//   * replacement policies are re-implemented naively from their
//     definitions (LRU as monotonic age stamps, PLRU as an explicit
//     midpoint-interval tree walk, FIFO as a cursor, NMRU per its two-line
//     definition);
//   * the RPCache secure-contention rule, way partitions with their
//     shared round-robin cursors, write-back/write-allocate variants and
//     flush bookkeeping follow the documented semantics line by line;
//   * the random-fill path (Random-and-Safe / Liu & Lee) and the
//     ClepsydraCache TTL mechanism (per-line lifetimes, lazy expiry of the
//     probed set, refresh on hit) are restated from their documented
//     semantics, consuming rng draws at exactly the production points: the
//     random neighbour line before any victim draw, the TTL draw after the
//     fill's victim/contention draws.
//
// Random decisions (random replacement, NMRU, contention evictions,
// random-fill targets, TTL lifetimes) draw from an Rng the caller
// supplies; feeding the reference and the production cache generators
// seeded identically replays the exact decision sequence, so the
// comparison is exact equality of every AccessResult field and of the
// final statistics - not a statistical similarity.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cache/builder.h"
#include "cache/mapper.h"
#include "cache/placement.h"
#include "rng/rng.h"

namespace tsc::cache {

class ReferenceCache {
 public:
  /// Mirrors cache::AccessResult field for field.
  struct Result {
    bool hit = false;
    bool writeback = false;
    bool allocated = true;
    bool evicted = false;
    std::uint32_t set = 0;
    Addr evicted_line = 0;
  };

  /// Mirrors the cache::CacheStats counters the model maintains.
  struct Stats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t contention_evictions = 0;
    std::uint64_t ttl_expirations = 0;
    std::uint64_t flushes = 0;
    std::uint64_t flushed_lines = 0;
    std::uint64_t line_flushes = 0;
    std::uint64_t line_flush_hits = 0;
  };

  ReferenceCache(const CacheSpec& spec, std::shared_ptr<rng::Rng> rng)
      : spec_(spec),
        geo_(spec.config.geometry),
        ways_(spec.config.geometry.ways()),
        mapper_(make_reference_mapper(spec)),
        rng_(std::move(rng)) {
    secure_contention_ = spec.mapper == MapperKind::kRpCache;
    ttl_enabled_ = spec.config.ttl_max > 0;
  }

  Result access(ProcId proc, Addr addr, bool write) {
    const Addr line = geo_.line_addr(addr);
    const std::uint32_t set = mapper_->map(line, proc);
    ++stats_.accesses;

    Result result;
    result.set = set;
    std::vector<Entry>& entries = set_entries(set);

    // TTL (ClepsydraCache): tick the access clock, then lazily reclaim
    // expired lines of the probed set in way order, before the lookup -
    // a dead line must not hit.  Expirations are their own statistic (a
    // dirty one still writes back); the demand access's Result is
    // untouched.
    if (ttl_enabled_) {
      ++ttl_clock_;
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (entries[w].valid && entries[w].expiry <= ttl_clock_) {
          ++stats_.ttl_expirations;
          if (entries[w].dirty) ++stats_.writebacks;
          entries[w] = Entry{};
        }
      }
    }

    // Lookup: first matching valid way, in way order.  A TTL hit refreshes
    // the line's expiry by its own stored lifetime (no rng draw).
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (entries[w].valid && entries[w].line == (line & kTagMask)) {
        ++stats_.hits;
        result.hit = true;
        touch(set, w);
        if (write && spec_.config.write_back) entries[w].dirty = true;
        if (ttl_enabled_) entries[w].expiry = ttl_clock_ + entries[w].ttl;
        return result;
      }
    }

    // Write miss without write-allocate bypasses the cache.
    if (write && !spec_.config.write_allocate) {
      result.allocated = false;
      return result;
    }

    // Random-fill (Random-and-Safe / Liu & Lee): a read miss is served
    // around the cache; a uniformly drawn line within +/- window of the
    // demanded one (the window clamped at line 0) is filled instead,
    // unless already resident.  The neighbour draw comes FIRST (before any
    // victim draw the fill may make), matching the production order.
    if (spec_.config.random_fill_window > 0 && !write) {
      const Addr window = spec_.config.random_fill_window;
      const Addr low = line >= window ? line - window : 0;
      const Addr fill_line = low + rng_->next_below(line + window - low + 1);
      const std::uint32_t fill_set = mapper_->map(fill_line, proc);
      if (!contains_line(fill_line, fill_set)) {
        allocate(proc, fill_line, fill_set, /*dirty=*/false, result);
      }
      result.allocated = false;
      return result;
    }

    allocate(proc, line, set, write && spec_.config.write_back, result);
    return result;
  }

  void set_seed(ProcId proc, Seed seed) { mapper_->set_seed(proc, seed); }

  void set_way_partition(ProcId proc, std::uint32_t first_way,
                         std::uint32_t way_count) {
    assert(way_count >= 1 && first_way + way_count <= ways_);
    partitions_[proc.value] = {first_way, way_count};
  }

  /// Mirrors cache::Cache::flush_line field for field.
  struct FlushLineResult {
    bool present = false;
    bool writeback = false;
    std::uint32_t set = 0;
  };

  /// Single-line flush, restated from the documented semantics: the
  /// FLUSHER's mapping context resolves the set (clflush with a shared
  /// line - the flusher addresses the same placement the victim's fills
  /// used because they share the process context); the TTL clock ticks
  /// and the probed set is lazily reclaimed FIRST, exactly as a demand
  /// access would (a dead line must not read back as present); the flush
  /// is not an access (no accesses/hits/miss accounting) and touches no
  /// replacement metadata - fills prefer invalid ways, so the stale
  /// history self-heals on the next allocation, way for way like the
  /// production cache.
  FlushLineResult flush_line(ProcId proc, Addr addr) {
    const Addr line = geo_.line_addr(addr);
    const std::uint32_t set = mapper_->map(line, proc);
    std::vector<Entry>& entries = set_entries(set);
    if (ttl_enabled_) {
      ++ttl_clock_;
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (entries[w].valid && entries[w].expiry <= ttl_clock_) {
          ++stats_.ttl_expirations;
          if (entries[w].dirty) ++stats_.writebacks;
          entries[w] = Entry{};
        }
      }
    }
    ++stats_.line_flushes;
    FlushLineResult result;
    result.set = set;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (entries[w].valid && entries[w].line == (line & kTagMask)) {
        result.present = true;
        ++stats_.line_flush_hits;
        ++stats_.flushed_lines;
        if (entries[w].dirty) {
          ++stats_.writebacks;
          result.writeback = true;
        }
        entries[w] = Entry{};
        break;
      }
    }
    return result;
  }

  std::uint64_t flush() {
    ++stats_.flushes;
    std::uint64_t count = 0;
    for (auto& [set, entries] : lines_) {
      for (Entry& e : entries) {
        if (e.valid) {
          ++count;
          if (e.dirty) ++stats_.writebacks;
        }
        e = Entry{};
      }
    }
    stats_.flushed_lines += count;
    // Replacement history is forgotten; the partition cursors are NOT (they
    // are allocation state, not replacement metadata - same as the cache).
    lru_age_.clear();
    lru_tick_ = 0;
    fifo_cursor_.clear();
    plru_tree_.clear();
    nmru_mru_.clear();
    return count;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] std::uint64_t valid_lines() const {
    std::uint64_t n = 0;
    for (const auto& [set, entries] : lines_) {
      for (const Entry& e : entries) n += e.valid ? 1 : 0;
    }
    return n;
  }

 private:
  /// Production tags pack lines as (line << 1) | valid: the top line bit is
  /// not part of the tag identity, so lines aliasing in their low 63 bits
  /// match the same tag and evicted_line comes back masked.  Set mapping
  /// still sees the full 64-bit line.  Only the random-fill neighbour draw
  /// can wrap below zero and produce such lines; the model reproduces the
  /// aliasing exactly rather than widening the tag.
  static constexpr Addr kTagMask = (Addr{1} << 63) - 1;

  struct Entry {
    Addr line = 0;
    bool valid = false;
    bool dirty = false;
    std::uint32_t owner = 0;
    std::uint64_t expiry = 0;  ///< TTL caches: clock value at which it dies
    std::uint32_t ttl = 0;     ///< TTL caches: drawn lifetime (for refresh)
  };

  /// The miss-side allocation: partition-aware way choice, the RPCache
  /// contention rule, eviction bookkeeping, install, replacement fill and
  /// (on TTL caches) the lifetime draw - shared by the demand path and the
  /// random-fill path, exactly as the production fill_impl is.
  void allocate(ProcId proc, Addr line, std::uint32_t set, bool dirty,
                Result& result) {
    std::vector<Entry>& entries = set_entries(set);

    // Way range: the process's partition if one is installed, else all ways.
    std::uint32_t first = 0;
    std::uint32_t count = ways_;
    bool partitioned = false;
    if (const auto it = partitions_.find(proc.value);
        it != partitions_.end()) {
      first = it->second.first;
      count = it->second.second;
      partitioned = true;
    }

    // Prefer the lowest-numbered invalid way in range.
    std::uint32_t way = ways_;
    for (std::uint32_t w = first; w < first + count; ++w) {
      if (!entries[w].valid) {
        way = w;
        break;
      }
    }

    if (way == ways_) {  // range full: pick a victim
      if (partitioned) {
        // Inside a partition the global replacement metadata cannot be
        // trusted; the cache round-robins through the range with one
        // cursor per set, shared by every partitioned process.
        way = first + (partition_rr_[set]++ % count);
      } else {
        way = pick_victim(set);
      }
      if (secure_contention_ && entries[way].valid &&
          entries[way].owner != proc.value) {
        // RPCache rule: evicting another process's line would leak its set
        // usage; disturb a random (set, way) instead and do not allocate.
        ++stats_.contention_evictions;
        const auto rset =
            static_cast<std::uint32_t>(rng_->next_below(geo_.sets()));
        const auto rway = static_cast<std::uint32_t>(rng_->next_below(ways_));
        std::vector<Entry>& rentries = set_entries(rset);
        if (rentries[rway].valid) evict_entry(rentries[rway], result);
        result.allocated = false;
        return;
      }
      evict_entry(entries[way], result);
    }

    entries[way].line = line & kTagMask;
    entries[way].valid = true;
    entries[way].dirty = dirty;
    entries[way].owner = proc.value;
    fill(set, way);
    if (ttl_enabled_) {
      // TTL draw last, after any victim/contention draw of this fill.
      const std::uint64_t span =
          std::uint64_t{spec_.config.ttl_max} - spec_.config.ttl_min + 1;
      const auto ttl = static_cast<std::uint32_t>(spec_.config.ttl_min +
                                                  rng_->next_below(span));
      entries[way].ttl = ttl;
      entries[way].expiry = ttl_clock_ + ttl;
    }
  }

  [[nodiscard]] bool contains_line(Addr line, std::uint32_t set) {
    const std::vector<Entry>& entries = set_entries(set);
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (entries[w].valid && entries[w].line == (line & kTagMask)) {
        return true;
      }
    }
    return false;
  }

  /// The same mapper construction the builder performs, restated here so
  /// the oracle does not depend on build_cache's wiring.
  static std::unique_ptr<IndexMapper> make_reference_mapper(
      const CacheSpec& spec) {
    const Geometry& g = spec.config.geometry;
    if (spec.mapper == MapperKind::kRpCache) {
      return std::make_unique<RpCacheMapper>(g);
    }
    return std::make_unique<SeededMapper>(make_placement(spec.mapper, g));
  }

  std::vector<Entry>& set_entries(std::uint32_t set) {
    auto it = lines_.find(set);
    if (it == lines_.end()) {
      it = lines_.emplace(set, std::vector<Entry>(ways_)).first;
    }
    return it->second;
  }

  void evict_entry(Entry& e, Result& result) {
    ++stats_.evictions;
    if (e.dirty) {
      ++stats_.writebacks;
      result.writeback = true;
    }
    result.evicted = true;
    result.evicted_line = e.line;
    e = Entry{};
  }

  // --- naive replacement policies ------------------------------------------

  void touch(std::uint32_t set, std::uint32_t way) {
    switch (spec_.replacement) {
      case ReplacementKind::kLru:
        lru_age_[set].resize(ways_, 0);
        lru_age_[set][way] = ++lru_tick_;
        break;
      case ReplacementKind::kPlru:
        plru_touch(set, way);
        break;
      case ReplacementKind::kNmru:
        nmru_mru_[set] = way;
        break;
      case ReplacementKind::kFifo:
      case ReplacementKind::kRandom:
        break;  // hits do not reorder
    }
  }

  void fill(std::uint32_t set, std::uint32_t way) {
    switch (spec_.replacement) {
      case ReplacementKind::kFifo:
        fifo_cursor_[set] = (way + 1) % ways_;
        break;
      case ReplacementKind::kRandom:
        break;  // no metadata
      default:
        touch(set, way);
        break;
    }
  }

  std::uint32_t pick_victim(std::uint32_t set) {
    switch (spec_.replacement) {
      case ReplacementKind::kLru: {
        // Least recently used = smallest age stamp (every way of a full
        // set has been touched, so stamps exist and are unique).
        const std::vector<std::uint64_t>& age = lru_age_[set];
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
          if (age[w] < age[victim]) victim = w;
        }
        return victim;
      }
      case ReplacementKind::kFifo:
        return fifo_cursor_[set];
      case ReplacementKind::kRandom:
        return static_cast<std::uint32_t>(rng_->next_below(ways_));
      case ReplacementKind::kPlru:
        return plru_victim(set);
      case ReplacementKind::kNmru: {
        // Random way excluding the most recently used one.
        if (ways_ == 1) return 0;
        const std::uint32_t mru = nmru_mru_[set];
        const auto pick =
            static_cast<std::uint32_t>(rng_->next_below(ways_ - 1));
        return pick >= mru ? pick + 1 : pick;
      }
    }
    return 0;
  }

  /// Tree-PLRU over explicit [lo, hi) intervals: node k covers an interval,
  /// its flag points at the NEXT VICTIM side (0 = left).  Touching a way
  /// points every node on its root path away from it.
  void plru_touch(std::uint32_t set, std::uint32_t way) {
    std::vector<std::uint8_t>& tree = plru_tree_[set];
    tree.resize(ways_ == 0 ? 0 : ways_ - 1, 0);
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = ways_;
    while (hi - lo > 1) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      const bool went_right = way >= mid;
      tree[node] = went_right ? 0 : 1;
      node = 2 * node + (went_right ? 2 : 1);
      if (went_right) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
  }

  std::uint32_t plru_victim(std::uint32_t set) {
    std::vector<std::uint8_t>& tree = plru_tree_[set];
    tree.resize(ways_ == 0 ? 0 : ways_ - 1, 0);
    std::uint32_t node = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = ways_;
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

  CacheSpec spec_;
  Geometry geo_;
  std::uint32_t ways_;
  std::unique_ptr<IndexMapper> mapper_;
  std::shared_ptr<rng::Rng> rng_;
  bool secure_contention_ = false;
  bool ttl_enabled_ = false;
  std::uint64_t ttl_clock_ = 0;  ///< survives flush(), like the production clock
  Stats stats_;

  std::map<std::uint32_t, std::vector<Entry>> lines_;
  std::map<std::uint32_t, std::pair<std::uint32_t, std::uint32_t>>
      partitions_;                                   ///< proc -> (first, count)
  std::map<std::uint32_t, std::uint32_t> partition_rr_;  ///< per-set cursor

  std::map<std::uint32_t, std::vector<std::uint64_t>> lru_age_;
  std::uint64_t lru_tick_ = 0;
  std::map<std::uint32_t, std::uint32_t> fifo_cursor_;
  std::map<std::uint32_t, std::vector<std::uint8_t>> plru_tree_;
  std::map<std::uint32_t, std::uint32_t> nmru_mru_;
};

}  // namespace tsc::cache
