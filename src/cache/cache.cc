#include "cache/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <utility>

#if defined(__SSE4_1__)
#include <immintrin.h>
#endif

namespace tsc::cache {
namespace {

/// Specialized replacement dispatch: the fill and victim choice of each
/// policy with the policy kind and, when WAYS > 0, the way count known at
/// compile time, so the kernels inline and their loops unroll (the touch is
/// repl_touch, shared with Cache::latched_hits).
template <ReplacementKind RK, int WAYS>
inline void fill_spec(const ReplacementFast& f, std::uint32_t set,
                      std::uint32_t way) {
  if constexpr (RK == ReplacementKind::kFifo) {
    const std::uint32_t ways = WAYS > 0 ? WAYS : f.ways;
    f.meta32[set] = (way + 1) % ways;
  } else if constexpr (RK == ReplacementKind::kRandom) {
    // no metadata
  } else {
    repl_touch<RK, WAYS>(f, set, way);
  }
}

template <ReplacementKind RK, int WAYS>
[[nodiscard]] inline std::uint32_t victim_spec(const ReplacementFast& f,
                                               std::uint32_t set) {
  const std::uint32_t ways = WAYS > 0 ? WAYS : f.ways;
  if constexpr (RK == ReplacementKind::kLru) {
    return repl_ops::lru_victim(f.meta8 + std::size_t{set} * ways, ways);
  } else if constexpr (RK == ReplacementKind::kFifo) {
    return f.meta32[set];
  } else if constexpr (RK == ReplacementKind::kRandom) {
    return static_cast<std::uint32_t>(repl_draw(f, ways));
  } else if constexpr (RK == ReplacementKind::kPlru) {
    return repl_ops::plru_victim(f.meta8 + std::size_t{set} * (ways - 1),
                                 ways);
  } else {
    return repl_ops::nmru_victim(f.meta32[set], ways, f);
  }
}

}  // namespace

Cache::Cache(CacheConfig config, std::unique_ptr<IndexMapper> mapper,
             std::unique_ptr<Replacement> replacement,
             std::shared_ptr<rng::Rng> rng)
    : config_(config),
      mapper_(std::move(mapper)),
      replacement_(std::move(replacement)),
      rng_(std::move(rng)),
      tagv_(static_cast<std::size_t>(config.geometry.sets()) *
            config.geometry.ways()),
      owner_(tagv_.size()),
      dirty_(tagv_.size()) {
  assert(mapper_ != nullptr);
  assert(replacement_ != nullptr);
  repl_ = replacement_->fast();
  access_fn_ = pick_access_fn();
  set_fn_ = pick_set_fn();
  line_shift_ = config_.geometry.offset_bits();
  sets_mask_ = config_.geometry.sets() - 1;
  ttl_enabled_ = config_.ttl_max > 0;
  slow_fill_ = config_.random_fill_window > 0 || ttl_enabled_;
  if (ttl_enabled_) {
    expiry_.assign(tagv_.size(), 0);
    ttl_.assign(tagv_.size(), 0);
    ttl_floor_.assign(config_.geometry.sets(), 0);
  }
  assert((mapper_->mapping_kind() != MapperKind::kRpCache ||
          rng_ != nullptr) &&
         "the secure contention rule draws random sets/ways");
  assert((config_.random_fill_window == 0 || rng_ != nullptr) &&
         "random fill draws random neighbour lines");
  assert((!ttl_enabled_ || rng_ != nullptr) &&
         "TTL caches draw per-line lifetimes");
  assert(config_.ttl_min <= config_.ttl_max && "ttl range must be ordered");
}

const Cache::SetMemoEntry Cache::kUnbuiltSetMemo[kSetMemo] = {};

const ResolvedMapping& Cache::resolve_context(ProcId proc) const {
  if (proc.value >= contexts_.size()) contexts_.resize(proc.value + 1);
  ResolvedMapping& ctx = contexts_[proc.value];
  mapper_->resolve(proc, ctx);
  ctx.valid = true;
  bump_set_memo();
  // Refresh the inline hot views.  A resize above may have moved every
  // context, so rebuild all of them, not just this process's.
  const std::size_t n = std::min<std::size_t>(kHotCtx, contexts_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const ResolvedMapping& c = contexts_[i];
    HotCtx& h = hot_[i];
    if (!c.valid) continue;
    switch (c.kind) {
      case MapperKind::kModulo:
      case MapperKind::kXorIndex:
        h.word = c.xor_mask;
        h.ptr = &c;  // any stable non-null: marks the entry resolved
        break;
      case MapperKind::kHashRp:
        h.ptr = &c.hashrp;
        break;
      case MapperKind::kRandomModulo:
        h.word = c.rm_mix;
        h.ptr = c.rm;
        break;
      case MapperKind::kRpCache:
        h.ptr = c.rp_table;
        break;
    }
  }
  return ctx;
}

namespace {

/// Devirtualized set computation with the mapping kind as a compile-time
/// constant, over the one or two resolved words the kind needs.  Each
/// branch is the resolved form of the corresponding Placement::set_index
/// (the virtual path runs the same helpers), so the two paths are the same
/// computation.
template <MapperKind MK>
[[nodiscard]] inline std::uint32_t map_fast(std::uint32_t sets_mask,
                                            std::uint64_t word,
                                            const void* ptr, Addr line) {
  const auto idx = static_cast<std::uint32_t>(line) & sets_mask;
  if constexpr (MK == MapperKind::kModulo) {
    return idx;  // seedless: no context consulted
  } else if constexpr (MK == MapperKind::kXorIndex) {
    return idx ^ static_cast<std::uint32_t>(word);
  } else if constexpr (MK == MapperKind::kHashRp) {
    return hashrp_map(*static_cast<const HashRpContext*>(ptr), line);
  } else if constexpr (MK == MapperKind::kRandomModulo) {
    return static_cast<const RandomModuloPlacement*>(ptr)->set_index_mixed(
        line, word);
  } else {
    return static_cast<const std::uint32_t*>(ptr)[idx];
  }
}

/// The same computation over a full resolved context.
template <MapperKind MK>
[[nodiscard]] inline std::uint32_t map_one(std::uint32_t sets_mask,
                                           const ResolvedMapping* ctx,
                                           Addr line) {
  if constexpr (MK == MapperKind::kModulo) {
    return map_fast<MK>(sets_mask, 0, nullptr, line);
  } else if constexpr (MK == MapperKind::kXorIndex) {
    return map_fast<MK>(sets_mask, ctx->xor_mask, nullptr, line);
  } else if constexpr (MK == MapperKind::kHashRp) {
    return map_fast<MK>(sets_mask, 0, &ctx->hashrp, line);
  } else if constexpr (MK == MapperKind::kRandomModulo) {
    return map_fast<MK>(sets_mask, ctx->rm_mix, ctx->rm, line);
  } else {
    return map_fast<MK>(sets_mask, 0, ctx->rp_table, line);
  }
}

}  // namespace

template <MapperKind MK>
std::uint32_t Cache::set_of(const Cache& self, ProcId proc, Addr line) {
  if constexpr (MK == MapperKind::kModulo) {
    return map_fast<MK>(self.sets_mask_, 0, nullptr, line);
  } else {
    const std::size_t pi = proc.value;
    if (pi < kHotCtx) [[likely]] {
      if (self.hot_[pi].ptr == nullptr) [[unlikely]] {
        self.resolve_context(proc);
      }
      const HotCtx& hc = self.hot_[pi];
      if constexpr (MK == MapperKind::kHashRp) {
        return self.hashrp_memo_set(pi, line, hc.ptr);
      } else {
        return map_fast<MK>(self.sets_mask_, hc.word, hc.ptr, line);
      }
    }
    return self.map_set(self.context(proc), line);
  }
}

std::uint32_t Cache::map_set(const ResolvedMapping& ctx, Addr line) const {
  switch (ctx.kind) {
    case MapperKind::kModulo:
      return map_one<MapperKind::kModulo>(sets_mask_, &ctx, line);
    case MapperKind::kXorIndex:
      return map_one<MapperKind::kXorIndex>(sets_mask_, &ctx, line);
    case MapperKind::kHashRp:
      return map_one<MapperKind::kHashRp>(sets_mask_, &ctx, line);
    case MapperKind::kRandomModulo:
      return map_one<MapperKind::kRandomModulo>(sets_mask_, &ctx, line);
    case MapperKind::kRpCache:
      return map_one<MapperKind::kRpCache>(sets_mask_, &ctx, line);
  }
  return 0;
}

template <MapperKind MK, ReplacementKind RK, int WAYS>
AccessResult Cache::access_impl(Cache& self, ProcId proc, Addr addr,
                                bool write) {
  const Geometry& geo = self.config_.geometry;
  const Addr line = addr >> self.line_shift_;
  // Resolve the mapping view.  Modulo is seedless (no probe at all); small
  // process ids - all of them, in practice - read the inline hot view;
  // anything else falls back to the full context path.
  const std::uint32_t set = set_of<MK>(self, proc, line);
  assert(set < geo.sets());

  ++self.stats_.accesses;

  // ClepsydraCache: every access ticks the clock and lazily reclaims
  // expired lines of the probed set BEFORE the lookup, so a dead line can
  // never hit.  One predictable branch for every non-TTL design.
  if (self.ttl_enabled_) [[unlikely]] {
    self.ttl_advance_and_expire(set);
  }

  // Lookup: packed (line << 1 | valid) words - one equality per way, an
  // invalid way can never match a probe whose valid bit is set.
  const std::uint32_t ways = WAYS > 0 ? WAYS : geo.ways();
  const std::size_t base = static_cast<std::size_t>(set) * ways;
  const std::uint64_t probe = (line << 1) | 1;
  const std::uint64_t* tv = self.tagv_.data() + base;

  if constexpr (WAYS > 0) {
    // Specialized scan: one pass yields both the match mask and the
    // valid-ways mask for the miss path.  Results are constructed whole at
    // each return so they live in registers.
    std::uint32_t eq_mask;
    std::uint32_t valid_mask;
#if defined(__SSE4_1__)
    if constexpr (WAYS == 4) {
      // Two 128-bit compares cover the whole set; the valid bits ride along
      // as the sign of each word shifted left by 63.
      const __m128i vp = _mm_set1_epi64x(static_cast<long long>(probe));
      const __m128i lo =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(tv));
      const __m128i hi =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(tv + 2));
      eq_mask = static_cast<std::uint32_t>(
          _mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(lo, vp))) |
          (_mm_movemask_pd(_mm_castsi128_pd(_mm_cmpeq_epi64(hi, vp))) << 2));
      valid_mask = static_cast<std::uint32_t>(
          _mm_movemask_pd(_mm_castsi128_pd(_mm_slli_epi64(lo, 63))) |
          (_mm_movemask_pd(_mm_castsi128_pd(_mm_slli_epi64(hi, 63))) << 2));
    } else
#endif
    {
      eq_mask = 0;
      valid_mask = 0;
      for (std::uint32_t w = 0; w < WAYS; ++w) {
        const std::uint64_t word = tv[w];
        eq_mask |= (word == probe ? 1u : 0u) << w;
        valid_mask |= static_cast<std::uint32_t>(word & 1) << w;
      }
    }

    if (eq_mask != 0) {
      const auto w = static_cast<std::uint32_t>(std::countr_zero(eq_mask));
      ++self.stats_.hits;
      repl_touch<RK, WAYS>(self.repl_, set, w);
      if (write && self.config_.write_back) self.dirty_[base + w] = 1;
      if (self.ttl_enabled_) [[unlikely]] self.ttl_refresh(base + w);
      return AccessResult{true, false, true, false, set, 0};
    }

    // Miss (stats().misses derives from accesses - hits).  Every miss may
    // change residency somewhere (fill, eviction, contention, random fill),
    // so it moves the epoch - the one store the latch needs, off the hit
    // path.
    ++self.epoch_;
    if (write && !self.config_.write_allocate) {
      return AccessResult{false, false, false, false, set, 0};
      // write-around: memory handles it
    }

    // Uncommon configurations leave through one outlined slow path so this
    // function stays a leaf (no spills, no frame on the common route).
    // slow_fill_ over-approximates (a write miss under random fill takes it
    // too); access_slow re-applies the exact rules, so results match.
    if (self.slow_fill_) [[unlikely]] {
      return access_slow<MK, RK, WAYS>(self, proc, line, set, write);
    }

    // Fast unpartitioned fill: reuse the lookup pass's valid mask for the
    // invalid-way preference, and fold the eviction's bookkeeping into the
    // install (one store to the line word instead of clear-then-write).
    constexpr std::uint32_t kAll = (1u << WAYS) - 1;
    constexpr bool kFusedLru = RK == ReplacementKind::kLru && WAYS == 4;
    const bool want_dirty = write && self.config_.write_back;
    std::uint32_t way;
    bool wb = false;
    bool ev = false;
    Addr ev_line = 0;
    std::uint32_t lru_ranks = 0;     // kFusedLru, full set: pre-update ranks
    bool lru_fused = false;
    if (valid_mask != kAll) {
      // Prefer the lowest-numbered invalid way, as the general scan does.
      way = static_cast<std::uint32_t>(std::countr_zero(~valid_mask & kAll));
    } else {
      if constexpr (kFusedLru) {
        // Fused LRU victim + reorder: with the set full, the per-set ranks
        // are a permutation of 0..3, so the victim is the way whose rank
        // byte is 3 and the post-fill ranks are "everyone + 1, victim = 0"
        // - one 32-bit load/store instead of two byte scans.  The update is
        // applied at install time, after the secure-contention rule has had
        // its say.
        std::memcpy(&lru_ranks, self.repl_.meta8 + std::size_t{set} * 4, 4);
        const std::uint32_t is3 = lru_ranks ^ 0x03030303u;
        const std::uint32_t zero_byte =
            (is3 - 0x01010101u) & ~is3 & 0x80808080u;
        way = static_cast<std::uint32_t>(std::countr_zero(zero_byte)) >> 3;
        lru_fused = true;
      } else {
        way = victim_spec<RK, WAYS>(self.repl_, set);
      }
      if constexpr (MK == MapperKind::kRpCache) {
        // (The victim is valid here: the set is full.)
        if (self.owner_[base + way] != proc.value) [[unlikely]] {
          // RPCache rule: outlined; replacement metadata untouched, as in
          // the general path (victim selection is read-only).
          return self.contention_evict(set);
        }
      }
      // Eviction bookkeeping, fused with the install below.
      const std::size_t vi = base + way;
      ++self.stats_.evictions;
      if (self.dirty_[vi] != 0) {
        ++self.stats_.writebacks;
        wb = true;
      }
      ev = true;
      ev_line = self.tagv_[vi] >> 1;
    }
    const std::size_t di = base + way;
    self.tagv_[di] = probe;
    self.owner_[di] = proc.value;
    self.dirty_[di] = want_dirty ? 1 : 0;
    if (lru_fused) {
      const std::uint32_t cleared =
          (lru_ranks + 0x01010101u) & ~(0xFFu << (8 * way));
      std::memcpy(self.repl_.meta8 + std::size_t{set} * 4, &cleared, 4);
    } else {
      fill_spec<RK, WAYS>(self.repl_, set, way);
    }
    return AccessResult{false, wb, true, ev, set, ev_line};
  } else {
    const ResolvedMapping* ctx =
        MK == MapperKind::kModulo ? nullptr : &self.context(proc);
    AccessResult result;
    result.set = set;
    // Generic way count: the straightforward scan (identical decisions,
    // no mask tricks - way counts above 32 stay correct).
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (tv[w] == probe) {
        ++self.stats_.hits;
        result.hit = true;
        repl_touch<RK, WAYS>(self.repl_, set, w);
        if (write && self.config_.write_back) self.dirty_[base + w] = 1;
        if (self.ttl_enabled_) [[unlikely]] self.ttl_refresh(base + w);
        return result;
      }
    }

    ++self.epoch_;  // a miss, as above
    if (write && !self.config_.write_allocate) {
      result.allocated = false;
      return result;
    }

    if (self.config_.random_fill_window > 0 && !write) {
      self.random_fill<MK, RK, WAYS>(ctx, proc, line, result);
      return result;
    }

    self.fill_impl<MK, RK, WAYS>(ctx, proc, line, set,
                                 write && self.config_.write_back, result);
    return result;
  }
}

template <MapperKind MK, ReplacementKind RK, int WAYS>
AccessResult Cache::access_slow(Cache& self, ProcId proc, Addr line,
                                std::uint32_t set, bool write) {
  const ResolvedMapping* ctx =
      MK == MapperKind::kModulo ? nullptr : &self.context(proc);
  AccessResult result;
  result.set = set;
  if (self.config_.random_fill_window > 0 && !write) {
    self.random_fill<MK, RK, WAYS>(ctx, proc, line, result);
    return result;
  }
  self.fill_impl<MK, RK, WAYS>(ctx, proc, line, set,
                               write && self.config_.write_back, result);
  return result;
}

AccessResult Cache::contention_evict(std::uint32_t set) {
  // RPCache rule: the intended replacement would leak the victim process's
  // set usage.  Do not allocate; disturb a random (set, way) instead.
  AccessResult result;
  result.set = set;
  result.allocated = false;
  ++stats_.contention_evictions;
  const Geometry& geo = config_.geometry;
  const auto rset = static_cast<std::uint32_t>(rng_->next_below(geo.sets()));
  const auto rway = static_cast<std::uint32_t>(rng_->next_below(geo.ways()));
  const std::size_t ri = static_cast<std::size_t>(rset) * geo.ways() + rway;
  if ((tagv_[ri] & 1) != 0) evict(rset, rway, result);
  return result;
}

template <MapperKind MK, ReplacementKind RK, int WAYS>
void Cache::random_fill(const ResolvedMapping* ctx, ProcId proc, Addr line,
                        AccessResult& result) {
  // Random-fill [18]: serve the demand from memory without caching it;
  // bring in a random neighbour instead, decoupling fills from accesses.
  // The window [line - w, line + w] is clamped at line 0.
  const Addr window = config_.random_fill_window;
  const Addr low = line >= window ? line - window : 0;
  const Addr fill_line_addr = low + rng_->next_below(line + window - low + 1);
  const std::uint32_t fill_set = map_one<MK>(sets_mask_, ctx, fill_line_addr);
  if (!line_way(fill_set, fill_line_addr)) {
    fill_impl<MK, RK, WAYS>(ctx, proc, fill_line_addr, fill_set,
                            /*dirty=*/false, result);
  }
  result.allocated = false;
}

template <MapperKind MK, ReplacementKind RK, int WAYS>
void Cache::fill_impl(const ResolvedMapping*, ProcId proc, Addr line,
                      std::uint32_t set, bool dirty, AccessResult& result) {
  const Geometry& geo = config_.geometry;
  const std::uint32_t ways = WAYS > 0 ? WAYS : geo.ways();
  const std::size_t base = static_cast<std::size_t>(set) * ways;
  std::uint32_t first = 0;
  std::uint32_t count = ways;
  bool partitioned = false;
  if (!partitions_.empty()) {
    if (const Partition* part = partitions_.find(proc)) {
      first = part->first;
      count = part->count;
      partitioned = true;
    }
  }

  // Prefer an invalid way inside the allowed range.
  std::uint32_t way = ways;
  for (std::uint32_t w = first; w < first + count; ++w) {
    if ((tagv_[base + w] & 1) == 0) {
      way = w;
      break;
    }
  }

  if (way == ways) {
    if (!partitioned) {
      way = victim_spec<RK, WAYS>(repl_, set);
    } else {
      // Within a partition the global replacement metadata cannot be
      // trusted (it may point outside the range): round-robin instead.
      way = first + (partition_rr_[set]++ % count);
    }
    assert(way >= first && way < first + count);
    const std::size_t vi = base + way;
    if constexpr (MK == MapperKind::kRpCache) {
      if ((tagv_[vi] & 1) != 0 && owner_[vi] != proc.value) {
        // result.set keeps the demand set (on the random-fill path it
        // differs from the fill set).
        result = contention_evict(result.set);
        return;
      }
    }
    evict(set, way, result);
  }

  const std::size_t di = base + way;
  tagv_[di] = (line << 1) | 1;
  owner_[di] = proc.value;
  dirty_[di] = dirty ? 1 : 0;
  fill_spec<RK, WAYS>(repl_, set, way);
  // TTL draw LAST (after any victim/contention draw), a fixed per-fill
  // order the reference model replays.
  if (ttl_enabled_) [[unlikely]] ttl_on_fill(set, di);
}

void Cache::ttl_expire(std::uint32_t set, std::uint64_t now) {
  const std::uint32_t ways = config_.geometry.ways();
  const std::size_t base = static_cast<std::size_t>(set) * ways;
  std::uint64_t floor = ~std::uint64_t{0};
  for (std::uint32_t w = 0; w < ways; ++w) {
    const std::size_t i = base + w;
    if ((tagv_[i] & 1) == 0) continue;
    if (expiry_[i] <= now) {
      // Time-based eviction: write back if dirty, then invalidate.  Counted
      // apart from capacity/conflict evictions - the decoupling of eviction
      // from contention is the design's point, and the stats should show it.
      ++stats_.ttl_expirations;
      if (dirty_[i] != 0) ++stats_.writebacks;
      tagv_[i] = 0;
      dirty_[i] = 0;
      ++epoch_;
    } else {
      floor = std::min(floor, expiry_[i]);
    }
  }
  ttl_floor_[set] = floor;
}

bool Cache::ttl_latched_segment(const SegmentLine* lines, unsigned n,
                                std::uint64_t probes) {
  const std::uint32_t ways = config_.geometry.ways();
  const auto index = [ways](const SegmentLine& l) {
    return static_cast<std::size_t>(l.set) * ways + l.way;
  };
  for (unsigned k = 0; k < n; ++k) {
    if (!ttl_survives(index(lines[k]), lines[k].first, lines[k].gap)) {
      return false;
    }
  }
  // Every probe hits, so the stretch changes a line only through its last
  // hit's refresh, its dirty bit and reclamation.  A line reclaimed by a
  // later probe of its set keeps the touches of its earlier hits, and the
  // dirty bit of its writes, as under access().  So every line's hits and
  // final expiry come first; then each touched set is reclaimed at its last
  // probe.  In last-touch order, a set's last probe is its last line's, the
  // first one a reverse pass meets; reclaiming the set again at an earlier
  // line's probe finds nothing more (expiry is monotonic in the clock), and
  // the floor, now past that probe, skips it.
  const std::uint64_t entry = ttl_clock_;
  for (unsigned k = 0; k < n; ++k) {
    const SegmentLine& l = lines[k];
    count_hits(l.set, l.way, l.hits, l.write);
    const std::size_t i = index(l);
    expiry_[i] = entry + l.last + 1 + ttl_[i];
  }
  for (unsigned k = n; k-- > 0;) {
    const std::uint64_t now = entry + lines[k].last + 1;
    if (ttl_floor_[lines[k].set] <= now) ttl_expire(lines[k].set, now);
  }
  ttl_clock_ = entry + probes;
  return true;
}

/// Builds the (mapping x replacement x ways) -> specialized-access table.
/// A friend struct so the anonymous-namespace-free helpers can name the
/// private access_impl instantiations.
struct CacheAccessCompiler {
  template <MapperKind MK, ReplacementKind RK>
  [[nodiscard]] static Cache::AccessFn for_ways(std::uint32_t ways) {
    return ways == 4 ? &Cache::access_impl<MK, RK, 4>
                     : &Cache::access_impl<MK, RK, 0>;
  }

  template <MapperKind MK>
  [[nodiscard]] static Cache::AccessFn for_repl(ReplacementKind rk,
                                                std::uint32_t ways) {
    switch (rk) {
      case ReplacementKind::kLru:
        return for_ways<MK, ReplacementKind::kLru>(ways);
      case ReplacementKind::kFifo:
        return for_ways<MK, ReplacementKind::kFifo>(ways);
      case ReplacementKind::kRandom:
        return for_ways<MK, ReplacementKind::kRandom>(ways);
      case ReplacementKind::kPlru:
        return for_ways<MK, ReplacementKind::kPlru>(ways);
      case ReplacementKind::kNmru:
        return for_ways<MK, ReplacementKind::kNmru>(ways);
    }
    return for_ways<MK, ReplacementKind::kLru>(ways);
  }

  [[nodiscard]] static Cache::AccessFn pick(MapperKind mk,
                                            ReplacementKind rk,
                                            std::uint32_t ways) {
    switch (mk) {
      case MapperKind::kModulo:
        return for_repl<MapperKind::kModulo>(rk, ways);
      case MapperKind::kXorIndex:
        return for_repl<MapperKind::kXorIndex>(rk, ways);
      case MapperKind::kHashRp:
        return for_repl<MapperKind::kHashRp>(rk, ways);
      case MapperKind::kRandomModulo:
        return for_repl<MapperKind::kRandomModulo>(rk, ways);
      case MapperKind::kRpCache:
        return for_repl<MapperKind::kRpCache>(rk, ways);
    }
    return for_repl<MapperKind::kModulo>(rk, ways);
  }
};

Cache::AccessFn Cache::pick_access_fn() const {
  return CacheAccessCompiler::pick(mapper_->mapping_kind(), repl_.kind,
                                   config_.geometry.ways());
}

Cache::SetFn Cache::pick_set_fn() const {
  switch (mapper_->mapping_kind()) {
    case MapperKind::kModulo:
      return &set_of<MapperKind::kModulo>;
    case MapperKind::kXorIndex:
      return &set_of<MapperKind::kXorIndex>;
    case MapperKind::kHashRp:
      return &set_of<MapperKind::kHashRp>;
    case MapperKind::kRandomModulo:
      return &set_of<MapperKind::kRandomModulo>;
    case MapperKind::kRpCache:
      return &set_of<MapperKind::kRpCache>;
  }
  return &set_of<MapperKind::kModulo>;
}

void Cache::evict(std::uint32_t set, std::uint32_t way, AccessResult& result) {
  const std::size_t i =
      static_cast<std::size_t>(set) * config_.geometry.ways() + way;
  assert((tagv_[i] & 1) != 0);
  ++stats_.evictions;
  if (dirty_[i] != 0) {
    ++stats_.writebacks;
    result.writeback = true;
  }
  result.evicted = true;
  result.evicted_line = tagv_[i] >> 1;
  tagv_[i] = 0;
  dirty_[i] = 0;
}

std::uint64_t Cache::flush() {
  ++epoch_;
  ++stats_.flushes;
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < tagv_.size(); ++i) {
    if ((tagv_[i] & 1) != 0) {
      ++count;
      if (dirty_[i] != 0) ++stats_.writebacks;
    }
    tagv_[i] = 0;
    dirty_[i] = 0;
  }
  stats_.flushed_lines += count;
  replacement_->reset();
  return count;
}

Cache::FlushLineResult Cache::flush_line(ProcId proc, Addr addr) {
  const Addr line = addr >> line_shift_;
  const std::uint32_t set = set_fn_(*this, proc, line);
  ++epoch_;
  // A flush probes the set like any other lookup: the TTL clock ticks and
  // expired lines are reclaimed BEFORE the scan, so a dead line reports
  // absent (and its writeback is charged to the expiry, not the flush).
  if (ttl_enabled_) [[unlikely]] ttl_advance_and_expire(set);
  ++stats_.line_flushes;
  FlushLineResult result;
  result.set = set;
  const std::uint32_t ways = config_.geometry.ways();
  const std::size_t base = static_cast<std::size_t>(set) * ways;
  const std::uint64_t probe = (line << 1) | 1;
  for (std::uint32_t w = 0; w < ways; ++w) {
    const std::size_t i = base + w;
    if (tagv_[i] != probe) continue;
    result.present = true;
    ++stats_.line_flush_hits;
    ++stats_.flushed_lines;
    if (dirty_[i] != 0) {
      ++stats_.writebacks;
      result.writeback = true;
    }
    tagv_[i] = 0;
    dirty_[i] = 0;
    break;  // a line address is resident at most once per set
  }
  return result;
}

void Cache::reset() {
  ++epoch_;  // monotonic: a latch taken before the reset can never match
  std::fill(tagv_.begin(), tagv_.end(), std::uint64_t{0});
  std::fill(owner_.begin(), owner_.end(), 0u);
  std::fill(dirty_.begin(), dirty_.end(), std::uint8_t{0});
  stats_ = CacheStats{};
  replacement_->reset();
  mapper_->reset();
  // Invalidate resolved contexts (storage retained): the next access or
  // set_seed re-resolves against the mapper's default-seed state.
  for (ResolvedMapping& ctx : contexts_) ctx.valid = false;
  hot_.fill(HotCtx{});
  bump_set_memo();
  partitions_.clear();
  std::fill(partition_rr_.begin(), partition_rr_.end(), 0u);
  std::fill(expiry_.begin(), expiry_.end(), std::uint64_t{0});
  std::fill(ttl_.begin(), ttl_.end(), 0u);
  std::fill(ttl_floor_.begin(), ttl_floor_.end(), std::uint64_t{0});
  ttl_clock_ = 0;
  slow_fill_ = config_.random_fill_window > 0 || ttl_enabled_;
}

void Cache::set_seed(ProcId proc, Seed seed) {
  ++epoch_;
  mapper_->set_seed(proc, seed);
  // Refresh the resolved context immediately: set_seed is the "write the
  // hardware seed register" moment (paper Fig. 3).
  resolve_context(proc);
}

void Cache::set_way_partition(ProcId proc, std::uint32_t first_way,
                              std::uint32_t way_count) {
  assert(way_count >= 1);
  assert(first_way + way_count <= config_.geometry.ways());
  ++epoch_;
  partitions_.set(proc, Partition{first_way, way_count});
  if (partition_rr_.empty()) {
    partition_rr_.assign(config_.geometry.sets(), 0);
  }
  slow_fill_ = true;
}

void Cache::clear_way_partition(ProcId proc) {
  ++epoch_;
  partitions_.erase(proc);
  slow_fill_ =
      config_.random_fill_window > 0 || ttl_enabled_ || !partitions_.empty();
}

bool Cache::seed_invariant() const {
  const MapperKind mapping = mapper_->mapping_kind();
  const ReplacementKind replacement = repl_.kind;
  return (mapping == MapperKind::kModulo ||
          mapping == MapperKind::kRpCache) &&
         (replacement == ReplacementKind::kLru ||
          replacement == ReplacementKind::kFifo ||
          replacement == ReplacementKind::kPlru) &&
         config_.random_fill_window == 0 && config_.ttl_max == 0;
}

std::string Cache::name() const {
  return mapper_->name() + "/" + replacement_->name();
}

std::uint64_t Cache::valid_lines() const {
  std::uint64_t n = 0;
  for (const std::uint64_t tv : tagv_) n += tv & 1;
  return n;
}

}  // namespace tsc::cache
