// Set-associative cache model with pluggable placement and replacement.
//
// This is a *timing* model: lines carry addresses, validity, dirtiness and
// an owner process, but no data (the workloads compute functionally on host
// memory and replay their access streams here).  One access = one lookup in
// the mapped set; the model reports hit/miss plus eviction/writeback events
// so the hierarchy can account latencies and the experiments can count
// contention events.
//
// Hot-path layout (this is the innermost loop of every experiment):
//
//  * the per-process mapping is a ResolvedMapping (mapping.h) - seed-derived
//    constants and table pointers materialized at set_seed time, consulted
//    through a plain enum switch; no virtual call and no hash lookup per
//    access; a hashRP cache also memoizes each line's set for the current
//    seed epoch, since its rotator tree costs more than the rest of a hit;
//  * line state is structure-of-arrays: one packed (line_addr << 1 | valid)
//    word per way, so the lookup is a branch-light equality scan and invalid
//    ways can never match; dirty flags and owners live in side arrays only
//    touched on writes/misses;
//  * way partitions and their round-robin cursors are dense ProcId/set
//    indexed arrays, skipped entirely by a single empty() test when the
//    feature is unused;
//  * replacement metadata is manipulated through inline kernels
//    (replacement_ops.h) over the policy object's own storage.
//
// The RPCache secure-contention rule (paper section 3 / ref [27]) is
// implemented here: on a miss whose replacement victim belongs to a process
// other than the requester, the incoming line is NOT allocated and a random
// line from a random set is evicted instead, hiding which set the victim
// contended on.  It applies exactly when the mapper's kind is kRpCache.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "cache/mapper.h"
#include "cache/replacement.h"
#include "common/proc_map.h"
#include "common/types.h"
#include "rng/rng.h"

namespace tsc::cache {

/// Outcome of one cache access, consumed by the hierarchy's latency model.
struct AccessResult {
  bool hit = false;
  bool writeback = false;        ///< a dirty line was evicted
  bool allocated = true;         ///< false under the secure contention rule
  bool evicted = false;          ///< some line was evicted
  std::uint32_t set = 0;         ///< set consulted
  Addr evicted_line = 0;         ///< line address evicted (when `evicted`)
};

/// Event counters (reset together with the cache).
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  /// Always accesses - hits; materialized by Cache::stats() so the access
  /// path maintains two counters, not three.
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t contention_evictions = 0;  ///< RPCache secure-rule firings
  std::uint64_t ttl_expirations = 0;       ///< ClepsydraCache TTL evictions
  std::uint64_t flushes = 0;
  std::uint64_t flushed_lines = 0;
  std::uint64_t line_flushes = 0;      ///< flush_line probes issued
  std::uint64_t line_flush_hits = 0;   ///< probes that found the line resident

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  }
};

/// Configuration of one cache level.
struct CacheConfig {
  Geometry geometry{16 * 1024, 4, 32};
  bool write_back = true;      ///< false: write-through (no dirty state)
  bool write_allocate = true;  ///< false: write misses bypass the cache
  /// Random-fill cache (Liu & Lee, MICRO'14 - paper ref [18]): when > 0, a
  /// demand miss does NOT cache the requested line; instead a random line
  /// within +/- window lines of it is brought in.  Decouples the fill
  /// pattern from the access pattern (a security measure from the related
  /// work), at an obvious reuse cost.
  std::uint32_t random_fill_window = 0;
  /// ClepsydraCache (arXiv:2104.11469): when ttl_max > 0, every filled line
  /// receives a time-to-live drawn uniformly from [ttl_min, ttl_max],
  /// counted in accesses to this cache.  A line whose TTL elapsed is
  /// (lazily) invalidated the next time its set is probed - written back
  /// first when dirty - and a hit refreshes the line's expiry by its own
  /// stored TTL.  Randomized lifetimes decouple eviction time from
  /// contention, blunting eviction-based attacks.  Requires an rng.
  std::uint32_t ttl_min = 0;
  std::uint32_t ttl_max = 0;
};

/// The cache model.
class Cache {
 public:
  /// `mapper` decides sets; `replacement` picks victims; `rng` feeds the
  /// secure contention rule (required when the mapper is kRpCache).
  Cache(CacheConfig config, std::unique_ptr<IndexMapper> mapper,
        std::unique_ptr<Replacement> replacement,
        std::shared_ptr<rng::Rng> rng = nullptr);

  /// Perform a read (write=false) or write access.  Dispatches through a
  /// function pointer resolved at construction to the access path
  /// specialized for this cache's (mapping kind, replacement kind, way
  /// count): inside it, every design decision is a compile-time constant.
  /// Contract: deterministic - the same access sequence against the same
  /// seeds and the same rng stream reproduces identical results and stats
  /// (the differential oracle and the golden fixtures pin this).  Random
  /// draws happen only at documented points (random replacement victims,
  /// NMRU picks, the RPCache contention rule, random-fill target lines,
  /// TTL draws on fill), in a fixed order per access.
  AccessResult access(ProcId proc, Addr addr, bool write) {
    return access_fn_(*this, proc, addr, write);
  }

  /// Where a resident line sits.
  struct Location {
    std::uint32_t set = 0;
    std::uint32_t way = 0;
  };

  /// The set and way holding the line containing `addr` for `proc` (the
  /// set `proc`'s mapping gives it), if resident.  Does not update
  /// replacement state or statistics.  On a TTL cache this may find a line
  /// whose TTL already elapsed but whose set has not been probed since
  /// (expiry is lazy, and find() does not probe).  The set comes from the
  /// same mapping view access() reads (through a function pointer picked
  /// per mapping kind at construction), hashRP's set memo included.
  [[nodiscard]] std::optional<Location> find(ProcId proc, Addr addr) const {
    const std::uint32_t set = set_fn_(*this, proc, addr >> line_shift_);
    const std::optional<std::uint32_t> way = resident_way(set, addr);
    if (!way) return std::nullopt;
    return Location{set, *way};
  }

  /// Does the cache currently hold the line containing `addr` for `proc`?
  /// (find(), with the same caveat on a TTL cache.)
  [[nodiscard]] bool contains(ProcId proc, Addr addr) const {
    return find(proc, addr).has_value();
  }

  /// Write back everything dirty and invalidate all lines (paper section 5:
  /// done once per hyperperiod together with the reseed).  Returns the
  /// number of lines that were valid.
  std::uint64_t flush();

  /// Outcome of a per-line flush probe (flush_line).
  struct FlushLineResult {
    bool present = false;    ///< the line was resident and is now invalid
    bool writeback = false;  ///< it was dirty and was written back first
    std::uint32_t set = 0;   ///< set probed (the flusher's resolved view)
  };

  /// Invalidate the line containing `addr` if resident, writing it back
  /// first when dirty (the TSISA `flush rs` primitive).  The probed set is
  /// resolved through the FLUSHER's mapping context - under per-process
  /// placement seeds a cross-context flush probes the flusher's view of
  /// the address, which is the security property flush-channel attacks
  /// exercise.  On a TTL cache the probe advances the expiry clock and
  /// reclaims dead lines of the set first, exactly like access(): a line
  /// whose TTL elapsed can never report `present`.  Counted in
  /// line_flushes/line_flush_hits/flushed_lines/writebacks; NOT an access
  /// (miss_rate is about demand traffic).  Replacement metadata is left
  /// untouched: fills prefer invalid ways before consulting it, so the
  /// stale entry self-heals on the next fill of the set (the reference
  /// oracle mirrors this exactly).
  FlushLineResult flush_line(ProcId proc, Addr addr);

  /// Mutation epoch: changes whenever the residency or placement of any
  /// line may have changed - every miss (fills, evictions, the RPCache
  /// contention rule, random fill), every TTL expiry, flush(), flush_line(),
  /// set_seed(), reset() and the partition setters.  Hits never change it
  /// (the hit path gains no store).  While it stays equal, a line found by
  /// resident_way() is still resident in the same way of the same set, which
  /// is what makes latched_hits() safe.  Monotonic: never reused, reset()
  /// included.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// The way of `set` holding the line containing `addr`, if resident.
  /// A pure scan of one set: no statistics, no replacement update.
  [[nodiscard]] std::optional<std::uint32_t> resident_way(std::uint32_t set,
                                                          Addr addr) const {
    return line_way(set, addr >> line_shift_);
  }

  /// `count` (>= 1) back-to-back hits of the line resident in (`set`,
  /// `way`), reads or (`write`) writes, accounted exactly as that many
  /// access() calls would account them: accesses and hits counted, the
  /// replacement touch of the way redone (repl_touch: LRU/PLRU/NMRU touches
  /// of one way are idempotent, so one touch stands for all; FIFO and
  /// random ignore hits), the line marked dirty by a write under
  /// write-back.  On a TTL cache this is the one-line case of
  /// latched_segment.  Returns how many hits were served: `count`, or 0 on
  /// a TTL cache whose very next probe would reclaim the line (nothing
  /// changes; the caller takes access()).  Precondition: epoch() has not
  /// changed since resident_way() returned `way` for this set.
  std::uint64_t latched_hits(std::uint32_t set, std::uint32_t way,
                             std::uint64_t count, bool write) {
    if (ttl_enabled_) [[unlikely]] {
      const SegmentLine one{set, way, count, 0, count - 1,
                            count > 1 ? 1u : 0u, write};
      return ttl_latched_segment(&one, 1, count) ? count : 0;
    }
    count_hits(set, way, count, write);
    return count;
  }

  /// One resident line of a latched segment: the line in (`set`, `way`)
  /// takes `hits` hits, writes among them when `write`, probed first
  /// `first` and last `last` probes after the segment's entry, at most
  /// `gap` probes apart in between.  (No member initializers: a replayer
  /// fills a scratch array per segment.)
  struct SegmentLine {
    std::uint32_t set;
    std::uint32_t way;
    std::uint64_t hits;
    std::uint64_t first;
    std::uint64_t last;
    std::uint64_t gap;
    bool write;
  };

  /// A stretch of `probes` accesses, every one a hit on one of the `n`
  /// distinct resident lines from `lines`, given in last-touch order,
  /// accounted exactly as those access() calls: each line's hits counted,
  /// its replacement touch redone in that order (last-writer-wins for
  /// LRU, PLRU and NMRU; FIFO and random ignore hits) and, when written
  /// under write-back, the line marked dirty.  On a TTL cache the whole
  /// stretch is decided at its entry clock c0: every line must be alive at
  /// its first probe and never go `ttl` probes without one, else it returns
  /// false and changes nothing (a line would miss; the caller takes
  /// access()).  Served, each line's expiry is its last probe's refresh,
  /// c0 + last + 1 + ttl, each touched set is reclaimed once at its last
  /// probe's tick - after its lines' dirty bits are set, and expiry is
  /// monotonic in the clock, so the same lines die with the same writebacks
  /// as under every probe - and the clock ends at c0 + `probes`.
  /// Precondition: epoch() has not changed since each way was found
  /// (resident_way() or find()).
  bool latched_segment(const SegmentLine* lines, unsigned n,
                       std::uint64_t probes) {
    if (ttl_enabled_) [[unlikely]] {
      return ttl_latched_segment(lines, n, probes);
    }
    for (unsigned k = 0; k < n; ++k) {
      count_hits(lines[k].set, lines[k].way, lines[k].hits, lines[k].write);
    }
    return true;
  }

  /// Return to the just-constructed state - no valid lines, default-seed
  /// mappings, initial replacement metadata, zero stats, zero TTL clock,
  /// no partitions - while keeping every allocation (line arrays, RPCache
  /// table buffers, resolved-context storage).  With the shared rng
  /// reseeded to its construction value, a reset cache replays a freshly
  /// built one bit-exactly; runner::MachinePool relies on this.
  void reset();

  /// Change the placement seed of a process.  The caller (OS model) decides
  /// whether a flush must accompany the change for consistency.  The
  /// process's resolved mapping context is refreshed immediately.
  void set_seed(ProcId proc, Seed seed);
  [[nodiscard]] Seed seed(ProcId proc) const { return mapper_->seed(proc); }

  /// Way partitioning (the related-work isolation baseline, paper ref [20]):
  /// restrict `proc` to ways [first_way, first_way + way_count).  Its lines
  /// are then only ever *installed* in those ways, so processes with
  /// disjoint partitions cannot evict each other - at the cost of reduced
  /// effective associativity (the drawback section 7 discusses).  Within a
  /// partition, eviction is round-robin.  Lookups still search every way.
  /// Precondition: the range is inside the geometry's way count.
  void set_way_partition(ProcId proc, std::uint32_t first_way,
                         std::uint32_t way_count);
  /// Remove a process's partition restriction.
  void clear_way_partition(ProcId proc);

  [[nodiscard]] CacheStats stats() const {
    CacheStats s = stats_;
    s.misses = s.accesses - s.hits;
    return s;
  }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Is this cache's behaviour the same under every seed, for a run in which
  /// ONE process touches the cache after reset()?  Holds when the placement
  /// is modulo (reads no seed) or RPCache, the replacement draws no random
  /// number (LRU, FIFO, PLRU), and there is no random fill and no TTL.
  /// RPCache qualifies because its set is a per-process Fisher-Yates
  /// permutation of the modulo index: the seed relabels the sets but keeps
  /// modulo's conflict classes, and replacement state is per set, so every
  /// access hits, misses and evicts as under modulo.  Its contention rule
  /// never draws in such a run: it fires only when the victim line's owner
  /// differs from the requester, and after reset() every valid line was
  /// installed by the one process.  Then the hits, misses and evictions of
  /// the run, and so its time, do not depend on the seeds or the rng.
  /// Derived from the configuration alone: a design that draws a random
  /// number or reads a seed anywhere else must make this false.
  [[nodiscard]] bool seed_invariant() const;

  [[nodiscard]] const Geometry& geometry() const { return config_.geometry; }
  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] const IndexMapper& mapper() const { return *mapper_; }
  [[nodiscard]] std::string name() const;

  /// Number of valid lines currently held (tests/diagnostics).
  [[nodiscard]] std::uint64_t valid_lines() const;

 private:
  struct Partition {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// The resolved mapping of `proc`, materializing it on first use.  The
  /// cache lazily resolves contexts for processes that were never
  /// explicitly seeded (they map under the default seed); explicit
  /// set_seed refreshes eagerly.  Resolution is observationally pure, so
  /// const paths (contains) share it.
  [[nodiscard]] const ResolvedMapping& context(ProcId proc) const {
    const std::size_t i = proc.value;
    if (i < contexts_.size() && contexts_[i].valid) [[likely]] {
      return contexts_[i];
    }
    return resolve_context(proc);
  }
  [[gnu::cold]] const ResolvedMapping& resolve_context(ProcId proc) const;

  /// Devirtualized set computation over a resolved context.
  [[nodiscard]] std::uint32_t map_set(const ResolvedMapping& ctx,
                                      Addr line) const;

  /// The set of line address `line` for `proc`, specialized per mapping
  /// kind: modulo reads no context, process ids below kHotCtx read the
  /// inline hot view (hashRP through its set memo), others the full
  /// context.  access_impl inlines it; find() and flush_line() call it
  /// through set_fn_.
  using SetFn = std::uint32_t (*)(const Cache&, ProcId, Addr);
  template <MapperKind MK>
  static std::uint32_t set_of(const Cache& self, ProcId proc, Addr line);

  /// hashRP's per-line set memo: the set of (`line`, hot process `pi`)
  /// under the current generation, or hashrp_map over `ctx` stored there.
  [[nodiscard]] std::uint32_t hashrp_memo_set(std::size_t pi, Addr line,
                                              const void* ctx) const {
    const std::size_t at = (line ^ (line >> 9)) & (kSetMemo - 1);
    const SetMemoEntry& e = set_memo_view_[at];
    if (e.line == line && e.gen == set_gen_ && e.proc == pi) [[likely]] {
      return e.set;
    }
    const std::uint32_t set =
        hashrp_map(*static_cast<const HashRpContext*>(ctx), line);
    if (!set_memo_) [[unlikely]] {
      set_memo_ = map_zeroed<SetMemoEntry>(kSetMemo);
      set_memo_view_ = set_memo_.get();
    }
    set_memo_[at] =
        SetMemoEntry{line, set, set_gen_, static_cast<std::uint16_t>(pi)};
    return set;
  }
  /// Invalidate every set memo entry: a context may have changed.  On the
  /// generation's wrap the entries are zeroed, so none can match again.
  void bump_set_memo() const {
    if (++set_gen_ == 0) [[unlikely]] {
      if (set_memo_) std::fill_n(set_memo_.get(), kSetMemo, SetMemoEntry{});
      set_gen_ = 1;
    }
  }

  void evict(std::uint32_t set, std::uint32_t way, AccessResult& result);

  /// The way of `set` holding line address `line`, if resident.  (Pure
  /// array scan, no stats.)
  [[nodiscard]] std::optional<std::uint32_t> line_way(std::uint32_t set,
                                                      Addr line) const {
    const std::uint32_t ways = config_.geometry.ways();
    const std::uint64_t probe = (line << 1) | 1;
    const std::uint64_t* tv =
        tagv_.data() + static_cast<std::size_t>(set) * ways;
    for (std::uint32_t w = 0; w < ways; ++w) {
      if (tv[w] == probe) return w;
    }
    return std::nullopt;
  }

  /// The specialized access path: one instantiation per (mapping kind,
  /// replacement kind, way count).  WAYS == 0 means "runtime way count"
  /// (the generic fallback for unusual geometries).
  using AccessFn = AccessResult (*)(Cache&, ProcId, Addr, bool);
  template <MapperKind MK, ReplacementKind RK, int WAYS>
  static AccessResult access_impl(Cache& self, ProcId proc, Addr addr,
                                  bool write);
  template <MapperKind MK, ReplacementKind RK, int WAYS>
  void fill_impl(const ResolvedMapping* ctx, ProcId proc, Addr line,
                 std::uint32_t set, bool dirty, AccessResult& result);
  template <MapperKind MK, ReplacementKind RK, int WAYS>
  void random_fill(const ResolvedMapping* ctx, ProcId proc, Addr line,
                   AccessResult& result);
  /// Outlined miss handling for the uncommon configurations (random fill,
  /// way partitions): keeps the specialized hot path a leaf function.
  template <MapperKind MK, ReplacementKind RK, int WAYS>
  [[gnu::noinline]] static AccessResult access_slow(Cache& self, ProcId proc,
                                                    Addr line,
                                                    std::uint32_t set,
                                                    bool write);
  /// Outlined RPCache secure-contention handling (draws from the rng).
  [[gnu::noinline]] AccessResult contention_evict(std::uint32_t set);
  /// `count` hits of the line in (`set`, `way`), writes among them when
  /// `write`: the counters, one replacement touch, and the dirty bit.
  void count_hits(std::uint32_t set, std::uint32_t way, std::uint64_t count,
                  bool write) {
    stats_.accesses += count;
    stats_.hits += count;
    repl_touch(repl_, set, way);
    if (write && config_.write_back) {
      dirty_[static_cast<std::size_t>(set) * config_.geometry.ways() + way] =
          1;
    }
  }
  /// TTL (ClepsydraCache) bookkeeping: advance the access clock and lazily
  /// invalidate expired lines of the probed set (outlined: only TTL caches
  /// pay for it); refresh a hit line's expiry; draw a fresh TTL for a
  /// newly filled line.  Only called when ttl_enabled_.
  void ttl_advance_and_expire(std::uint32_t set) {
    ++ttl_clock_;
    if (ttl_floor_[set] <= ttl_clock_) ttl_expire(set, ttl_clock_);
  }
  /// Reclaim the lines of `set` whose TTL elapsed by clock value `now`,
  /// then set the set's floor to its earliest remaining expiry.  Callers
  /// skip it while ttl_floor_[set] > now: no line can have died.
  [[gnu::noinline]] void ttl_expire(std::uint32_t set, std::uint64_t now);
  /// The TTL survival rule: does the line at `index` hit on every probe
  /// of a stretch that probes it first `first` ticks after the current
  /// clock's next and then at most `gap` ticks apart?  A probe ticks the
  /// clock before it reclaims, so the first one finds the line alive iff
  /// its expiry lies past clock + first + 1; each hit refreshes the line to
  /// (tick + TTL), so the next finds it alive iff it comes fewer than TTL
  /// ticks later.
  [[nodiscard]] bool ttl_survives(std::size_t index, std::uint64_t first,
                                  std::uint64_t gap) const {
    return expiry_[index] > ttl_clock_ + first + 1 && gap < ttl_[index];
  }
  /// latched_segment on a TTL cache.
  [[gnu::noinline]] bool ttl_latched_segment(const SegmentLine* lines,
                                             unsigned n, std::uint64_t probes);
  void ttl_refresh(std::size_t index) {
    expiry_[index] = ttl_clock_ + ttl_[index];
  }
  void ttl_on_fill(std::uint32_t set, std::size_t index) {
    const std::uint64_t span =
        std::uint64_t{config_.ttl_max} - config_.ttl_min + 1;
    const auto ttl = static_cast<std::uint32_t>(config_.ttl_min +
                                                rng_->next_below(span));
    ttl_[index] = ttl;
    expiry_[index] = ttl_clock_ + ttl;
    ttl_floor_[set] = std::min(ttl_floor_[set], expiry_[index]);
  }
  [[nodiscard]] AccessFn pick_access_fn() const;
  [[nodiscard]] SetFn pick_set_fn() const;
  friend struct CacheAccessCompiler;  ///< instantiates the access_impl table

  CacheConfig config_;
  std::unique_ptr<IndexMapper> mapper_;
  std::unique_ptr<Replacement> replacement_;
  std::shared_ptr<rng::Rng> rng_;
  CacheStats stats_;
  std::uint64_t epoch_ = 0;  ///< see epoch(); bumped off the hit path only

  // Geometry constants flattened out of config_.geometry: the access path
  // reads them every simulated access, and deriving offset/index widths via
  // countr_zero per access showed up in the profile.
  unsigned line_shift_ = 0;       ///< geometry offset_bits()
  std::uint32_t sets_mask_ = 0;   ///< sets - 1

  // Structure-of-arrays line state, indexed [set * ways + way].
  std::vector<std::uint64_t> tagv_;   ///< (line_addr << 1) | valid
  std::vector<std::uint32_t> owner_;  ///< installing process id
  std::vector<std::uint8_t> dirty_;
  // TTL state (allocated only when ttl_enabled_), same indexing.  The
  // clock counts accesses to THIS cache and is deployment state, not a
  // statistic: reset() zeroes it, reset_stats() does not.
  std::vector<std::uint64_t> expiry_;  ///< clock value at which a line dies
  std::vector<std::uint32_t> ttl_;     ///< the line's drawn TTL (for refresh)
  /// Per set, a lower bound on the expiries of its valid lines: lowered by
  /// each fill, recomputed by ttl_expire, zero after reset().  Hits and
  /// latched segments only raise expiries, and flushes only drop lines,
  /// so neither needs to touch it.
  std::vector<std::uint64_t> ttl_floor_;
  std::uint64_t ttl_clock_ = 0;

  mutable std::vector<ResolvedMapping> contexts_;  ///< per-process, dense

  /// The access path's view of a resolved context: the one or two words the
  /// specialized mapping actually reads, stored inline in the Cache object
  /// so the common probe is self-relative loads with no vector indirection.
  /// `ptr` aliases mapper/context storage (RPCache table, RM placement,
  /// HashRpContext inside contexts_) and is refreshed by resolve_context
  /// whenever contexts_ reallocates or a seed changes.  A null ptr means
  /// "not resolved yet" - resolve_context always installs a non-null one
  /// (a 16-byte entry keeps the index a shift, not a multiply).
  struct HotCtx {
    std::uint64_t word = 0;      ///< xor_mask / premixed RM seed
    const void* ptr = nullptr;   ///< rp_table / RM placement / hashrp ctx
  };
  static constexpr std::size_t kHotCtx = 16;
  mutable std::array<HotCtx, kHotCtx> hot_{};

  /// hashRP's per-line set memo, exact by construction: set_gen_ moves
  /// whenever any context is resolved and on reset(), and an entry counts
  /// only under the generation it was stored in.  It starts at 1, so the
  /// zeroed entries match nothing.  Indexed by the line XOR-folded
  /// (line ^ line >> 9): low bits alone alias arrays 2^k lines apart.
  /// The table is mapped at the first store (map_zeroed); until then, and
  /// on every other design, which never reads it, set_memo_view_ reads a
  /// shared all-zero table.
  struct SetMemoEntry {
    Addr line = 0;
    std::uint32_t set = 0;
    std::uint16_t gen = 0;
    std::uint16_t proc = 0;  ///< hot process id (< kHotCtx)
  };
  static constexpr std::size_t kSetMemo = 1024;
  static const SetMemoEntry kUnbuiltSetMemo[kSetMemo];
  mutable MappedMemo<SetMemoEntry> set_memo_;
  mutable const SetMemoEntry* set_memo_view_ = kUnbuiltSetMemo;
  mutable std::uint16_t set_gen_ = 1;

  ReplacementFast repl_;          ///< raw view into *replacement_
  AccessFn access_fn_;            ///< specialized hot path
  SetFn set_fn_;                  ///< set_of for this mapping kind
  bool ttl_enabled_ = false;      ///< config_.ttl_max > 0 (ClepsydraCache)
  /// random_fill_window > 0, TTL enabled, or any way partition installed:
  /// misses leave through the outlined slow path.  One flag, one test per
  /// miss.
  bool slow_fill_ = false;

  ProcIndexed<Partition> partitions_;
  std::vector<std::uint32_t> partition_rr_;  // per-set round-robin cursor
};

}  // namespace tsc::cache
