// Differential harness: the optimized Cache vs the naive reference model
// (tests/reference_cache.h), replaying identical randomized access streams
// through both and demanding exact equality of every AccessResult field and
// of the final statistics.
//
// This is the oracle the hot-path overhaul is pinned by: the specialized
// (mapping x replacement x way-count) access templates, the SoA/SWAR/SSE
// scans, the fused LRU update, the outlined partition/contention paths and
// the resolved mapping contexts must all be observationally identical to
// the plain map-based model for EVERY design point - not just the fixtures
// unit tests happen to cover.  Streams include writes, reseeds mid-stream,
// whole-cache flushes AND per-line flush probes (the Flush+Reload /
// Flush+Flush primitive: resolved-mapping set choice, TTL tick-then-scan
// ordering, dirty writeback, untouched replacement metadata), across
// multiple processes, under ASan/UBSan in CI.
//
// Each design point replays a >= 1e5-access stream.  Way counts cover both
// access paths: 4 ways takes the specialized WAYS == 4 template (with the
// SSE4.1 probe scan and fused LRU), 1/2/8 ways take the generic WAYS == 0
// specialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cache/builder.h"
#include "core/policy.h"
#include "reference_cache.h"
#include "rng/rng.h"
#include "sim/hierarchy.h"

namespace tsc::cache {
namespace {

constexpr std::size_t kStreamLength = 100'000;

struct NamedGeometry {
  Geometry geometry;
  const char* name;
};

const NamedGeometry kGeometries[] = {
    {Geometry(4096, 1, 32), "dm128"},    // direct-mapped, generic path
    {Geometry(2048, 2, 32), "2w32"},     // 2-way, generic path
    {Geometry(4096, 4, 32), "4w32"},     // 4-way, SPECIALIZED path
    {Geometry(8192, 8, 32), "8w32"},     // 8-way, generic path
};

using Combo = std::tuple<NamedGeometry, MapperKind, ReplacementKind, bool>;

std::string combo_label(const Combo& combo) {
  std::string s = std::string(std::get<0>(combo).name) + "_" +
                  to_string(std::get<1>(combo)) + "_" +
                  to_string(std::get<2>(combo)) +
                  (std::get<3>(combo) ? "_part" : "");
  for (char& c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return s;
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
  return combo_label(info.param);
}

/// Replay one randomized stream through both models and compare exhaustively.
/// The flush periods control how often structural flush events interleave
/// with the demand traffic; the dense-flush policy sweep tightens them.
void run_differential(const CacheSpec& spec, bool partitioned,
                      std::uint64_t seed, std::size_t stream_length,
                      std::size_t line_flush_period = 577,
                      std::size_t full_flush_period = 23459) {
  // Same-seeded but SEPARATE generators: the models must consume random
  // draws at exactly the same points to stay aligned.
  auto fast_rng = std::make_shared<rng::XorShift64Star>(seed);
  auto ref_rng = std::make_shared<rng::XorShift64Star>(seed);
  const std::unique_ptr<Cache> fast = build_cache(spec, fast_rng);
  ReferenceCache ref(spec, ref_rng);

  const std::uint32_t ways = spec.config.geometry.ways();
  const std::uint32_t line = spec.config.geometry.line_bytes();
  const Addr size = spec.config.geometry.size_bytes();

  const ProcId procs[] = {ProcId{1}, ProcId{2}, ProcId{3}};
  for (const ProcId p : procs) {
    const Seed s{rng::derive_seed(seed, 0x5EED00 + p.value)};
    fast->set_seed(p, s);
    ref.set_seed(p, s);
  }
  if (partitioned) {
    // Procs 1 and 2 split the ways (sharing everything when there is only
    // one); proc 3 stays unpartitioned - the mixed case the fill path must
    // get right.
    const std::uint32_t half = ways >= 2 ? ways / 2 : 1;
    const std::uint32_t rest = ways >= 2 ? ways - half : 1;
    fast->set_way_partition(ProcId{1}, 0, half);
    ref.set_way_partition(ProcId{1}, 0, half);
    fast->set_way_partition(ProcId{2}, ways >= 2 ? half : 0, rest);
    ref.set_way_partition(ProcId{2}, ways >= 2 ? half : 0, rest);
  }

  rng::XorShift64Star script(rng::derive_seed(seed, 0xD1FF));
  for (std::size_t i = 0; i < stream_length; ++i) {
    // Occasional structural events: reseed one process (placement changes,
    // contents stay), flush everything.
    if (i % 9973 == 9972) {
      const ProcId p = procs[script.next_below(3)];
      const Seed s{script.next_u64()};
      fast->set_seed(p, s);
      ref.set_seed(p, s);
    }
    if (i % full_flush_period == full_flush_period - 1) {
      const std::uint64_t flushed = fast->flush();
      ASSERT_EQ(flushed, ref.flush()) << "flush divergence at access " << i;
    }
    if (i % line_flush_period == line_flush_period - 1) {
      // Per-line flush probe: the FLUSHER'S resolved mapping picks the set
      // (proc A flushing a line proc B cached scans A's set, not B's), the
      // TTL clock ticks and expires BEFORE the scan, a dirty copy writes
      // back, and replacement metadata stays untouched.  Same hot/cold
      // address split as the demand traffic so present-flushes are common.
      const ProcId fp = procs[script.next_below(3)];
      const Addr fregion = script.next_bool() ? size / 2 : 4 * size;
      const Addr faddr = script.next_below(fregion / line) * line;
      const Cache::FlushLineResult got_f = fast->flush_line(fp, faddr);
      const ReferenceCache::FlushLineResult want_f = ref.flush_line(fp, faddr);
      ASSERT_EQ(got_f.present, want_f.present) << "line flush at access " << i;
      ASSERT_EQ(got_f.writeback, want_f.writeback)
          << "line flush at access " << i;
      ASSERT_EQ(got_f.set, want_f.set) << "line flush at access " << i;
    }

    const ProcId proc = procs[script.next_below(3)];
    // Half the traffic in a hot half-cache region (hits, dirty reuse), half
    // across 4x the capacity (misses, evictions).
    const Addr region = script.next_bool() ? size / 2 : 4 * size;
    const Addr addr = script.next_below(region / line) * line;
    const bool write = script.next_below(100) < 30;

    const AccessResult got = fast->access(proc, addr, write);
    const ReferenceCache::Result want = ref.access(proc, addr, write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i;
    ASSERT_EQ(got.set, want.set) << "access " << i;
    ASSERT_EQ(got.allocated, want.allocated) << "access " << i;
    ASSERT_EQ(got.evicted, want.evicted) << "access " << i;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    ASSERT_EQ(got.evicted_line, want.evicted_line) << "access " << i;
  }

  const CacheStats got = fast->stats();
  const ReferenceCache::Stats& want = ref.stats();
  EXPECT_EQ(got.accesses, want.accesses);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.accesses - want.hits);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.writebacks, want.writebacks);
  EXPECT_EQ(got.contention_evictions, want.contention_evictions);
  EXPECT_EQ(got.ttl_expirations, want.ttl_expirations);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.flushed_lines, want.flushed_lines);
  EXPECT_EQ(got.line_flushes, want.line_flushes);
  EXPECT_EQ(got.line_flush_hits, want.line_flush_hits);
  EXPECT_EQ(fast->valid_lines(), ref.valid_lines());
}

class EveryDesignPoint : public ::testing::TestWithParam<Combo> {};

TEST_P(EveryDesignPoint, FastPathMatchesReferenceExactly) {
  const auto& [geometry, mapper, replacement, partitioned] = GetParam();
  CacheSpec spec;
  spec.config.geometry = geometry.geometry;
  spec.mapper = mapper;
  spec.replacement = replacement;
  // Per-point stream seed: distinct streams per design point, stable
  // across runs.
  const std::uint64_t seed =
      0xD1FF'0000 + std::hash<std::string>{}(combo_label(GetParam())) % 0xFFFF;
  run_differential(spec, partitioned, seed, kStreamLength);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryDesignPoint,
    ::testing::Combine(
        ::testing::ValuesIn(kGeometries),
        ::testing::Values(MapperKind::kModulo, MapperKind::kXorIndex,
                          MapperKind::kHashRp, MapperKind::kRandomModulo,
                          MapperKind::kRpCache),
        ::testing::Values(ReplacementKind::kLru, ReplacementKind::kFifo,
                          ReplacementKind::kRandom, ReplacementKind::kPlru,
                          ReplacementKind::kNmru),
        ::testing::Bool()),
    combo_name);

// The secure-cache extensions the policy axis ships (random-fill for
// Random-and-Safe, per-line TTLs for ClepsydraCache) run on the outlined
// slow-fill path; their rng draw order (neighbour line before any victim
// draw, TTL after the fill's draws) is part of the oracle contract.  Cover
// both access paths and a spread of mappings/replacements, plus the
// combined and partitioned cases.  Streams are shorter than the main
// matrix (these multiply on top of it), still >= 4x10^4 accesses each.

constexpr std::size_t kExtStreamLength = 40'000;

TEST(DifferentialRandomFill, MatchesReferenceAcrossDesigns) {
  const NamedGeometry geometries[] = {
      {Geometry(4096, 4, 32), "4w32"},   // specialized path
      {Geometry(8192, 8, 32), "8w32"},   // generic path
      {Geometry(4096, 1, 32), "dm128"},  // direct-mapped
  };
  std::uint64_t seed = 0xAB5AFE00;
  for (const NamedGeometry& geometry : geometries) {
    for (const MapperKind mapper : {MapperKind::kModulo, MapperKind::kHashRp}) {
      for (const ReplacementKind repl :
           {ReplacementKind::kRandom, ReplacementKind::kLru}) {
        CacheSpec spec;
        spec.config.geometry = geometry.geometry;
        spec.config.random_fill_window = 8;
        spec.mapper = mapper;
        spec.replacement = repl;
        SCOPED_TRACE(spec.describe());
        run_differential(spec, /*partitioned=*/false, ++seed,
                         kExtStreamLength);
      }
    }
  }
}

TEST(DifferentialRandomFill, PartitionedWriteAroundCombinations) {
  CacheSpec spec;
  spec.config.geometry = Geometry(4096, 4, 32);
  spec.config.random_fill_window = 4;
  spec.mapper = MapperKind::kModulo;
  spec.replacement = ReplacementKind::kRandom;
  run_differential(spec, /*partitioned=*/true, 0xAB5AFE80, kExtStreamLength);
  spec.config.write_allocate = false;  // write misses bypass; reads random-fill
  run_differential(spec, /*partitioned=*/false, 0xAB5AFE81, kExtStreamLength);
}

TEST(DifferentialRandomFill, WindowIsClampedAtLineZero) {
  // Demand misses of lines 0-7 under a window of 8 draw their neighbour
  // from [0, line + 8]: never from below line 0, which would wrap to a
  // line address near 2^64.  Every filled line must therefore be one of
  // lines 0-15, and the reference must fill the same ones.
  constexpr Addr kLineBytes = 32;
  const ProcId proc{1};
  for (const MapperKind mapper : {MapperKind::kModulo, MapperKind::kHashRp}) {
    CacheSpec spec;
    spec.config.geometry = Geometry(4096, 4, kLineBytes);
    spec.config.random_fill_window = 8;
    spec.mapper = mapper;
    spec.replacement = ReplacementKind::kRandom;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
      SCOPED_TRACE(spec.describe() + " seed " + std::to_string(seed));
      const std::unique_ptr<Cache> fast =
          build_cache(spec, std::make_shared<rng::XorShift64Star>(seed));
      ReferenceCache ref(spec, std::make_shared<rng::XorShift64Star>(seed));
      fast->set_seed(proc, Seed{seed});
      ref.set_seed(proc, Seed{seed});
      for (Addr line = 0; line < 8; ++line) {
        const AccessResult got = fast->access(proc, line * kLineBytes, false);
        const ReferenceCache::Result want =
            ref.access(proc, line * kLineBytes, false);
        ASSERT_EQ(got.hit, want.hit) << "line " << line;
        ASSERT_EQ(got.set, want.set) << "line " << line;
        ASSERT_EQ(got.allocated, want.allocated) << "line " << line;
        ASSERT_EQ(got.evicted, want.evicted) << "line " << line;
      }
      const std::uint64_t filled = fast->valid_lines();
      EXPECT_GT(filled, 0u);
      EXPECT_EQ(filled, ref.valid_lines());
      std::uint64_t in_range = 0;
      for (Addr line = 0; line < 16; ++line) {
        const bool present = fast->flush_line(proc, line * kLineBytes).present;
        EXPECT_EQ(present, ref.flush_line(proc, line * kLineBytes).present)
            << "line " << line;
        in_range += present ? 1 : 0;
      }
      EXPECT_EQ(in_range, filled) << "a filled line lies outside lines 0-15";
    }
  }
}

TEST(DifferentialTtl, MatchesReferenceAcrossDesigns) {
  // Short lifetimes so expiry fires constantly within the stream.
  const NamedGeometry geometries[] = {
      {Geometry(4096, 4, 32), "4w32"},  // specialized path
      {Geometry(2048, 2, 32), "2w32"},  // generic path
  };
  std::uint64_t seed = 0xC1EA0000;
  for (const NamedGeometry& geometry : geometries) {
    for (const MapperKind mapper : {MapperKind::kHashRp, MapperKind::kModulo,
                                    MapperKind::kRpCache}) {
      for (const ReplacementKind repl :
           {ReplacementKind::kRandom, ReplacementKind::kLru}) {
        CacheSpec spec;
        spec.config.geometry = geometry.geometry;
        spec.config.ttl_min = 64;
        spec.config.ttl_max = 512;
        spec.mapper = mapper;
        spec.replacement = repl;
        SCOPED_TRACE(spec.describe());
        run_differential(spec, /*partitioned=*/false, ++seed,
                         kExtStreamLength);
      }
    }
  }
}

TEST(DifferentialTtl, PartitionedAndCombinedWithRandomFill) {
  CacheSpec spec;
  spec.config.geometry = Geometry(4096, 4, 32);
  spec.config.ttl_min = 64;
  spec.config.ttl_max = 512;
  spec.mapper = MapperKind::kHashRp;
  spec.replacement = ReplacementKind::kRandom;
  run_differential(spec, /*partitioned=*/true, 0xC1EA0080, kExtStreamLength);
  // TTL + random fill stacked: the neighbour draw precedes the fill's
  // victim draw, which precedes the TTL draw - the full draw-order chain.
  spec.config.random_fill_window = 8;
  run_differential(spec, /*partitioned=*/false, 0xC1EA0081, kExtStreamLength);
}

TEST(DifferentialTtl, ExpiryFloorKeepsEveryLineDyingOnItsTick) {
  // The cache skips reclaiming a set while a per-set lower bound on its
  // lines' expiries lies past the clock.  Every way that bound could go
  // stale - a refresh, a latched segment extending lines, a line flush, a
  // reset - is followed here by probes of the same sets, compared against
  // the reference after every one.  A fixed lifetime of 10 probes makes
  // each death's tick known: a stale bound would let a dead line hit, or
  // die a tick late.
  CacheSpec spec;
  spec.config.geometry = Geometry(512, 4, 16);  // 8 sets, 4 ways
  spec.config.ttl_min = 10;
  spec.config.ttl_max = 10;
  spec.mapper = MapperKind::kModulo;
  spec.replacement = ReplacementKind::kLru;
  const ProcId proc{1};
  const auto addr = [](std::uint32_t set, Addr tag) {
    return (tag * 8 + set) * 16;
  };
  auto fast_rng = std::make_shared<rng::XorShift64Star>(0x77F1);
  const std::unique_ptr<Cache> fast = build_cache(spec, fast_rng);
  auto ref = std::make_unique<ReferenceCache>(
      spec, std::make_shared<rng::XorShift64Star>(0x77F1));

  std::uint64_t tick = 0;  // the TTL clock: one per probe
  const auto expect_same_state = [&] {
    ASSERT_EQ(fast->stats().ttl_expirations, ref->stats().ttl_expirations)
        << "tick " << tick;
    ASSERT_EQ(fast->stats().writebacks, ref->stats().writebacks)
        << "tick " << tick;
    ASSERT_EQ(fast->stats().hits, ref->stats().hits) << "tick " << tick;
    ASSERT_EQ(fast->valid_lines(), ref->valid_lines()) << "tick " << tick;
  };
  const auto both = [&](Addr a, bool write) {
    ++tick;
    const AccessResult got = fast->access(proc, a, write);
    const ReferenceCache::Result want = ref->access(proc, a, write);
    ASSERT_EQ(got.hit, want.hit) << "tick " << tick;
    ASSERT_EQ(got.evicted, want.evicted) << "tick " << tick;
    ASSERT_EQ(got.writeback, want.writeback) << "tick " << tick;
    expect_same_state();
  };
  const Addr a = addr(0, 1);
  const Addr b = addr(1, 1);
  const Addr c = addr(0, 2);
  const Addr d = addr(0, 3);
  const Addr e = addr(0, 4);
  // Probe set 0 with e (a hit after its fill) through tick `until`; `dies`
  // is the tick that must reclaim `line`.
  const auto probe_until = [&](std::uint64_t until, Addr line,
                               std::uint64_t dies) {
    while (tick < until) {
      both(e, false);
      if (::testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(fast->contains(proc, line), tick < dies) << "tick " << tick;
    }
  };

  both(a, true);   // tick 1: expiry 11
  both(c, false);  // 2: 12
  both(b, false);  // 3 (set 1): 13
  for (int i = 0; i < 2; ++i) {
    both(a, false);  // refreshes: a to 14, then 16
    both(b, false);
  }
  both(c, false);  // 8: 18
  both(a, false);  // 9: 19
  both(d, true);   // 10: dirty, expiry 20
  for (int i = 0; i < 3; ++i) both(b, false);  // 11-13, set 1 only
  both(c, false);  // 14: 24
  both(a, false);  // 15: 25
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  ASSERT_EQ(tick, 15u);
  ASSERT_EQ(fast->stats().ttl_expirations, 0u);

  // A latched segment over a, b and c at ticks 16-22; the reference takes
  // its probes one by one.  d dies at tick 21 (c's probe) there, and at
  // set 0's last probe (tick 22) here: the same writeback either way.
  // Last-touch order: b (last 4), c (last 5), a (last 6).
  const Addr seq[] = {a, b, c, a, b, c, a};
  const std::uint64_t probes = std::size(seq);
  std::vector<Cache::SegmentLine> lines;
  for (const Addr line : {b, c, a}) {
    const std::optional<Cache::Location> at = fast->find(proc, line);
    ASSERT_TRUE(at.has_value());
    Cache::SegmentLine l{at->set, at->way, 0, 0, 0, 0, line == a};
    std::uint64_t prev = 0;
    for (std::uint64_t t = 0; t < probes; ++t) {
      if (seq[t] != line) continue;
      if (l.hits == 0) {
        l.first = t;
      } else {
        l.gap = std::max(l.gap, t - prev);
      }
      l.last = prev = t;
      ++l.hits;
    }
    lines.push_back(l);
  }
  ASSERT_TRUE(fast->latched_segment(lines.data(),
                                    static_cast<unsigned>(lines.size()),
                                    probes));
  for (const Addr line : seq) {
    ASSERT_TRUE(ref->access(proc, line, line == a).hit);
  }
  tick += probes;
  expect_same_state();
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_EQ(fast->stats().ttl_expirations, 1u) << "d must die in the segment";
  EXPECT_FALSE(fast->contains(proc, d));

  // The segment left a's expiry at 22 + 10 = 32.  A line flush of c (tick
  // 23), then e's fill (tick 24) and hits: a must die on tick 32 exactly.
  ++tick;
  const Cache::FlushLineResult got_flush = fast->flush_line(proc, c);
  ASSERT_TRUE(got_flush.present);
  ASSERT_EQ(got_flush.present, ref->flush_line(proc, c).present);
  expect_same_state();
  probe_until(40, a, 32);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());

  // reset() zeroes the clock and the bounds; the reference restarts fresh.
  fast->reset();
  fast_rng->reseed(0x77F2);
  ref = std::make_unique<ReferenceCache>(
      spec, std::make_shared<rng::XorShift64Star>(0x77F2));
  tick = 0;
  both(a, true);  // tick 1: expiry 11
  probe_until(14, a, 11);
}

// Write-policy variants are orthogonal to the matrix dimensions; cover them
// on both access paths (4-way specialized, 8-way generic).

TEST(DifferentialWritePolicies, WriteThroughMatchesReference) {
  CacheSpec spec;
  spec.config.geometry = Geometry(4096, 4, 32);
  spec.config.write_back = false;
  spec.mapper = MapperKind::kModulo;
  spec.replacement = ReplacementKind::kLru;
  run_differential(spec, /*partitioned=*/false, 0xBEEF01, kStreamLength);
}

TEST(DifferentialWritePolicies, WriteAroundMatchesReference) {
  CacheSpec spec;
  spec.config.geometry = Geometry(8192, 8, 32);
  spec.config.write_allocate = false;
  spec.mapper = MapperKind::kRandomModulo;
  spec.replacement = ReplacementKind::kRandom;
  run_differential(spec, /*partitioned=*/false, 0xBEEF02, kStreamLength);
}

// Flush-semantics bug hunt: line flushes and whole-cache flushes interleaved
// DENSELY (every 7th / 1013th event) into the demand stream, under the
// ACTUAL per-level cache configurations of all seven matrix policies - the
// Clepsydra levels bring per-line TTLs (tick-then-scan ordering on every
// flush probe), the Random-and-Safe levels bring random fill (the demanded
// line is absent, so flush probes of just-missed lines must miss too), the
// TimeCache/modulo/hashRP/RPCache/RM levels pin the plain and permutation
// mappings.  Every divergence the resolved-mapping fast path could hide
// (wrong set scanned for a cross-process flush, TTL expiry attributed to
// the flush hit, writeback double-count, replacement metadata disturbed)
// surfaces here as an exact-equality failure against the naive oracle.

TEST(DifferentialFlush, DenseFlushStormsMatchReferenceForEveryPolicyLevel) {
  std::uint64_t seed = 0xF1005'0000;
  for (const core::PlacementPolicy policy : core::all_policies()) {
    const sim::HierarchyConfig config = core::policy_hierarchy_config(policy);
    const struct {
      const CacheSpec* spec;
      const char* name;
    } levels[] = {{&config.l1d, "l1d"}, {&config.l2.value(), "l2"}};
    for (const auto& level : levels) {
      SCOPED_TRACE(core::to_string(policy) + "/" + level.name);
      run_differential(*level.spec, /*partitioned=*/false, ++seed, 20'000,
                       /*line_flush_period=*/7, /*full_flush_period=*/1013);
      run_differential(*level.spec, /*partitioned=*/true, ++seed, 20'000,
                       /*line_flush_period=*/7, /*full_flush_period=*/1013);
    }
  }
}

}  // namespace
}  // namespace tsc::cache
