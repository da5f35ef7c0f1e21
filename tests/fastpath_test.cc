// Tests for the devirtualized access path introduced by the hot-path
// overhaul: resolved mapping contexts, SoA line storage, specialized
// replacement kernels, the seeded-placement memos (RM's Benes memo and
// hashRP's per-line set memo), RPCache in-place reseeding, and trace
// replay through Machine::replay.
//
// The placement-equivalence tests pin the resolved-context math against
// independent re-implementations of the ORIGINAL seed formulas (written out
// here, not shared with the library), so a silent algebraic drift in the
// optimized helpers cannot pass.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cache/benes.h"
#include "cache/builder.h"
#include "cache/mapper.h"
#include "cache/placement.h"
#include "common/bitops.h"
#include "rng/rng.h"
#include "sim/machine.h"

namespace tsc::cache {
namespace {

constexpr ProcId kP1{1};
constexpr ProcId kP2{2};

std::shared_ptr<rng::Rng> test_rng(std::uint64_t seed = 42) {
  return std::make_shared<rng::XorShift64Star>(seed);
}

// --- independent references (the seed implementation's math, restated) ----

constexpr std::uint64_t ref_mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint32_t ref_xor_index(const Geometry& g, Addr line, Seed seed) {
  const std::uint32_t idx = g.index_of_line(line);
  const auto mask =
      static_cast<std::uint32_t>(ref_mix64(seed.value) & (g.sets() - 1));
  return idx ^ mask;
}

std::uint32_t ref_hashrp(const Geometry& g, unsigned line_addr_bits,
                         Addr line, Seed seed) {
  const unsigned w = g.index_bits() == 0 ? 1 : g.index_bits();
  const std::uint64_t s = ref_mix64(seed.value);
  const std::uint64_t la = line & low_mask(line_addr_bits);
  const unsigned field_count = (line_addr_bits + w - 1) / w;
  const unsigned lane = w + 1;
  std::uint64_t acc = bits(s, 48, w);
  for (unsigned i = 0; i < field_count; ++i) {
    const unsigned lo = i * w;
    const unsigned width =
        lane < line_addr_bits - lo ? lane : line_addr_bits - lo;
    const std::uint64_t field = bits(la, lo, width) ^ bits(s, (7 * i) % 40, lane);
    const unsigned neighbour_lo = ((i + 1) % field_count) * w;
    const auto amt = static_cast<unsigned>(
        (bits(s, w + 4 * i, 4) ^ bits(la, neighbour_lo, 4)) & 0xF);
    acc ^= rotl_field(field, lane, amt) & low_mask(w);
  }
  return static_cast<std::uint32_t>(acc & (g.sets() - 1));
}

std::uint32_t ref_random_modulo(const Geometry& g, Addr line, Seed seed) {
  const unsigned k = g.index_bits();
  if (k == 0) return 0;
  const std::uint32_t idx = g.index_of_line(line);
  const Addr tag = g.tag_of_line(line);
  const std::uint64_t s = ref_mix64(seed.value);
  const auto xored_idx =
      static_cast<std::uint32_t>((idx ^ s) & (g.sets() - 1));
  const std::uint64_t driver = tag ^ (s >> k);
  const std::vector<std::uint32_t> perm = benes_permutation(k, driver);
  std::uint32_t out = 0;
  for (unsigned i = 0; i < k; ++i) {
    out |= ((xored_idx >> perm[i]) & 1u) << i;
  }
  return out;
}

// --- placement equivalence ------------------------------------------------

TEST(FastPathEquivalence, XorIndexMatchesReference) {
  const Geometry g = l1_geometry_arm920t();
  const auto p = make_placement(MapperKind::kXorIndex, g);
  rng::SplitMix64 r(7);
  for (int i = 0; i < 5000; ++i) {
    const Addr line = r.next_u64() >> 37;
    const Seed seed{r.next_u64()};
    EXPECT_EQ(p->set_index(line, seed), ref_xor_index(g, line, seed));
  }
}

TEST(FastPathEquivalence, HashRpMatchesReference) {
  for (const Geometry& g :
       {l1_geometry_arm920t(), l2_geometry_arm920t(), Geometry(4096, 2, 16)}) {
    const HashRpPlacement p(g);
    const unsigned line_addr_bits = 32 - g.offset_bits();
    rng::SplitMix64 r(11);
    for (int i = 0; i < 3000; ++i) {
      const Addr line = r.next_u64() & low_mask(line_addr_bits);
      const Seed seed{r.next_u64()};
      ASSERT_EQ(p.set_index(line, seed),
                ref_hashrp(g, line_addr_bits, line, seed))
          << "line " << line << " seed " << seed.value;
    }
  }
}

TEST(FastPathEquivalence, RandomModuloMatchesReference) {
  // Covers both memo layouts: the per-driver LUT (k <= 8, the L1 shape) and
  // the source-index permute (k > 8, the L2 shape).
  for (const Geometry& g : {l1_geometry_arm920t(), l2_geometry_arm920t()}) {
    const RandomModuloPlacement p(g);
    rng::SplitMix64 r(13);
    for (int i = 0; i < 3000; ++i) {
      const Addr line = r.next_u64() >> 37;
      const Seed seed{r.next_u64() & 0xFFFF};  // repeat seeds: exercise memo
      ASSERT_EQ(p.set_index(line, seed), ref_random_modulo(g, line, seed))
          << "line " << line << " seed " << seed.value;
    }
  }
}

TEST(FastPathEquivalence, CacheAccessSetMatchesMapperMap) {
  // The specialized access path and the virtual mapper must consult the
  // same set for every design.
  for (const MapperKind mk :
       {MapperKind::kModulo, MapperKind::kXorIndex, MapperKind::kHashRp,
        MapperKind::kRandomModulo, MapperKind::kRpCache}) {
    CacheSpec spec;
    spec.config.geometry = l1_geometry_arm920t();
    spec.mapper = mk;
    spec.replacement = ReplacementKind::kLru;
    auto c = build_cache(spec, test_rng());
    c->set_seed(kP1, Seed{0xABCDEF});
    rng::SplitMix64 r(17);
    for (int i = 0; i < 2000; ++i) {
      const Addr addr = r.next_u64() >> 30;
      const Addr line = spec.config.geometry.line_addr(addr);
      ASSERT_EQ(c->access(kP1, addr, false).set, c->mapper().map(line, kP1))
          << to_string(mk);
    }
  }
}

// --- seeded-placement memos ------------------------------------------------

/// The line addresses memcpy's arrays start at (0x40000 and 0x60000, 32-byte
/// lines): 4096 lines apart, equal in their low 12 bits.
constexpr Addr kAliasedLines[] = {0x40000 >> 5, 0x60000 >> 5};

/// access(), find() and flush_line() of `c` must all give `line` the set
/// `want`.  Lines that access() fills are resident for find(); the flush
/// drops the line again (its probe resolves the set the same way).
void expect_every_lookup_sets(Cache& c, ProcId proc, Addr line,
                              std::uint32_t want, const char* what) {
  const Addr addr = line << c.geometry().offset_bits();
  ASSERT_EQ(c.access(proc, addr, false).set, want) << what << " line " << line;
  const std::optional<Cache::Location> at = c.find(proc, addr);
  ASSERT_TRUE(at.has_value()) << what << " line " << line;
  ASSERT_EQ(at->set, want) << what << " line " << line;
  ASSERT_EQ(c.flush_line(proc, addr).set, want) << what << " line " << line;
}

TEST(SetMemo, HashRpLookupsMatchReferenceAcrossReseedResetAndProcesses) {
  // kP1 and kP2 read the hot view (and so the memo); ProcId 20 has no hot
  // view and must map the same lines through the full context.
  const ProcId cold{20};
  for (const Geometry& g : {l1_geometry_arm920t(), l2_geometry_arm920t()}) {
    CacheSpec spec;
    spec.config.geometry = g;
    spec.mapper = MapperKind::kHashRp;
    spec.replacement = ReplacementKind::kLru;
    auto c = build_cache(spec, test_rng());
    const unsigned bits = 32 - g.offset_bits();
    rng::SplitMix64 r(23);
    std::vector<Addr> lines(kAliasedLines, kAliasedLines + 2);
    for (int i = 0; i < 300; ++i) lines.push_back(r.next_u64() & low_mask(bits));
    const auto check_all = [&](const ProcId (&procs)[3],
                               const Seed (&seeds)[3], const char* what) {
      // Alternate processes line by line: the same lines under three seeds.
      for (const Addr line : lines) {
        for (int p = 0; p < 3; ++p) {
          expect_every_lookup_sets(*c, procs[p], line,
                                   ref_hashrp(g, bits, line, seeds[p]), what);
        }
      }
    };
    const ProcId procs[3] = {kP1, kP2, cold};
    for (std::uint64_t round = 0; round < 4; ++round) {
      const Seed seeds[3] = {Seed{r.next_u64()}, Seed{r.next_u64()},
                             Seed{r.next_u64()}};
      for (int p = 0; p < 3; ++p) c->set_seed(procs[p], seeds[p]);
      check_all(procs, seeds, "reseed");
      check_all(procs, seeds, "memoized");
    }
    // reset() returns every process to the default seed.
    c->reset();
    const Seed defaults[3] = {Seed{}, Seed{}, Seed{}};
    check_all(procs, defaults, "reset");
  }
}

TEST(SetMemo, HashRpEntriesDieWhenTheGenerationWraps) {
  // A line memoized under one seed, then left alone for a whole number of
  // generation periods (any count near 2^16 reseeds), must still map under
  // the seed installed last.
  const Geometry g = l2_geometry_arm920t();
  const unsigned bits = 32 - g.offset_bits();
  CacheSpec spec;
  spec.config.geometry = g;
  spec.mapper = MapperKind::kHashRp;
  spec.replacement = ReplacementKind::kLru;
  for (const std::uint64_t reseeds : {65534u, 65535u, 65536u, 65537u}) {
    auto c = build_cache(spec, test_rng());
    c->set_seed(kP1, Seed{1});
    for (Addr line = 0; line < 64; ++line) {
      ASSERT_EQ(c->access(kP1, line << 5, false).set,
                ref_hashrp(g, bits, line, Seed{1}));
    }
    for (std::uint64_t i = 0; i < reseeds; ++i) c->set_seed(kP1, Seed{2 + i});
    const Seed last{1 + reseeds};
    for (Addr line = 0; line < 64; ++line) {
      expect_every_lookup_sets(*c, kP1, line, ref_hashrp(g, bits, line, last),
                               "wrapped");
    }
  }
}

TEST(SetMemo, RandomModuloSlotsStayExactPastTheirCount) {
  // More tags than the memo has slots, swept twice, under two processes
  // with their own seeds touching the same tags alternately: every set
  // must equal the restated network, on both memo layouts (k <= 8 LUT
  // slots, the L1; k > 8 source-index slots, the L2).
  for (const Geometry& g : {l1_geometry_arm920t(), l2_geometry_arm920t()}) {
    CacheSpec spec;
    spec.config.geometry = g;
    spec.mapper = MapperKind::kRandomModulo;
    spec.replacement = ReplacementKind::kLru;
    auto c = build_cache(spec, test_rng());
    const Seed s1{0x5EED1};
    const Seed s2{0x5EED2};
    c->set_seed(kP1, s1);
    c->set_seed(kP2, s2);
    const unsigned k = g.index_bits();
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (Addr tag = 0; tag < 1024; ++tag) {
        const Addr line = (tag << k) | ((tag * 37) & (g.sets() - 1));
        const Addr addr = line << g.offset_bits();
        ASSERT_EQ(c->access(kP1, addr, false).set,
                  ref_random_modulo(g, line, s1))
            << "tag " << tag << " sweep " << sweep;
        ASSERT_EQ(c->access(kP2, addr, false).set,
                  ref_random_modulo(g, line, s2))
            << "tag " << tag << " sweep " << sweep;
      }
    }
  }
}

// --- RPCache in-place reseeding (satellite) -------------------------------

TEST(RpCacheReseed, RegeneratesTablesWithoutReallocation) {
  const Geometry g = l2_geometry_arm920t();
  RpCacheMapper mapper(g);
  mapper.set_seed(kP1, Seed{1});
  const std::uint64_t after_first = mapper.table_allocations();
  // A hyperperiod's worth of reseeds must not allocate again.
  for (std::uint64_t epoch = 2; epoch < 66; ++epoch) {
    mapper.set_seed(kP1, Seed{epoch});
    EXPECT_EQ(mapper.table_allocations(), after_first)
        << "reseed " << epoch << " reallocated the permutation table";
  }
  // And the in-place regeneration must equal a from-scratch build.
  RpCacheMapper fresh(g);
  fresh.set_seed(kP1, Seed{65});
  for (Addr line = 0; line < 4096; ++line) {
    ASSERT_EQ(mapper.map(line, kP1), fresh.map(line, kP1));
  }
}

TEST(RpCacheReseed, UnseededProcessUsesDefaultSeedTable) {
  const Geometry g = l1_geometry_arm920t();
  RpCacheMapper mapper(g);
  EXPECT_EQ(mapper.seed(kP1), Seed{});
  RpCacheMapper explicitly(g);
  explicitly.set_seed(kP2, Seed{});
  for (Addr line = 0; line < 512; ++line) {
    ASSERT_EQ(mapper.map(line, kP1), explicitly.map(line, kP2));
  }
}

// --- way partitioning x secure contention (satellite) ---------------------

CacheSpec rpcache_spec(const Geometry& g) {
  CacheSpec spec;
  spec.config.geometry = g;
  spec.mapper = MapperKind::kRpCache;
  spec.replacement = ReplacementKind::kLru;
  return spec;
}

/// Address of a line that RPCache maps to `target_set` for `proc`.
Addr addr_in_set(const Cache& c, ProcId proc, std::uint32_t target_set,
                 unsigned nth) {
  unsigned seen = 0;
  for (Addr line = 0;; ++line) {
    if (c.mapper().map(line, proc) == target_set) {
      if (seen == nth) return line * c.geometry().line_bytes();
      ++seen;
    }
  }
}

TEST(PartitionSecureContention, ForeignVictimInPartitionTriggersRule) {
  // 4-way geometry: this exercises the specialized (WAYS == 4) fast path.
  auto c = build_cache(rpcache_spec(Geometry(2048, 4, 32)), test_rng(3));
  c->set_seed(kP1, Seed{11});
  c->set_seed(kP2, Seed{22});
  // Both processes install only into ways {0, 1}.
  c->set_way_partition(kP1, 0, 2);
  c->set_way_partition(kP2, 0, 2);

  // P1 fills ways 0 and 1 of set 3 (as mapped for P2's addresses, so the
  // conflict is guaranteed regardless of the two permutation tables).
  const std::uint32_t set = 3;
  (void)c->access(kP1, addr_in_set(*c, kP1, set, 0), false);
  (void)c->access(kP1, addr_in_set(*c, kP1, set, 1), false);
  ASSERT_EQ(c->stats().contention_evictions, 0u);

  // P2 misses into the same set: the round-robin victim inside the shared
  // partition belongs to P1, so the RPCache rule must fire - no allocation,
  // one contention eviction.
  const Addr p2_addr = addr_in_set(*c, kP2, set, 0);
  const AccessResult r = c->access(kP2, p2_addr, false);
  EXPECT_FALSE(r.hit);
  EXPECT_FALSE(r.allocated);
  EXPECT_EQ(c->stats().contention_evictions, 1u);
  EXPECT_FALSE(c->contains(kP2, p2_addr))
      << "secure rule must not install the requesting line";
}

TEST(PartitionSecureContention, OwnVictimInPartitionEvictsNormally) {
  auto c = build_cache(rpcache_spec(Geometry(2048, 4, 32)), test_rng(4));
  c->set_seed(kP1, Seed{11});
  c->set_way_partition(kP1, 2, 2);

  const std::uint32_t set = 5;
  const Addr a = addr_in_set(*c, kP1, set, 0);
  const Addr b = addr_in_set(*c, kP1, set, 1);
  const Addr d = addr_in_set(*c, kP1, set, 2);
  (void)c->access(kP1, a, false);
  (void)c->access(kP1, b, false);
  const AccessResult r = c->access(kP1, d, false);  // partition full
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.allocated) << "own-line eviction must not trigger the rule";
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(c->stats().contention_evictions, 0u);
  EXPECT_TRUE(c->contains(kP1, d));
}

TEST(PartitionSecureContention, GenericWayCountPathBehavesIdentically) {
  // 8-way geometry takes the generic (WAYS == 0) specialization; the rule
  // must behave exactly as on the 4-way fast path.
  auto c = build_cache(rpcache_spec(Geometry(4096, 8, 32)), test_rng(5));
  c->set_seed(kP1, Seed{11});
  c->set_seed(kP2, Seed{22});
  c->set_way_partition(kP1, 0, 3);
  c->set_way_partition(kP2, 0, 3);

  const std::uint32_t set = 7;
  for (unsigned n = 0; n < 3; ++n) {
    (void)c->access(kP1, addr_in_set(*c, kP1, set, n), false);
  }
  const AccessResult r = c->access(kP2, addr_in_set(*c, kP2, set, 0), false);
  EXPECT_FALSE(r.allocated);
  EXPECT_EQ(c->stats().contention_evictions, 1u);
}

// --- trace replay (Machine::replay of a FetchTrace) -----------------------

TEST(BatchedReplay, ReplayMatchesFineGrainedCalls) {
  const auto config = sim::arm920t_config(MapperKind::kRandomModulo,
                                          MapperKind::kHashRp,
                                          ReplacementKind::kRandom);
  sim::Machine fine(config, test_rng(9));
  sim::Machine batched(config, test_rng(9));
  fine.hierarchy().set_seed(kP1, Seed{123});
  batched.hierarchy().set_seed(kP1, Seed{123});
  fine.set_process(kP1);
  batched.set_process(kP1);

  // Random pcs change line on almost every fetch; every fourth instruction
  // repeats the previous pc's line so runs of several fetches occur too.
  sim::FetchTrace trace;
  rng::SplitMix64 r(21);
  Addr pc = 0x1000;
  for (int i = 0; i < 4000; ++i) {
    pc = i % 4 == 3 ? pc + 4 : 0x1000 + (r.next_u64() & 0xFFF0);
    const Addr ea = 0x80000 + (r.next_u64() & 0x3FFF0);
    switch (i % 5) {
      case 0:
        fine.instr(pc);
        trace.instr(pc);
        break;
      case 1:
        fine.load(pc, ea);
        trace.load(pc, ea);
        break;
      case 2:
        fine.store(pc, ea);
        trace.store(pc, ea);
        break;
      case 3:
        fine.branch(pc, (i & 8) != 0);
        trace.branch(pc, (i & 8) != 0);
        break;
      default:
        fine.flush_line(pc, ea);
        trace.flush_line(pc, ea);
        break;
    }
  }
  batched.replay(trace);

  EXPECT_EQ(batched.now(), fine.now());
  EXPECT_EQ(batched.stats().instructions, fine.stats().instructions);
  EXPECT_EQ(batched.stats().loads, fine.stats().loads);
  EXPECT_EQ(batched.stats().stores, fine.stats().stores);
  EXPECT_EQ(batched.stats().taken_branches, fine.stats().taken_branches);
  EXPECT_EQ(batched.stats().line_flushes, fine.stats().line_flushes);
  EXPECT_EQ(batched.hierarchy().l1d().stats().hits,
            fine.hierarchy().l1d().stats().hits);
  EXPECT_EQ(batched.hierarchy().l1i().stats().misses,
            fine.hierarchy().l1i().stats().misses);
  EXPECT_EQ(batched.hierarchy().l2().stats().accesses,
            fine.hierarchy().l2().stats().accesses);
}

}  // namespace
}  // namespace tsc::cache
