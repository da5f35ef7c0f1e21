// Flush-semantics regressions: the per-line flush primitive (Cache /
// Hierarchy / Machine) and the whole-cache flush cost model.
//
// The pinned numbers here ARE the Flush+Flush timing channel: a flush of
// an absent line must cost exactly the base issue cost, a present line
// exactly flush_hit more per level that held it, a dirty copy exactly
// flush_writeback on top.  And the whole-cache flush of an EMPTY hierarchy
// must still cost the base issue cost - the historical bug was charging
// lines * flush_per_line only, making an empty flush free and the
// hit-flush/miss-flush costs indistinguishable at zero lines.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/builder.h"
#include "cache/cache.h"
#include "rng/rng.h"
#include "sim/machine.h"

namespace tsc::sim {
namespace {

constexpr ProcId kP1{1};
constexpr Addr kCode = 0x1000;
constexpr Addr kData = 0x0040'0000;

/// Deterministic modulo/LRU machine: flush latencies depend only on line
/// state, never on rng draws.
Machine modulo_machine() {
  Machine machine(arm920t_config(cache::MapperKind::kModulo,
                                 cache::MapperKind::kModulo,
                                 cache::ReplacementKind::kLru),
                  std::make_shared<rng::XorShift64Star>(1));
  machine.set_process(kP1);
  return machine;
}

TEST(FlushLine, AbsentPresentAndDirtyCostsArePinnedAndDistinct) {
  Machine m = modulo_machine();
  const LatencyConfig& lat = m.latency();

  // Absent line: base cost only - every level probes, none holds it.
  Hierarchy::FlushResult r = m.hierarchy().flush_line(kP1, kData);
  EXPECT_FALSE(r.present);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(r.latency, lat.flush_base);

  // Clean present: a load installs the line in L1D and L2, so the flush
  // pays the hit surcharge exactly twice.
  m.load(kCode, kData);
  r = m.hierarchy().flush_line(kP1, kData);
  EXPECT_TRUE(r.present);
  EXPECT_FALSE(r.writeback);
  EXPECT_EQ(r.latency, lat.flush_base + 2 * lat.flush_hit);

  // Dirty present: reload, then a store HIT dirties the L1D copy only
  // (the write stops at L1D; the L2 copy stays clean), so exactly one
  // writeback charge joins the two hits.
  m.load(kCode, kData);
  m.store(kCode, kData);
  r = m.hierarchy().flush_line(kP1, kData);
  EXPECT_TRUE(r.present);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.latency,
            lat.flush_base + 2 * lat.flush_hit + lat.flush_writeback);

  // A store MISS instead write-allocates through both levels and dirties
  // both copies: two writeback charges.
  m.store(kCode, kData);  // miss - the flush above emptied both levels
  r = m.hierarchy().flush_line(kP1, kData);
  EXPECT_TRUE(r.present);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.latency,
            lat.flush_base + 2 * lat.flush_hit + 2 * lat.flush_writeback);

  // The three costs are pairwise distinct - that distinctness IS the
  // Flush+Flush observable.
  EXPECT_NE(lat.flush_base, lat.flush_base + 2 * lat.flush_hit);
  EXPECT_NE(lat.flush_base + 2 * lat.flush_hit,
            lat.flush_base + 2 * lat.flush_hit + lat.flush_writeback);

  // And the flush really evicted: the next flush is an absent-flush again.
  r = m.hierarchy().flush_line(kP1, kData);
  EXPECT_FALSE(r.present);
  EXPECT_EQ(r.latency, lat.flush_base);
}

TEST(FlushLine, MachineChargesFetchPlusFlushLatency) {
  Machine m = modulo_machine();
  m.instr(kCode);  // warm the code line
  const Cycles t0 = m.now();
  m.flush_line(kCode, kData);  // absent line, hot code
  EXPECT_EQ(m.now() - t0, 1 + m.latency().flush_base);
  EXPECT_EQ(m.stats().line_flushes, 1u);

  m.load(kCode, kData);
  const Cycles t1 = m.now();
  m.flush_line(kCode, kData);
  EXPECT_EQ(m.now() - t1,
            1 + m.latency().flush_base + 2 * m.latency().flush_hit);
}

TEST(FlushCaches, EmptyFlushHasNonzeroBaseCostDistinctFromPopulated) {
  Machine empty = modulo_machine();
  const Cycles t0 = empty.now();
  empty.flush_caches();
  const Cycles empty_cost = empty.now() - t0;
  // Regression: flushing an empty hierarchy used to cost 0 cycles (only
  // lines * flush_per_line was charged).  The flush instruction still
  // issues and every level's tag array is still swept.
  EXPECT_EQ(empty_cost, empty.latency().flush_base);
  EXPECT_GT(empty_cost, 0u);

  Machine warm = modulo_machine();
  warm.load(kCode, kData);  // 1 code line + 1 data line, in L1 and L2 each
  const Cycles t1 = warm.now();
  warm.flush_caches();
  const Cycles warm_cost = warm.now() - t1;
  EXPECT_EQ(warm_cost,
            warm.latency().flush_base + 4 * warm.latency().flush_per_line);
  EXPECT_GT(warm_cost, empty_cost);
}

TEST(FlushLine, InstrBlockRepeatHitPathStaysExactAcrossFlushInvalidation) {
  // A flush that invalidates the resident code line between two
  // instr_block calls: the fetch latch (armed on that line) must not
  // shield the refetch - the flush moves the L1I epoch.  Replay the same
  // sequence via instr_block and via per-instruction calls on identically
  // seeded twins; cycles and stats must agree exactly.
  Machine batched = modulo_machine();
  Machine stepped = modulo_machine();

  const auto drive = [](Machine& m, bool block) {
    const auto instrs = [&](Addr pc, unsigned n) {
      if (block) {
        m.instr_block(pc, n);
      } else {
        for (unsigned i = 0; i < n; ++i) m.instr(pc + 4 * i);
      }
    };
    instrs(kCode, 8);                 // one 32B code line, warmed
    m.flush_line(kCode + 32, kCode);  // invalidate that code line
    instrs(kCode, 8);                 // must re-miss, then re-hit
    m.flush_line(kCode + 32, kData);  // absent-line flush for contrast
  };
  drive(batched, /*block=*/true);
  drive(stepped, /*block=*/false);

  EXPECT_EQ(batched.now(), stepped.now());
  EXPECT_EQ(batched.stats().instructions, stepped.stats().instructions);
  EXPECT_EQ(batched.stats().line_flushes, stepped.stats().line_flushes);
  EXPECT_EQ(batched.hierarchy().l1i().stats().hits,
            stepped.hierarchy().l1i().stats().hits);
  EXPECT_EQ(batched.hierarchy().l1i().stats().misses,
            stepped.hierarchy().l1i().stats().misses);

  // And the refetch after the code-line flush really missed: first fetch
  // of the block line (1), the flush instruction's own line at
  // kCode + 32 (2), the post-flush refetch of the block line (3).
  EXPECT_EQ(batched.hierarchy().l1i().stats().misses, 3u);
}

TEST(CacheFlushLine, CountersAndReplacementMetadataSemantics) {
  cache::CacheSpec spec;
  spec.config.geometry = cache::Geometry(128, 2, 16);  // 4 sets, 2 ways
  spec.mapper = cache::MapperKind::kModulo;
  spec.replacement = cache::ReplacementKind::kLru;
  spec.config.write_back = true;
  auto c = cache::build_cache(spec);

  // Absent flush: counted, no hit, nothing else moves.
  cache::Cache::FlushLineResult r = c->flush_line(kP1, 0x100);
  EXPECT_FALSE(r.present);
  EXPECT_EQ(c->stats().line_flushes, 1u);
  EXPECT_EQ(c->stats().line_flush_hits, 0u);
  EXPECT_EQ(c->stats().flushed_lines, 0u);

  // Present flush: hit + flushed-line accounting, and a dirty copy writes
  // back.  The flush is NOT an access: accesses/misses stay untouched.
  (void)c->access(kP1, 0x100, true);  // write-allocate, dirty
  const std::uint64_t accesses_before = c->stats().accesses;
  r = c->flush_line(kP1, 0x100);
  EXPECT_TRUE(r.present);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.set, 0u);
  EXPECT_EQ(c->stats().line_flushes, 2u);
  EXPECT_EQ(c->stats().line_flush_hits, 1u);
  EXPECT_EQ(c->stats().flushed_lines, 1u);
  EXPECT_EQ(c->stats().writebacks, 1u);
  EXPECT_EQ(c->stats().accesses, accesses_before);
  EXPECT_FALSE(c->access(kP1, 0x100, false).hit) << "line must be gone";

  // Replacement metadata is untouched by design: lines fill invalid ways
  // first, so a flushed way is simply the next fill target and the stale
  // LRU stamp self-heals.  Fill the set, flush one way, and the next miss
  // must take the flushed way rather than evicting the survivor.
  auto c2 = cache::build_cache(spec);
  const Addr a = 0x000;  // set 0, tag 0
  const Addr b = 0x040;  // set 0, tag 1
  const Addr d = 0x080;  // set 0, tag 2
  (void)c2->access(kP1, a, false);
  (void)c2->access(kP1, b, false);
  (void)c2->flush_line(kP1, a);
  const cache::AccessResult fill = c2->access(kP1, d, false);
  EXPECT_FALSE(fill.hit);
  EXPECT_FALSE(fill.evicted) << "must reuse the flushed way, not evict";
  EXPECT_TRUE(c2->access(kP1, b, false).hit) << "survivor must survive";
}

}  // namespace
}  // namespace tsc::sim
