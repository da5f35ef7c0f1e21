// Pooling and batching guarantees of the execution engine.
//
//  * Machine::reset(seed) + re-configuration must reproduce a freshly
//    constructed machine bit-exactly (cycles, stats, rng draw order) - the
//    MachinePool contract the MBPTA fresh-layout protocols rely on.
//  * MachinePool reuse-vs-fresh equality on seeded layouts, for policy
//    machines (all policies x partitioning), and for one slot leased in
//    turn under every seed policy (TSCache, MBPTACache, a matrix cell).
//  * Machine::instr_block's same-line batching through the fetch latch
//    must yield exactly the cycles and stats of per-instruction calls, on
//    hit-friendly, allocation-refusing (random fill, RPCache contention),
//    TTL (Clepsydra) and quantized-latency (TimeCache) configurations.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/policy.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "rng/rng.h"
#include "runner/machine_pool.h"
#include "sim/machine.h"

namespace tsc::runner {
namespace {

void expect_same_machine_state(sim::Machine& a, sim::Machine& b) {
  EXPECT_EQ(a.now(), b.now());
  EXPECT_EQ(a.stats().instructions, b.stats().instructions);
  EXPECT_EQ(a.stats().loads, b.stats().loads);
  EXPECT_EQ(a.stats().stores, b.stats().stores);
  EXPECT_EQ(a.stats().branches, b.stats().branches);
  EXPECT_EQ(a.stats().taken_branches, b.stats().taken_branches);
  EXPECT_EQ(a.stats().seed_changes, b.stats().seed_changes);
  EXPECT_EQ(a.stats().flushes, b.stats().flushes);
  for (auto level : {0, 1, 2}) {
    cache::Cache& ca = level == 0   ? a.hierarchy().l1i()
                       : level == 1 ? a.hierarchy().l1d()
                                    : a.hierarchy().l2();
    cache::Cache& cb = level == 0   ? b.hierarchy().l1i()
                       : level == 1 ? b.hierarchy().l1d()
                                    : b.hierarchy().l2();
    EXPECT_EQ(ca.stats().accesses, cb.stats().accesses) << "level " << level;
    EXPECT_EQ(ca.stats().hits, cb.stats().hits) << "level " << level;
    EXPECT_EQ(ca.stats().evictions, cb.stats().evictions) << "level " << level;
    EXPECT_EQ(ca.stats().writebacks, cb.stats().writebacks)
        << "level " << level;
    EXPECT_EQ(ca.stats().contention_evictions,
              cb.stats().contention_evictions)
        << "level " << level;
    EXPECT_EQ(ca.stats().ttl_expirations, cb.stats().ttl_expirations)
        << "level " << level;
  }
}

/// A deterministic mixed workload exercising fetch, data, branch, reseed
/// and flush paths.
void drive(sim::Machine& m) {
  m.set_process(core::kMatrixVictim);
  for (int i = 0; i < 2000; ++i) {
    m.instr(0x1000 + 4 * (i % 128));
    m.load(0x2000, 0x80000 + 96 * i);
    if (i % 3 == 0) m.store(0x2004, 0x90000 + 32 * i);
    m.branch(0x2008, i % 5 == 0);
  }
  m.set_process(core::kMatrixAttacker);
  for (int i = 0; i < 500; ++i) m.load(0x3000, 0x80000 + 96 * i);
  m.set_seed(core::kMatrixVictim, Seed{0xABCD});
  m.set_process(core::kMatrixVictim);
  for (int i = 0; i < 500; ++i) m.load(0x3000, 0x80000 + 96 * i);
  m.flush_caches();
  for (int i = 0; i < 200; ++i) m.instr(0x1000 + 4 * i);
}

TEST(MachineReset, ReplaysFreshConstructionBitExactly) {
  for (const core::PlacementPolicy policy : core::all_policies()) {
    // A machine that already simulated a full (different-seed) deployment...
    auto reused = core::build_policy_machine(policy, 111, /*partitioned=*/false);
    drive(*reused);
    // ...re-deployed must match a genuinely fresh twin exactly.
    core::deploy(*reused, {policy, 222},
                 {core::kMatrixVictim, core::kMatrixAttacker});
    auto fresh = core::build_policy_machine(policy, 222, /*partitioned=*/false);
    drive(*reused);
    drive(*fresh);
    expect_same_machine_state(*reused, *fresh);
  }
}

TEST(MachinePoolTest, PolicyMachineReuseMatchesFreshOnSeededLayouts) {
  const isa::Program program =
      isa::assemble(isa::vector_sum_source(0x40000, 1024), 0x1000);
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      MachinePool pool;
      // Dirty the slot with a full run under another deployment seed.
      {
        const PooledMachine lease = pool.policy_machine(policy, 7, partitioned);
        lease.machine.set_process(core::kMatrixVictim);
        lease.interpreter.load_program(program);
        (void)lease.interpreter.run(0x1000);
      }
      // Reuse under the seed of record, against a fresh build.
      const PooledMachine lease = pool.policy_machine(policy, 42, partitioned);
      lease.machine.set_process(core::kMatrixVictim);
      lease.interpreter.load_program(program);
      const isa::RunResult warm_a = lease.interpreter.run(0x1000);
      const isa::RunResult timed_a = lease.interpreter.run(0x1000);

      auto fresh = core::build_policy_machine(policy, 42, partitioned);
      fresh->set_process(core::kMatrixVictim);
      isa::Interpreter interp(*fresh);
      interp.load_program(program);
      const isa::RunResult warm_b = interp.run(0x1000);
      const isa::RunResult timed_b = interp.run(0x1000);

      EXPECT_EQ(warm_a.cycles, warm_b.cycles)
          << core::to_string(policy) << " partitioned=" << partitioned;
      EXPECT_EQ(timed_a.cycles, timed_b.cycles)
          << core::to_string(policy) << " partitioned=" << partitioned;
      expect_same_machine_state(lease.machine, *fresh);
    }
  }
}

/// Jobs of a TSCache-style schedule: the seed policy's before_job for both
/// parties, then the victim's kernel and some attacker traffic.  Returns
/// the victim's per-job cycles.
std::vector<Cycles> run_jobs(const core::Deployment& deployment,
                             sim::Machine& m, isa::Interpreter& interp,
                             const isa::Program& program) {
  std::vector<Cycles> cycles;
  interp.load_program(program);
  for (std::uint64_t job = 0; job < 4; ++job) {
    deployment.before_job(m, core::kMatrixVictim, job);
    deployment.before_job(m, core::kMatrixAttacker, job);
    m.set_process(core::kMatrixVictim);
    cycles.push_back(interp.run(0x1000).cycles);
    m.set_process(core::kMatrixAttacker);
    for (int i = 0; i < 300; ++i) m.load(0x3000, 0x80000 + 96 * i);
  }
  return cycles;
}

TEST(MachinePoolTest, OneSlotServesEverySeedPolicy) {
  // TSCache, MBPTACache and the matrix's random-modulo cell differ only in
  // their seed policy, so they lease the same (kRandomModulo, unpartitioned)
  // slot; each lease must behave exactly like a freshly built platform,
  // whatever the slot ran under before.
  const isa::Program program =
      isa::assemble(isa::vector_sum_source(0x40000, 1024), 0x1000);
  const core::Deployment tscache{
      core::paper_platform(core::SetupKind::kTsCache), 31, 0,
      /*hyperperiod_jobs=*/1};
  const core::Deployment mbpta{
      core::paper_platform(core::SetupKind::kMbptaCache), 32,
      /*layout_seed=*/99};
  const core::Deployment cell{{core::PlacementPolicy::kRandomModulo}, 33};
  MachinePool pool;
  const sim::Machine* slot = nullptr;
  for (int round = 0; round < 2; ++round) {
    for (const core::Deployment& d : {tscache, mbpta, cell, tscache}) {
      const PooledMachine lease =
          pool.lease(d, {core::kMatrixVictim, core::kMatrixAttacker});
      if (slot == nullptr) slot = &lease.machine;
      EXPECT_EQ(&lease.machine, slot) << "one slot for every seed policy";

      const auto fresh =
          core::build_machine(d, {core::kMatrixVictim, core::kMatrixAttacker});
      isa::Interpreter interp(*fresh);
      EXPECT_EQ(run_jobs(d, lease.machine, lease.interpreter, program),
                run_jobs(d, *fresh, interp, program));
      expect_same_machine_state(lease.machine, *fresh);
    }
  }
  // The TSCache leases really reseeded and flushed on every job.
  const PooledMachine lease =
      pool.lease(tscache, {core::kMatrixVictim, core::kMatrixAttacker});
  (void)run_jobs(tscache, lease.machine, lease.interpreter, program);
  EXPECT_EQ(lease.machine.stats().seed_changes, 8u);
  EXPECT_EQ(lease.machine.stats().flushes, 8u);
}

// --- instr_block batching --------------------------------------------------

sim::HierarchyConfig small_config() {
  sim::HierarchyConfig cfg;
  cfg.l1i.config.geometry = cache::Geometry(4096, 2, 32);
  cfg.l1d.config.geometry = cache::Geometry(4096, 2, 32);
  cache::CacheSpec l2;
  l2.config.geometry = cache::Geometry(32768, 4, 32);
  cfg.l2 = l2;
  return cfg;
}

void expect_instr_block_exact(sim::HierarchyConfig cfg, std::uint64_t seed) {
  sim::Machine batched(cfg, std::make_shared<rng::XorShift64Star>(seed));
  sim::Machine serial(cfg, std::make_shared<rng::XorShift64Star>(seed));
  // Mixed block shapes: line-aligned, mid-line starts, single instructions,
  // blocks spanning several lines, interleaved with data traffic.
  const struct {
    Addr pc;
    unsigned n;
  } blocks[] = {{0x2000, 64}, {0x2104, 7}, {0x2204, 1},  {0x221C, 3},
                {0x3000, 8},  {0x3010, 29}, {0x2000, 64}, {0x5FFC, 2}};
  for (int round = 0; round < 4; ++round) {
    for (const auto& block : blocks) {
      batched.instr_block(block.pc, block.n);
      for (unsigned i = 0; i < block.n; ++i) serial.instr(block.pc + 4 * i);
      batched.load(0x100, 0x8000 + block.pc % 4096);
      serial.load(0x100, 0x8000 + block.pc % 4096);
    }
  }
  expect_same_machine_state(batched, serial);
}

TEST(InstrBlock, BatchedAccountingMatchesPerInstructionCalls) {
  // LRU (touch must stay idempotent), random replacement, and a random-fill
  // L1I whose misses do NOT leave the line resident (the latch must not
  // serve the line and the block falls back to single fetches).
  expect_instr_block_exact(small_config(), 3);

  sim::HierarchyConfig random_repl = small_config();
  random_repl.l1i.replacement = cache::ReplacementKind::kRandom;
  random_repl.l1d.replacement = cache::ReplacementKind::kRandom;
  random_repl.l1i.mapper = cache::MapperKind::kHashRp;
  expect_instr_block_exact(random_repl, 11);

  sim::HierarchyConfig random_fill = small_config();
  random_fill.l1i.config.random_fill_window = 4;
  random_fill.l1i.replacement = cache::ReplacementKind::kRandom;
  expect_instr_block_exact(random_fill, 17);
}

TEST(InstrBlock, TtlAndQuantizedCellsBatchExactly) {
  // ClepsydraCache: every latched hit ticks the L1I clock, reclaims the
  // set's dead lines and refreshes the line.  Lifetimes from 1 (a line
  // that cannot outlive a second tick) up to a few block lengths.
  sim::HierarchyConfig clepsydra = small_config();
  clepsydra.l1i.mapper = cache::MapperKind::kHashRp;
  clepsydra.l1i.replacement = cache::ReplacementKind::kRandom;
  clepsydra.l1i.config.ttl_min = 1;
  clepsydra.l1i.config.ttl_max = 40;
  clepsydra.l1d.config.ttl_min = 1;
  clepsydra.l1d.config.ttl_max = 40;
  expect_instr_block_exact(clepsydra, 23);

  // TimeCache: a latched fetch costs the quantized L1 hit, not 1 cycle.
  sim::HierarchyConfig timecache = small_config();
  timecache.latency.quantum = 70;
  expect_instr_block_exact(timecache, 29);
  sim::Machine m(timecache, std::make_shared<rng::XorShift64Star>(1));
  m.instr(0x7000);
  const Cycles before = m.now();
  m.instr_block(0x7004, 5);
  EXPECT_EQ(m.now() - before, 5 * (1 + 70 - m.latency().l1_hit));
}

TEST(InstrBlock, LatchStaysDisarmedWhenTheFetchIsDeclined) {
  // RPCache L1I: fill the set of proc 1's code line with proc 2's lines,
  // so proc 1's fetch meets a foreign victim and the secure contention
  // rule declines to allocate.  Nothing is resident, so the latch must not
  // arm: the second fetch of the line is a real access (and misses again).
  sim::HierarchyConfig cfg = small_config();
  cfg.l1i.mapper = cache::MapperKind::kRpCache;
  sim::Machine m(cfg, std::make_shared<rng::XorShift64Star>(1));
  sim::Machine twin(cfg, std::make_shared<rng::XorShift64Star>(1));
  const ProcId p1{1};
  const ProcId p2{2};
  const Addr code = 0x7000;
  cache::Cache& l1i = m.hierarchy().l1i();
  const std::uint32_t set = l1i.mapper().map(code >> 5, p1);
  std::vector<Addr> foreign;
  for (Addr line = 0x100; foreign.size() < 2; ++line) {
    if (l1i.mapper().map(line, p2) == set) foreign.push_back(line << 5);
  }
  for (sim::Machine* machine : {&m, &twin}) {
    machine->set_process(p2);
    for (const Addr pc : foreign) machine->instr(pc);
    machine->set_process(p1);
  }

  const cache::CacheStats before = l1i.stats();
  m.instr_block(code, 8);
  for (unsigned i = 0; i < 8; ++i) twin.instr(code + 4 * i);
  const cache::CacheStats after = l1i.stats();
  EXPECT_GE(after.contention_evictions, before.contention_evictions + 1);
  EXPECT_EQ(after.accesses, before.accesses + 8);
  EXPECT_GE(after.misses, before.misses + 2);  // the latch did not serve #2
  expect_same_machine_state(m, twin);

  // Once the line is resident, the block accounts exactly its hits.
  sim::Machine plain(small_config(), std::make_shared<rng::XorShift64Star>(1));
  plain.instr(0x7000);
  const cache::CacheStats first = plain.hierarchy().l1i().stats();
  plain.instr_block(0x7004, 5);
  const cache::CacheStats rest = plain.hierarchy().l1i().stats();
  EXPECT_EQ(rest.accesses, first.accesses + 5);
  EXPECT_EQ(rest.hits, first.hits + 5);
}

}  // namespace
}  // namespace tsc::runner
