// Exactness of the fetch latch and of trace replay.
//
// One program on one deployment runs three ways, and every observable must
// agree - cycles, every MachineStats counter, every CacheStats counter of
// every level:
//  * the interpreter (Interpreter::run) on a sim::Machine, whose repeat
//    fetches are served by the epoch-guarded fetch latch;
//  * Machine::replay of the program's FetchTrace, recorded once
//    (isa::record_passes) and replayed on every platform;
//  * an unlatched oracle: three tests/reference_cache.h levels sharing one
//    rng, with the Machine's latency arithmetic restated, fed instruction
//    by instruction from a run_reference() observer.
// The matrix sweep covers all 14 cells (7 policies x partitioning) of the
// pWCET matrix - Clepsydra's TTL clock and TimeCache's quantized latency
// included - on the five suite kernels at reduced sizes, under 3 seeds.
// The directed cases pin the latch against each way a line can move under
// it: flushes, self-modifying stores, process switches, reseeds, whole-
// cache flushes, RPCache contention declines and replacement touches made
// through the public hierarchy(); and a segment's batched data side
// against an absent line, same-set touch order, lines dying on a TTL L1D
// (dirty ones included), the cells that keep a line out, and its 64-line
// limit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/builder.h"
#include "core/policy.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "reference_cache.h"
#include "rng/rng.h"
#include "sim/fetch_trace.h"
#include "sim/machine.h"

namespace tsc {
namespace {

using cache::ReferenceCache;

/// The unlatched oracle machine: the latency and accounting rules of
/// sim::Machine / sim::Hierarchy, restated over reference caches.
class ReferenceMachine {
 public:
  ReferenceMachine(const sim::HierarchyConfig& config, std::uint64_t rng_seed)
      : lat_(config.latency),
        rng_(std::make_shared<rng::XorShift64Star>(rng_seed)),
        l1i_(config.l1i, rng_),
        l1d_(config.l1d, rng_) {
    if (config.l2) l2_.emplace(*config.l2, rng_);
  }

  void set_process(ProcId proc) { proc_ = proc; }

  /// Hierarchy::set_seed: independent per-level seeds from one master.
  void set_level_seeds(ProcId proc, Seed master) {
    l1i_.set_seed(proc, Seed{rng::derive_seed(master.value, 0x11)});
    l1d_.set_seed(proc, Seed{rng::derive_seed(master.value, 0x1D)});
    if (l2_) l2_->set_seed(proc, Seed{rng::derive_seed(master.value, 0x12)});
  }

  /// Machine::set_seed: drain, then one seed register per level.
  void set_seed(ProcId proc, Seed master) {
    ++stats_.seed_changes;
    ++stats_.drains;
    now_ += lat_.pipeline_depth - 1;
    set_level_seeds(proc, master);
    now_ += (l2_ ? 3 : 2) * lat_.seed_update;
  }

  void flush_caches() {
    ++stats_.flushes;
    std::uint64_t lines = l1i_.flush() + l1d_.flush();
    if (l2_) lines += l2_->flush();
    now_ += lat_.flush_base + lines * lat_.flush_per_line;
  }

  void instr(Addr pc) {
    ++stats_.instructions;
    now_ += 1 + access(l1i_, pc, false) - lat_.l1_hit;
  }
  void load(Addr pc, Addr ea) {
    instr(pc);
    ++stats_.loads;
    now_ += access(l1d_, ea, false) - lat_.l1_hit;
  }
  void store(Addr pc, Addr ea) {
    instr(pc);
    ++stats_.stores;
    now_ += access(l1d_, ea, true) - lat_.l1_hit;
  }
  void branch(Addr pc, bool taken) {
    instr(pc);
    ++stats_.branches;
    if (taken) {
      ++stats_.taken_branches;
      now_ += lat_.branch_penalty;
    }
  }
  void flush_line(Addr pc, Addr ea) {
    instr(pc);
    ++stats_.line_flushes;
    Cycles latency = lat_.flush_base;
    for (ReferenceCache* level : levels()) {
      if (level == nullptr) continue;
      const ReferenceCache::FlushLineResult f = level->flush_line(proc_, ea);
      if (f.present) latency += lat_.flush_hit;
      if (f.writeback) latency += lat_.flush_writeback;
    }
    now_ += quantize(latency);
  }

  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] const sim::MachineStats& stats() const { return stats_; }
  /// 0 = L1I, 1 = L1D, 2 = L2.
  [[nodiscard]] ReferenceCache& level(int i) {
    return i == 0 ? l1i_ : i == 1 ? l1d_ : *l2_;
  }

 private:
  [[nodiscard]] Cycles quantize(Cycles latency) const {
    if (lat_.quantum == 0) return latency;
    return (latency + lat_.quantum - 1) / lat_.quantum * lat_.quantum;
  }
  Cycles access(ReferenceCache& l1, Addr addr, bool write) {
    Cycles latency = lat_.l1_hit;
    if (!l1.access(proc_, addr, write).hit) {
      bool served = false;
      if (l2_) {
        latency += lat_.l2_hit;
        served = l2_->access(proc_, addr, write).hit;
      }
      if (!served) latency += lat_.memory;
    }
    return quantize(latency);
  }
  [[nodiscard]] std::vector<ReferenceCache*> levels() {
    return {&l1i_, &l1d_, l2_ ? &*l2_ : nullptr};
  }

  sim::LatencyConfig lat_;
  std::shared_ptr<rng::Rng> rng_;
  ReferenceCache l1i_;
  ReferenceCache l1d_;
  std::optional<ReferenceCache> l2_;
  ProcId proc_{1};
  Cycles now_ = 0;
  sim::MachineStats stats_;
};

/// Feeds a run_reference() execution into the oracle.  Branch outcomes are
/// decided here from the source registers, restated independently of the
/// interpreter and the recorder.
class OracleFeed final : public isa::TraceSink {
 public:
  OracleFeed(const isa::Interpreter& interp, ReferenceMachine& oracle)
      : interp_(interp), oracle_(oracle) {}

  void step(Addr pc, const isa::Instr& in, Addr ea) override {
    const std::uint32_t a = interp_.reg(in.rs1);
    const std::uint32_t b = interp_.reg(in.rs2);
    const auto sa = static_cast<std::int32_t>(a);
    const auto sb = static_cast<std::int32_t>(b);
    using isa::Op;
    switch (in.op) {
      case Op::kLw: case Op::kLb: case Op::kLbu:
        oracle_.load(pc, ea);
        break;
      case Op::kSw: case Op::kSb:
        oracle_.store(pc, ea);
        break;
      case Op::kFlush:
        oracle_.flush_line(pc, ea);
        break;
      case Op::kBeq: oracle_.branch(pc, a == b); break;
      case Op::kBne: oracle_.branch(pc, a != b); break;
      case Op::kBlt: oracle_.branch(pc, sa < sb); break;
      case Op::kBge: oracle_.branch(pc, sa >= sb); break;
      case Op::kBltu: oracle_.branch(pc, a < b); break;
      case Op::kBgeu: oracle_.branch(pc, a >= b); break;
      case Op::kJal: case Op::kJalr:
        oracle_.branch(pc, true);
        break;
      default:
        oracle_.instr(pc);
        break;
    }
  }

 private:
  const isa::Interpreter& interp_;
  ReferenceMachine& oracle_;
};

// --- comparisons ------------------------------------------------------------

void expect_same_stats(const sim::MachineStats& a, const sim::MachineStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.loads, b.loads) << what;
  EXPECT_EQ(a.stores, b.stores) << what;
  EXPECT_EQ(a.branches, b.branches) << what;
  EXPECT_EQ(a.taken_branches, b.taken_branches) << what;
  EXPECT_EQ(a.drains, b.drains) << what;
  EXPECT_EQ(a.seed_changes, b.seed_changes) << what;
  EXPECT_EQ(a.flushes, b.flushes) << what;
  EXPECT_EQ(a.line_flushes, b.line_flushes) << what;
}

cache::Cache& level_of(sim::Machine& m, int i) {
  sim::Hierarchy& h = m.hierarchy();
  return i == 0 ? h.l1i() : i == 1 ? h.l1d() : h.l2();
}

constexpr const char* kLevelNames[] = {"L1I", "L1D", "L2"};

/// Machine vs machine: every counter of every level.
void expect_same(sim::Machine& a, sim::Machine& b, const std::string& what) {
  EXPECT_EQ(a.now(), b.now()) << what;
  expect_same_stats(a.stats(), b.stats(), what);
  for (int i = 0; i < 3; ++i) {
    const cache::CacheStats x = level_of(a, i).stats();
    const cache::CacheStats y = level_of(b, i).stats();
    const std::string at = what + " " + kLevelNames[i];
    EXPECT_EQ(x.accesses, y.accesses) << at;
    EXPECT_EQ(x.hits, y.hits) << at;
    EXPECT_EQ(x.misses, y.misses) << at;
    EXPECT_EQ(x.evictions, y.evictions) << at;
    EXPECT_EQ(x.writebacks, y.writebacks) << at;
    EXPECT_EQ(x.contention_evictions, y.contention_evictions) << at;
    EXPECT_EQ(x.ttl_expirations, y.ttl_expirations) << at;
    EXPECT_EQ(x.flushes, y.flushes) << at;
    EXPECT_EQ(x.flushed_lines, y.flushed_lines) << at;
    EXPECT_EQ(x.line_flushes, y.line_flushes) << at;
    EXPECT_EQ(x.line_flush_hits, y.line_flush_hits) << at;
  }
}

/// Machine vs oracle.
void expect_same(sim::Machine& m, ReferenceMachine& ref,
                 const std::string& what) {
  EXPECT_EQ(m.now(), ref.now()) << what;
  expect_same_stats(m.stats(), ref.stats(), what);
  for (int i = 0; i < 3; ++i) {
    const cache::CacheStats x = level_of(m, i).stats();
    const ReferenceCache::Stats& y = ref.level(i).stats();
    const std::string at = what + " " + kLevelNames[i] + " vs oracle";
    EXPECT_EQ(x.accesses, y.accesses) << at;
    EXPECT_EQ(x.hits, y.hits) << at;
    EXPECT_EQ(x.evictions, y.evictions) << at;
    EXPECT_EQ(x.writebacks, y.writebacks) << at;
    EXPECT_EQ(x.contention_evictions, y.contention_evictions) << at;
    EXPECT_EQ(x.ttl_expirations, y.ttl_expirations) << at;
    EXPECT_EQ(x.flushes, y.flushes) << at;
    EXPECT_EQ(x.flushed_lines, y.flushed_lines) << at;
    EXPECT_EQ(x.line_flushes, y.line_flushes) << at;
    EXPECT_EQ(x.line_flush_hits, y.line_flush_hits) << at;
  }
}

// --- deployments --------------------------------------------------------------

constexpr ProcId kVictim = core::kMatrixVictim;
constexpr ProcId kAttacker = core::kMatrixAttacker;

/// A cell deployed from `seed`: the cell's hierarchy, both matrix
/// processes seeded, the L1D/L2 ways split when partitioned, the victim
/// running.  Applied identically to machines and the oracle.
struct Cell {
  std::string label;
  sim::HierarchyConfig hierarchy;
  bool partitioned;

  [[nodiscard]] const sim::HierarchyConfig& config() const {
    return hierarchy;
  }
  [[nodiscard]] std::string name() const {
    return label + (partitioned ? "/part" : "");
  }
};

/// The matrix cell of `policy`.
Cell policy_cell(core::PlacementPolicy policy, bool partitioned) {
  return {core::to_string(policy), core::policy_hierarchy_config(policy),
          partitioned};
}

/// Every matrix cell, then sec623's XorIndex L1 (hashRP L2, random
/// replacement), which no matrix platform uses but sec623 replays on.
std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      cells.push_back(policy_cell(policy, partitioned));
    }
  }
  cells.push_back({"xor_index",
                   sim::arm920t_config(cache::MapperKind::kXorIndex,
                                       cache::MapperKind::kHashRp,
                                       cache::ReplacementKind::kRandom),
                   false});
  return cells;
}

Seed proc_seed(std::uint64_t seed, ProcId proc) {
  return Seed{rng::derive_seed(seed, 0x5EED + proc.value)};
}

std::unique_ptr<sim::Machine> deploy_machine(const Cell& cell,
                                             std::uint64_t seed) {
  auto m = std::make_unique<sim::Machine>(
      cell.config(), std::make_shared<rng::XorShift64Star>(seed));
  for (const ProcId proc : {kVictim, kAttacker}) {
    m->hierarchy().set_seed(proc, proc_seed(seed, proc));
  }
  if (cell.partitioned) {
    for (cache::Cache* level : {&m->hierarchy().l1d(), &m->hierarchy().l2()}) {
      const std::uint32_t half = level->geometry().ways() / 2;
      level->set_way_partition(kVictim, 0, half);
      level->set_way_partition(kAttacker, half,
                               level->geometry().ways() - half);
    }
  }
  m->set_process(kVictim);
  return m;
}

std::unique_ptr<ReferenceMachine> deploy_oracle(const Cell& cell,
                                                std::uint64_t seed) {
  const sim::HierarchyConfig config = cell.config();
  auto ref = std::make_unique<ReferenceMachine>(config, seed);
  for (const ProcId proc : {kVictim, kAttacker}) {
    ref->set_level_seeds(proc, proc_seed(seed, proc));
  }
  if (cell.partitioned) {
    for (int i : {1, 2}) {
      const std::uint32_t ways =
          (i == 1 ? config.l1d : *config.l2).config.geometry.ways();
      ref->level(i).set_way_partition(kVictim, 0, ways / 2);
      ref->level(i).set_way_partition(kAttacker, ways / 2, ways - ways / 2);
    }
  }
  ref->set_process(kVictim);
  return ref;
}

// --- the three-way run ----------------------------------------------------------

/// Run `program`'s warm and timed passes three ways on `cell` under `seed`
/// and compare everything, the timed pass's cycles included.
void expect_three_way(const Cell& cell, std::uint64_t seed,
                      const isa::Program& program,
                      const isa::KernelPasses& passes,
                      const std::string& what) {
  const std::string at =
      what + " on " + cell.name() + " seed " + std::to_string(seed);

  const auto interpreted = deploy_machine(cell, seed);
  isa::Interpreter interp(*interpreted);
  interp.load_program(program);
  (void)interp.run(0x1000);
  const isa::RunResult timed = interp.run(0x1000);

  const auto replayed = deploy_machine(cell, seed);
  const Cycles replay_cycles = passes.time(*replayed);

  const auto oracle = deploy_oracle(cell, seed);
  const auto host = deploy_machine(cell, seed);  // runs the oracle's feed
  isa::Interpreter feeder(*host);
  feeder.load_program(program);
  OracleFeed feed(feeder, *oracle);
  feeder.set_trace_sink(&feed);
  (void)feeder.run_reference(0x1000);
  const Cycles oracle_start = oracle->now();
  (void)feeder.run_reference(0x1000);
  const Cycles oracle_cycles = oracle->now() - oracle_start;

  EXPECT_EQ(timed.cycles, replay_cycles) << at;
  EXPECT_EQ(timed.cycles, oracle_cycles) << at;
  expect_same(*interpreted, *replayed, at + " interpreter vs replay");
  expect_same(*interpreted, *oracle, at + " interpreter");
  expect_same(*replayed, *oracle, at + " replay");
}

struct Kernel {
  std::string name;
  std::string source;
};

/// The pWCET suite's five kernels at reduced sizes.
std::vector<Kernel> small_suite() {
  return {
      {"vecsum", isa::vector_sum_source(0x40000, 600)},
      {"memcpy", isa::memcpy_source(0x40000, 0x60000, 300)},
      {"sort", isa::bubble_sort_source(0x40000, 40)},
      {"matmul", isa::matmul_source(0x40000, 0x50000, 0x60000, 8)},
      {"stride", isa::stride_walk_source(0x40000, 1024, 64, 32768)},
  };
}

void expect_three_way_on_every_cell(const std::string& source,
                                    const std::string& what,
                                    std::initializer_list<std::uint64_t> seeds) {
  const isa::Program program = isa::assemble(source, 0x1000);
  const isa::KernelPasses passes = isa::record_passes(program, 0x1000);
  for (const Cell& cell : all_cells()) {
    for (const std::uint64_t seed : seeds) {
      expect_three_way(cell, seed, program, passes, what);
    }
  }
}

TEST(ReplayExactness, EveryCellEveryKernelThreeSeeds) {
  for (const Kernel& kernel : small_suite()) {
    expect_three_way_on_every_cell(kernel.source, kernel.name, {3, 11, 2018});
  }
}

TEST(ReplayExactness, FlushKernels) {
  expect_three_way_on_every_cell(isa::flush_reload_source(0x40000, 64, 32),
                                 "flush_reload", {5});
  expect_three_way_on_every_cell(isa::flush_storm_source(0x40000, 32, 32, 8),
                                 "flush_storm", {5});
  // A flush aimed at the running code's own line: the next fetch must
  // re-miss, latched or replayed.
  expect_three_way_on_every_cell(
      "        la   r1, 0x1000\n"
      "loop:   flush r1\n"
      "        addi r2, r2, 1\n"
      "        slti r3, r2, 50\n"
      "        bne  r3, r0, loop\n"
      "        halt\n",
      "code_flush", {5});
}

TEST(ReplayExactness, SelfModifyingStoreAndTakenBranchToNextPc) {
  // The program patches its own `target` nop into a HALT (see
  // interpreter_equiv_test); the stream it records is what executed.
  const std::uint32_t halt_word =
      isa::encode(isa::Instr{isa::Op::kHalt, 0, 0, 0, 0});
  expect_three_way_on_every_cell(
      "        la   r1, 0x1000\n"
      "        lw   r2, 24(r1)\n"
      "        sw   r2, 16(r1)\n"
      "target: nop\n"
      "        jal  r0, target\n"
      "        .word " + std::to_string(halt_word) + "\n",
      "self_modifying", {5});

  // beq r0, r0 to the next instruction: taken, lands on pc + 4, and still
  // pays the bubble - the recorder reads the outcome from the registers,
  // not from where the pc went.
  const std::string source =
      "        addi r1, r0, 20\n"
      "loop:   beq  r0, r0, next\n"
      "next:   addi r1, r1, -1\n"
      "        bne  r1, r0, loop\n"
      "        halt\n";
  expect_three_way_on_every_cell(source, "taken_to_next", {5});
  const isa::KernelPasses passes =
      isa::record_passes(isa::assemble(source, 0x1000), 0x1000);
  const auto m =
      deploy_machine(policy_cell(core::PlacementPolicy::kModulo, false), 1);
  m->replay(passes.warm);
  EXPECT_EQ(m->stats().taken_branches, 20u + 19u);
}

// --- directed latch cases -------------------------------------------------------

/// A small two-level deployment for the directed cases.
sim::HierarchyConfig small_config(cache::MapperKind l1i_mapper,
                                  cache::ReplacementKind repl) {
  sim::HierarchyConfig cfg;
  cfg.l1i.config.geometry = cache::Geometry(4096, 2, 32);  // 64 sets
  cfg.l1i.mapper = l1i_mapper;
  cfg.l1i.replacement = repl;
  cfg.l1d.config.geometry = cache::Geometry(4096, 2, 32);
  cache::CacheSpec l2;
  l2.config.geometry = cache::Geometry(32768, 4, 32);
  cfg.l2 = l2;
  return cfg;
}

/// Drives one script three ways: direct Machine calls (latched), the same
/// calls written to a FetchTrace and replayed whenever a machine event
/// (process switch, reseed, flush, external access, comparison) comes up,
/// and the oracle.
struct Triple {
  Triple(const sim::HierarchyConfig& cfg, std::uint64_t seed)
      : direct(cfg, std::make_shared<rng::XorShift64Star>(seed)),
        replayed(cfg, std::make_shared<rng::XorShift64Star>(seed)),
        oracle(cfg, seed) {}

  void instr(Addr pc) {
    direct.instr(pc);
    pending.instr(pc);
    oracle.instr(pc);
  }
  void load(Addr pc, Addr ea) {
    direct.load(pc, ea);
    pending.load(pc, ea);
    oracle.load(pc, ea);
  }
  void store(Addr pc, Addr ea) {
    direct.store(pc, ea);
    pending.store(pc, ea);
    oracle.store(pc, ea);
  }
  void branch(Addr pc, bool taken) {
    direct.branch(pc, taken);
    pending.branch(pc, taken);
    oracle.branch(pc, taken);
  }
  void flush_line(Addr pc, Addr ea) {
    direct.flush_line(pc, ea);
    pending.flush_line(pc, ea);
    oracle.flush_line(pc, ea);
  }
  /// `n` sequential instructions from `pc`, with a load every third one.
  void code(Addr pc, unsigned n) {
    for (unsigned i = 0; i < n; ++i, pc += 4) {
      if (i % 3 == 2) {
        load(pc, 0x9000 + 4 * i);
      } else {
        instr(pc);
      }
    }
  }
  /// Bring the replayed machine up to date.
  void sync() {
    replayed.replay(pending);
    pending = sim::FetchTrace(32);
  }
  void set_process(ProcId p) {
    sync();
    direct.set_process(p);
    replayed.set_process(p);
    oracle.set_process(p);
  }
  void set_seed(ProcId p, Seed s) {
    sync();
    direct.set_seed(p, s);
    replayed.set_seed(p, s);
    oracle.set_seed(p, s);
  }
  void flush_caches() {
    sync();
    direct.flush_caches();
    replayed.flush_caches();
    oracle.flush_caches();
  }
  /// A read of the L1I made through the public hierarchy().
  void external_l1i_read(ProcId p, Addr addr) {
    sync();
    (void)direct.hierarchy().l1i().access(p, addr, false);
    (void)replayed.hierarchy().l1i().access(p, addr, false);
    (void)oracle.level(0).access(p, addr, false);
  }
  /// Restrict `p`'s L1D fills to ways [first, first + count).
  void partition_l1d(ProcId p, std::uint32_t first, std::uint32_t count) {
    sync();
    direct.hierarchy().l1d().set_way_partition(p, first, count);
    replayed.hierarchy().l1d().set_way_partition(p, first, count);
    oracle.level(1).set_way_partition(p, first, count);
  }
  /// A read of the L1D made through the public hierarchy().
  void external_l1d_read(ProcId p, Addr addr) {
    sync();
    (void)direct.hierarchy().l1d().access(p, addr, false);
    (void)replayed.hierarchy().l1d().access(p, addr, false);
    (void)oracle.level(1).access(p, addr, false);
  }
  void expect_exact(const std::string& what) {
    sync();
    expect_same(direct, replayed, what + " direct vs replay");
    expect_same(direct, oracle, what + " direct");
    expect_same(replayed, oracle, what + " replay");
  }

  sim::Machine direct;
  sim::Machine replayed;
  ReferenceMachine oracle;
  sim::FetchTrace pending{32};
};

TEST(FetchLatch, ProcessSwitchReseedAndFlushBetweenFetches) {
  for (const cache::MapperKind mapper :
       {cache::MapperKind::kModulo, cache::MapperKind::kHashRp,
        cache::MapperKind::kRandomModulo, cache::MapperKind::kRpCache}) {
    Triple t(small_config(mapper, cache::ReplacementKind::kLru), 7);
    const std::string what = "mapper " + std::to_string(static_cast<int>(mapper));
    t.set_seed(ProcId{1}, Seed{11});
    t.set_seed(ProcId{2}, Seed{22});
    t.code(0x2000, 20);        // the last line, 0x2040, stays latched
    t.set_process(ProcId{2});  // same lines, another process's placement
    t.code(0x2048, 2);         // must not be served by proc 1's slot
    t.code(0x2000, 20);
    t.set_process(ProcId{1});  // back: proc 1's slots may still be valid
    t.code(0x2004, 12);
    t.set_seed(ProcId{1}, Seed{33});  // new layout under the latch
    t.code(0x2000, 20);
    t.flush_caches();
    t.code(0x2000, 20);
    t.code(0x2010, 3);
    t.expect_exact(what);
  }
}

TEST(FetchLatch, RpCacheContentionDeclineDoesNotArm) {
  // Fill the set of proc 1's code line with proc 2's lines: proc 1's fetch
  // meets a foreign victim, the secure contention rule declines to
  // allocate, and the latch must not serve the line - the second fetch is
  // a real access that misses again.
  Triple t(small_config(cache::MapperKind::kRpCache,
                        cache::ReplacementKind::kLru),
           3);
  const ProcId p1{1};
  const ProcId p2{2};
  t.set_seed(p1, Seed{5});
  t.set_seed(p2, Seed{6});
  const Addr code = 0x7000;
  const cache::IndexMapper& mapper = t.direct.hierarchy().l1i().mapper();
  const std::uint32_t set = mapper.map(code >> 5, p1);
  std::vector<Addr> foreign;
  for (Addr line = 0x100; foreign.size() < 2; ++line) {
    if (mapper.map(line, p2) == set) foreign.push_back(line << 5);
  }
  t.set_process(p2);
  for (const Addr pc : foreign) t.code(pc, 1);
  t.set_process(p1);
  const cache::CacheStats before = t.direct.hierarchy().l1i().stats();
  t.code(code, 2);
  const cache::CacheStats after = t.direct.hierarchy().l1i().stats();
  EXPECT_GE(after.contention_evictions, before.contention_evictions + 1);
  EXPECT_EQ(after.misses, before.misses + 2);
  t.code(code, 8);
  t.expect_exact("contention");
}

TEST(FetchLatch, ExternalHitOnTheLatchedSetKeepsLruExact) {
  // Lines A, B, C share one set of a 2-way LRU L1I (64 sets apart).  A is
  // latched; an external hierarchy().l1i() hit makes B most recent; the
  // next latched fetch of A must redo A's touch, so C's fill evicts B, not
  // A.
  const Addr a = 0x4000;
  const Addr b = a + 64 * 32;
  const Addr c = b + 64 * 32;
  Triple t(small_config(cache::MapperKind::kModulo,
                        cache::ReplacementKind::kLru),
           9);
  t.code(a, 1);
  t.code(b, 1);
  t.code(a, 2);  // A latched
  t.external_l1i_read(ProcId{1}, b);
  t.code(a + 4, 1);  // served by the latch
  t.code(c, 1);      // evicts the LRU way
  const cache::CacheStats before = t.direct.hierarchy().l1i().stats();
  t.code(a, 1);
  EXPECT_EQ(t.direct.hierarchy().l1i().stats().hits, before.hits + 1)
      << "the latched fetch did not refresh A's recency";
  t.expect_exact("external touch");
}

TEST(FetchLatch, TtlLineDyingUnderTheLatchMisses) {
  // Clepsydra L1I with a fixed lifetime of 8 accesses.  Line C is latched,
  // then a loop over lines A and B (other sets, other latch slots) hits
  // long enough for C's lifetime to run out.  Nothing probes C's set, so
  // the epoch stays put and C's slot still looks valid - the fetch of C
  // must nonetheless tick, reclaim and miss, exactly as access() would.
  sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                          cache::ReplacementKind::kLru);
  cfg.l1i.config.ttl_min = 8;
  cfg.l1i.config.ttl_max = 8;
  Triple t(cfg, 13);
  const Addr c = 0x6000;
  const Addr a = c + 32;
  const Addr b = c + 64;
  t.code(a, 1);
  t.code(b, 1);
  t.code(c, 2);  // the last fill: every slot armed from here on stays valid
  t.code(a, 1);
  t.code(b, 1);
  for (int i = 0; i < 20; ++i) {
    t.code(a, 2);
    t.code(b, 2);
  }
  const cache::CacheStats before = t.direct.hierarchy().l1i().stats();
  t.code(c, 3);
  const cache::CacheStats after = t.direct.hierarchy().l1i().stats();
  EXPECT_EQ(after.ttl_expirations, before.ttl_expirations + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  t.expect_exact("ttl expiry under the latch");
}

TEST(FetchLatch, RandomStreamsOverThrashingCaches) {
  // Random instruction mixes over tiny caches with random replacement (or
  // RPCache contention) at every level: victims are rng draws, so any
  // reordering of L2 traffic or rng consumption by the latch or by
  // replay's batching shows up as a divergence.  Short same-line runs,
  // taken branches, stores and flushes included.
  for (const cache::MapperKind mapper :
       {cache::MapperKind::kHashRp, cache::MapperKind::kRpCache}) {
    sim::HierarchyConfig cfg;
    cfg.l1i.config.geometry = cache::Geometry(512, 2, 32);
    cfg.l1i.mapper = mapper;
    cfg.l1i.replacement = cache::ReplacementKind::kRandom;
    cfg.l1d = cfg.l1i;
    cache::CacheSpec l2;
    l2.config.geometry = cache::Geometry(2048, 2, 32);
    l2.mapper = mapper;
    l2.replacement = cache::ReplacementKind::kRandom;
    cfg.l2 = l2;
    Triple t(cfg, 31);
    t.set_seed(ProcId{1}, Seed{41});
    t.set_seed(ProcId{2}, Seed{42});
    rng::SplitMix64 r(static_cast<std::uint64_t>(mapper) + 1);
    Addr pc = 0x1000;
    for (int i = 0; i < 6000; ++i) {
      pc = r.next_below(3) == 0 ? 0x1000 + (r.next_below(256) << 2) : pc + 4;
      const Addr ea = 0x8000 + (r.next_below(1024) << 2);
      switch (r.next_below(8)) {
        case 0: case 1: t.load(pc, ea); break;
        case 2: t.store(pc, ea); break;
        case 3: t.branch(pc, r.next_below(2) == 0); break;
        case 4: if (r.next_below(8) == 0) t.flush_line(pc, ea); break;
        default: t.instr(pc); break;
      }
      if (i % 1500 == 1499) {
        t.set_process(ProcId{static_cast<std::uint32_t>(1 + (i / 1500) % 2)});
      }
    }
    t.expect_exact("random stream, mapper " +
                   std::to_string(static_cast<int>(mapper)));
  }
}

// --- replay segments --------------------------------------------------------

/// `iterations` passes of a loop whose body runs `per_line` instructions on
/// each of `lines` (L1I line base addresses), a load every third one and a
/// taken branch closing the body.
void loop_over(Triple& t, const std::vector<Addr>& lines, int iterations,
               unsigned per_line = 3) {
  for (int i = 0; i < iterations; ++i) {
    for (std::size_t k = 0; k < lines.size(); ++k) {
      t.code(lines[k], per_line);
      if (k + 1 == lines.size()) t.branch(lines[k] + 4 * per_line, true);
    }
  }
}

/// `visits` line visits cycling through `lines`, `per_line` instructions
/// each, a load every third one: one run per visit when consecutive lines
/// differ.
void cycle_over(Triple& t, const std::vector<Addr>& lines,
                std::uint32_t visits, unsigned per_line) {
  for (std::uint32_t i = 0; i < visits; ++i) {
    t.code(lines[i % lines.size()], per_line);
  }
}

/// `visits` line visits cycling through `lines`, written to a bare trace
/// (one instruction per visit), for segment counts.
sim::FetchTrace cycle_trace(const std::vector<Addr>& lines,
                            std::uint32_t visits) {
  sim::FetchTrace trace(32);
  for (std::uint32_t i = 0; i < visits; ++i) {
    trace.instr(lines[i % lines.size()]);
  }
  return trace;
}

/// The loop of loop_over written to a bare trace.
sim::FetchTrace loop_trace(const std::vector<Addr>& lines, int iterations) {
  return cycle_trace(lines,
                     static_cast<std::uint32_t>(iterations * lines.size()));
}

constexpr std::uint32_t kSegmentRuns = sim::FetchTrace::kSegmentRuns;

constexpr cache::MapperKind kL1iMappers[] = {
    cache::MapperKind::kModulo, cache::MapperKind::kHashRp,
    cache::MapperKind::kRandomModulo, cache::MapperKind::kRpCache};

TEST(ReplaySegments, LinesSharingALatchSlotCutTheSegment) {
  // A and B are eight lines apart: one latch slot, so they can never be
  // latched together and every switch between them cuts a segment.  C owns
  // the next slot.
  const Addr a = 0x2000;
  const Addr b = a + 8 * 32;
  const Addr c = a + 32;
  // One full segment, then 16 runs.
  EXPECT_EQ(cycle_trace({a, c}, kSegmentRuns + 16).segments(), 2u);
  EXPECT_EQ(loop_trace({a, c, b}, 10).segments(), 20u);
  for (const cache::MapperKind mapper : kL1iMappers) {
    Triple t(small_config(mapper, cache::ReplacementKind::kLru), 17);
    loop_over(t, {a, c, b}, 30);
    loop_over(t, {a, c}, 30);
    // B' also shares A's modulo set: the slot cut and a set conflict.
    loop_over(t, {a, c, a + 64 * 32}, 30);
    t.expect_exact("slot sharing, mapper " +
                   std::to_string(static_cast<int>(mapper)));
  }
}

TEST(ReplaySegments, SegmentEnteredWithAnUnlatchedLineFallsBack) {
  // A steady loop over A, B, C, then the same loop grows a line D that was
  // never fetched: the open segment's check finds D unlatched and replays
  // it run by run, and the segments after it are latched again.  Then E
  // takes C's slot (and, under modulo, C's set) for one run: the segment
  // after it starts with C's slot holding E.
  const Addr a = 0x3000;
  const Addr b = a + 32;
  const Addr c = a + 64;
  const Addr d = a + 96;
  const Addr e = c + 64 * 32;
  for (const cache::MapperKind mapper : kL1iMappers) {
    Triple t(small_config(mapper, cache::ReplacementKind::kLru), 19);
    loop_over(t, {a, b, c}, 30);
    loop_over(t, {a, b, c, d}, 30);
    t.code(e, 4);
    loop_over(t, {c, a, b}, 30);
    t.expect_exact("unlatched entry, mapper " +
                   std::to_string(static_cast<int>(mapper)));
  }
}

TEST(ReplaySegments, FlushInsideAWouldBeSegment) {
  // A flush ends its segment; flushing the loop's own code line B makes
  // the next fetch of B miss, and the segment after the flush cannot be
  // served latched.  A data-line flush moves every level's epoch too.
  const Addr a = 0x4000;
  const Addr b = a + 32;
  sim::FetchTrace trace(32);
  for (int i = 0; i < 20; ++i) {
    trace.instr(a);
    trace.instr(b);
    if (i % 5 == 4) trace.flush_line(a + 4, b);
  }
  EXPECT_EQ(trace.segments(), 4u);
  for (const cache::MapperKind mapper : kL1iMappers) {
    Triple t(small_config(mapper, cache::ReplacementKind::kLru), 23);
    for (int i = 0; i < 40; ++i) {
      t.code(a, 4);
      t.code(b, 4);
      if (i % 7 == 6) t.flush_line(a + 16, b);
      if (i % 11 == 10) t.flush_line(b + 16, 0x9000);
      t.branch(b + 16, true);
    }
    t.expect_exact("flush, mapper " +
                   std::to_string(static_cast<int>(mapper)));
  }
  // A served segment, then one that opens with a flush of its own line D
  // (D takes A's slot) and leaves D: the flush must follow D's fetch,
  // which still hits.
  const Addr d = a + 8 * 32;
  for (const cache::MapperKind mapper : kL1iMappers) {
    Triple t(small_config(mapper, cache::ReplacementKind::kLru), 31);
    t.code(d, 2);
    loop_over(t, {a, b}, 40);
    t.flush_line(d, d);
    t.code(b + 32, 3);
    t.expect_exact("flush opening a segment, mapper " +
                   std::to_string(static_cast<int>(mapper)));
  }
}

TEST(ReplaySegments, EightLinesAndSegmentRunsBoundaries) {
  std::vector<Addr> eight;
  for (Addr k = 0; k < 8; ++k) eight.push_back(0x5000 + 32 * k);
  std::vector<Addr> nine = eight;
  nine.push_back(0x5000 + 32 * 8);  // line 8 takes line 0's slot

  EXPECT_EQ(cycle_trace(eight, kSegmentRuns).segments(), 1u);
  EXPECT_EQ(cycle_trace(eight, kSegmentRuns + 1).segments(), 2u);
  EXPECT_EQ(loop_trace(nine, 4).segments(), 8u);  // {0..7}, {8} per pass
  // One run of 65535 fetches, then another of the same line: two runs.
  sim::FetchTrace long_run(32);
  for (int i = 0; i < 65536; ++i) long_run.instr(0x5000);
  EXPECT_EQ(long_run.segments(), 1u);

  for (const cache::MapperKind mapper : kL1iMappers) {
    for (const cache::ReplacementKind repl :
         {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru}) {
      sim::HierarchyConfig cfg = small_config(mapper, repl);
      cfg.l1i.config.geometry = cache::Geometry(512, 4, 32);  // 4 sets
      Triple t(cfg, 29);
      cycle_over(t, eight, 3 * kSegmentRuns, 2);  // three full segments
      loop_over(t, nine, 12, 2);
      // Line 8 cuts the segment: a full one from line 0, then one more run
      // opens the next.
      cycle_over(t, eight, kSegmentRuns + 1, 1);
      cycle_over(t, eight, kSegmentRuns, 1);
      t.expect_exact("boundaries, mapper " +
                     std::to_string(static_cast<int>(mapper)) + " repl " +
                     std::to_string(static_cast<int>(repl)));
    }
  }
}

TEST(ReplaySegments, SameSetLinesKeepTheirLastTouchOrder) {
  // Four lines of one L1I set, each in its own latch slot, looped in an
  // order whose last touches differ from its first touches; then fresh
  // lines of the same set evict whatever the policy ranks last.  A batch
  // replayed in any other order than last-touch order evicts the wrong
  // line under LRU, PLRU and NMRU - on a TTL L1I too, where lifetimes of
  // 1000 accesses let every segment be served.
  for (const std::uint32_t ttl : {0u, 1000u}) {
    for (const cache::MapperKind mapper :
         {cache::MapperKind::kHashRp, cache::MapperKind::kRandomModulo}) {
      for (const cache::ReplacementKind repl :
           {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru,
            cache::ReplacementKind::kNmru, cache::ReplacementKind::kFifo,
            cache::ReplacementKind::kRandom}) {
        sim::HierarchyConfig cfg = small_config(mapper, repl);
        cfg.l1i.config.geometry = cache::Geometry(2048, 4, 32);  // 16 sets
        cfg.l1i.config.ttl_min = cfg.l1i.config.ttl_max = ttl;
        Triple t(cfg, 37);
        t.set_seed(ProcId{1}, Seed{43});
        const cache::IndexMapper& m = t.direct.hierarchy().l1i().mapper();
        const std::uint32_t set = m.map(0x6000 >> 5, ProcId{1});
        std::vector<Addr> same;  // distinct slots, same set
        std::vector<bool> slot_used(8, false);
        for (Addr line = 0x6000 >> 5; same.size() < 8; ++line) {
          if (m.map(line, ProcId{1}) != set) continue;
          if (same.size() < 4 && slot_used[line % 8]) continue;
          if (same.size() < 4) slot_used[line % 8] = true;
          same.push_back(line << 5);
        }
        const std::vector<Addr> body = {same[0], same[1], same[2], same[3]};
        for (int round = 0; round < 6; ++round) {
          loop_over(t, body, 20);
          // Last touches now run 3, 1, 0, 2 within the segment.
          loop_over(t, {same[2], same[0], same[1], same[3], same[1], same[0],
                        same[2]},
                    10);
          t.code(same[4 + round % 4], 2);  // a fill of the set
          loop_over(t, body, 3);
        }
        t.expect_exact("last touch, mapper " +
                       std::to_string(static_cast<int>(mapper)) + " repl " +
                       std::to_string(static_cast<int>(repl)) + " ttl " +
                       std::to_string(ttl));
      }
    }
  }
}

TEST(ReplaySegments, TtlL1iServesLiveSegmentsAndFallsBackExactly) {
  // Clepsydra L1I: a segment is served whole only when no line can die
  // before its last fetch.  Under TTL 6 a line goes longer than its
  // lifetime between fetches and the segments replay run by run, each
  // batch meeting the TTL clock; under 40 and 400 they are served.
  for (const std::uint32_t ttl : {6u, 40u, 400u}) {
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kRandomModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1i.config.ttl_min = ttl / 2;
    cfg.l1i.config.ttl_max = ttl;
    cfg.l1d.config.ttl_min = ttl / 2;
    cfg.l1d.config.ttl_max = ttl;
    Triple t(cfg, 41);
    loop_over(t, {0x7000, 0x7020, 0x7040}, 60);
    loop_over(t, {0x7000, 0x7060}, 60, 5);
    t.expect_exact("ttl " + std::to_string(ttl));
  }
}

TEST(ReplaySegments, RandomLoopsOverEveryPolicy) {
  // Random loop nests over a small pool of code lines (same-slot and
  // same-set collisions included) with data references that mostly repeat
  // the previous line, stores, flushes and process switches, on tiny 4-way
  // caches under every mapper and replacement policy, and on the write,
  // random-fill, TTL and quantized variants of the hierarchy.
  struct Variant {
    std::string name;
    void (*apply)(sim::HierarchyConfig&);
  };
  const std::vector<Variant> variants = {
      {"plain", [](sim::HierarchyConfig&) {}},
      {"write-through/no-allocate",
       [](sim::HierarchyConfig& c) {
         c.l1d.config.write_back = false;
         c.l1d.config.write_allocate = false;
       }},
      {"random fill",
       [](sim::HierarchyConfig& c) { c.l1d.config.random_fill_window = 3; }},
      {"ttl",
       [](sim::HierarchyConfig& c) {
         c.l1i.config.ttl_min = c.l1d.config.ttl_min = 20;
         c.l1i.config.ttl_max = c.l1d.config.ttl_max = 90;
       }},
      {"quantum", [](sim::HierarchyConfig& c) { c.latency.quantum = 70; }},
  };
  std::uint64_t seed = 100;
  for (const cache::MapperKind mapper : kL1iMappers) {
    for (const cache::ReplacementKind repl :
         {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru,
          cache::ReplacementKind::kNmru, cache::ReplacementKind::kFifo,
          cache::ReplacementKind::kRandom}) {
      for (const Variant& variant : variants) {
        sim::HierarchyConfig cfg;
        cfg.l1i.config.geometry = cache::Geometry(1024, 4, 32);  // 8 sets
        cfg.l1i.mapper = mapper;
        cfg.l1i.replacement = repl;
        cfg.l1d = cfg.l1i;
        cache::CacheSpec l2;
        l2.config.geometry = cache::Geometry(4096, 4, 32);
        l2.mapper = mapper;
        l2.replacement = repl;
        cfg.l2 = l2;
        variant.apply(cfg);
        Triple t(cfg, ++seed);
        t.set_seed(ProcId{1}, Seed{seed * 3});
        t.set_seed(ProcId{2}, Seed{seed * 5});
        rng::SplitMix64 r(seed);
        Addr ea = 0x9000;
        for (int loop = 0; loop < 40; ++loop) {
          std::vector<Addr> body;
          const auto lines = 1 + r.next_below(6);
          for (std::uint64_t k = 0; k < lines; ++k) {
            body.push_back(0x2000 + 32 * r.next_below(20));
          }
          const auto iterations = 1 + r.next_below(30);
          for (std::uint64_t i = 0; i < iterations; ++i) {
            for (const Addr line : body) {
              const auto n = 1 + r.next_below(8);
              for (std::uint64_t j = 0; j < n; ++j) {
                const Addr pc = line + 4 * (j % 8);
                if (r.next_below(5) == 0) {
                  ea = 0x9000 + (r.next_below(48) << 2) * 8;
                } else if (r.next_below(3) == 0) {
                  ea += 4;
                }
                switch (r.next_below(10)) {
                  case 0: case 1: case 2: t.load(pc, ea); break;
                  case 3: t.store(pc, ea); break;
                  case 4: t.branch(pc, r.next_below(2) == 0); break;
                  case 5:
                    if (r.next_below(40) == 0) t.flush_line(pc, ea);
                    break;
                  default: t.instr(pc); break;
                }
              }
            }
          }
          if (loop % 13 == 12) {
            t.set_process(ProcId{static_cast<std::uint32_t>(1 + loop % 2)});
          }
          if (loop % 17 == 16) t.external_l1d_read(ProcId{1}, ea);
        }
        t.expect_exact("random loops, mapper " +
                       std::to_string(static_cast<int>(mapper)) + " repl " +
                       std::to_string(static_cast<int>(repl)) + " " +
                       variant.name);
      }
    }
  }
}

// --- TTL segments -------------------------------------------------------------

/// small_config with fixed lifetimes: every L1I line lives `ttl` L1I
/// accesses and every L1D line `data_ttl` L1D accesses (0: no L1D TTL);
/// `l1i` is the L1I's geometry.
sim::HierarchyConfig fixed_ttl_config(
    std::uint32_t ttl, std::uint32_t data_ttl = 0,
    cache::Geometry l1i = cache::Geometry(4096, 2, 32)) {
  sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                          cache::ReplacementKind::kLru);
  cfg.l1i.config.geometry = l1i;
  cfg.l1i.config.ttl_min = cfg.l1i.config.ttl_max = ttl;
  cfg.l1d.config.ttl_min = cfg.l1d.config.ttl_max = data_ttl;
  return cfg;
}

/// Four 4-way sets: modulo puts lines 4 apart in one set and latch slots
/// apart, so one segment can hold several lines of a set.
const cache::Geometry kFourSets(512, 4, 32);

/// Ends a TTL case.  The oracle compares counters only, so a wrong expiry
/// or replacement rank left by the case could hide; the tail turns one
/// into a counter difference: compare, re-fetch the case's code lines and
/// re-load its data lines, flood other lines for longer than `ttl` (the
/// longest lifetime) so that every case line leaves by eviction or by
/// expiry, then fetch and load the case's lines again, and compare.
void expect_exact_through_probe_tail(Triple& t, const std::vector<Addr>& code,
                                     const std::vector<Addr>& data,
                                     std::uint32_t ttl,
                                     const std::string& what) {
  t.expect_exact(what);
  const auto probe = [&] {
    for (const Addr pc : code) t.instr(pc);
    for (const Addr ea : data) t.load(0x30000, ea);
    t.sync();
  };
  probe();
  for (std::uint32_t i = 0; i < 2 * ttl + 256; ++i) {
    t.load(0x40000 + 32 * (i % 96), 0x60000 + 32 * Addr{i});
  }
  t.sync();
  probe();
  t.expect_exact(what + " probe tail");
}

/// L1I counters of the direct machine.
cache::CacheStats l1i_stats(Triple& t) {
  return t.direct.hierarchy().l1i().stats();
}

TEST(TtlSegments, LineDyingAtItsFirstFetchFallsBack) {
  // Lifetime 16.  A's expiry is the tick of its first fetch in the segment,
  // the segment's third (delta 0): that probe reclaims it and misses, so
  // the segment must fall back.  One tick later (delta 1) A is alive and
  // the segment is served.
  const Addr a = 0x7000;
  const Addr b = 0x7020;
  for (const std::uint64_t delta : {0u, 1u}) {
    Triple t(fixed_ttl_config(16), 83);
    t.instr(a);  // clock 1
    t.instr(b);  // clock 2
    t.instr(a);  // clock 3: A lives to 19, both lines latched
    // Hits on B move the clock without moving the epoch: the segment
    // enters at 16 - delta, so A's first probe ticks 19 - delta.
    for (std::uint64_t c = 3; c < 16 - delta; ++c) {
      t.external_l1i_read(ProcId{1}, b);
    }
    const cache::CacheStats before = l1i_stats(t);
    for (int i = 0; i < 3; ++i) {
      t.instr(b);
      t.instr(b + 4);
      t.instr(a);
      t.instr(a + 4);
    }
    t.sync();
    EXPECT_EQ(l1i_stats(t).misses - before.misses, delta == 0 ? 1u : 0u);
    EXPECT_EQ(l1i_stats(t).ttl_expirations - before.ttl_expirations,
              delta == 0 ? 1u : 0u);
    expect_exact_through_probe_tail(t, {a, b}, {}, 16,
                                    "first fetch, delta " +
                                        std::to_string(delta));
  }
}

TEST(TtlSegments, GapOfTheLifetimeFallsBackAndOneLessIsServed) {
  // A is fetched once per pass, B the other gap - 1 times: A's largest gap
  // is `gap`.  Under lifetime 16, a gap of 16 lets A die before each
  // refetch (every pass after the first misses); a gap of 15 never does.
  const Addr a = 0x7000;
  const Addr b = 0x7020;
  constexpr std::uint32_t kTtl = 16;
  for (const std::uint32_t gap : {kTtl, kTtl - 1}) {
    Triple t(fixed_ttl_config(kTtl), 89);
    t.instr(a);
    t.instr(b);
    t.instr(a);
    t.sync();
    const cache::CacheStats before = l1i_stats(t);
    for (int pass = 0; pass < 10; ++pass) {
      t.instr(a);
      for (std::uint32_t j = 0; j + 1 < gap; ++j) t.instr(b + 4 * (j % 8));
    }
    t.sync();
    EXPECT_EQ(l1i_stats(t).misses - before.misses, gap == kTtl ? 9u : 0u)
        << "gap " << gap;
    expect_exact_through_probe_tail(t, {a, b}, {}, kTtl,
                                    "gap " + std::to_string(gap));
  }
}

TEST(TtlSegments, SetMateDiesAfterItsLastFetchInsideTheSegment) {
  // A and B share set 0 (latch slots 0 and 4), C is in set 1.  A's last
  // fetch is the segment's second; B's later probes of set 0 pass A's
  // expiry, so A dies inside the segment, before B's last fetch - a served
  // segment must reclaim it at set 0's last probe, having redone A's and
  // B's touches in last-touch order.
  const Addr a = 0x7000;
  const Addr b = 0x7080;
  const Addr c = 0x7020;
  for (const cache::ReplacementKind repl :
       {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru,
        cache::ReplacementKind::kNmru}) {
    sim::HierarchyConfig cfg = fixed_ttl_config(16, 0, kFourSets);
    cfg.l1i.replacement = repl;
    Triple t(cfg, 97);
    for (const Addr pc : {a, b, c, a, b}) t.instr(pc);  // clock 5, latched
    t.sync();
    const cache::CacheStats before = l1i_stats(t);
    t.instr(a);
    t.instr(a + 4);  // A's last fetch: it dies at tick 5 + 2 + 16
    for (int i = 0; i < 12; ++i) {
      t.instr(b);
      t.instr(c);
    }
    t.sync();
    EXPECT_EQ(l1i_stats(t).ttl_expirations - before.ttl_expirations, 1u);
    EXPECT_EQ(l1i_stats(t).misses, before.misses);
    expect_exact_through_probe_tail(
        t, {a, b, c}, {}, 16,
        "set mate, repl " + std::to_string(static_cast<int>(repl)));
  }
}

TEST(TtlSegments, DeadLineOutsideTheSegmentIsReclaimedAtItsSetsLastProbe) {
  // D (set 0) is not in the segment; A and B (set 0) and C (set 1) are.
  // Set 0's last probe ticks 29.  Lifetime 28: D dies at 29 and that
  // probe reclaims it.  Lifetime 29: D dies at 30, after set 0's last
  // probe, and stays until a later probe of its set - although C's
  // fetches carry the segment's clock past its expiry.
  const Addr d = 0x7100;
  const Addr a = 0x7000;
  const Addr b = 0x7080;
  const Addr c = 0x7020;
  for (const std::uint32_t ttl : {28u, 29u}) {
    Triple t(fixed_ttl_config(ttl, 0, kFourSets), 101);
    for (const Addr pc : {d, a, b, c, a, b}) t.instr(pc);  // clock 6
    t.sync();
    const cache::CacheStats before = l1i_stats(t);
    for (int i = 0; i < 8; ++i) {  // set 0 is last probed at offset 22
      t.instr(a);
      t.instr(b);
      t.instr(c);
    }
    for (int i = 0; i < 10; ++i) t.instr(c + 4 * (i % 8));
    t.sync();
    EXPECT_EQ(l1i_stats(t).ttl_expirations - before.ttl_expirations,
              ttl == 28 ? 1u : 0u);
    expect_exact_through_probe_tail(t, {a, b, c, d}, {}, ttl,
                                    "dead outsider, ttl " +
                                        std::to_string(ttl));
  }
}

TEST(TtlSegments, FlushClosingASegmentProbesAtTheSegmentsEndClock) {
  // A flush is its segment's last reference: it probes the L1I at the
  // tick after the segment's last fetch.  D shares B's set and dies at 41;
  // with 17 passes the flush of B probes at 41 and reclaims D, with 16 at
  // 39 and leaves it.
  const Addr a = 0x7000;
  const Addr b = 0x7020;
  const Addr d = b + 64 * 32;
  for (const int passes : {17, 16}) {
    Triple t(fixed_ttl_config(40), 103);
    for (const Addr pc : {d, a, b, a, a}) t.instr(pc);  // clock 5, latched
    t.sync();
    const cache::CacheStats before = l1i_stats(t);
    for (int i = 0; i < passes; ++i) {
      t.instr(a);
      t.instr(b);
    }
    t.flush_line(a + 4, b);
    t.sync();
    const cache::CacheStats after = l1i_stats(t);
    EXPECT_EQ(after.ttl_expirations - before.ttl_expirations,
              passes == 17 ? 1u : 0u);
    EXPECT_EQ(after.line_flush_hits - before.line_flush_hits, 1u);
    EXPECT_EQ(after.misses, before.misses);
    expect_exact_through_probe_tail(t, {a, b, d}, {}, 40,
                                    "flush, passes " +
                                        std::to_string(passes));
  }
}

TEST(TtlSegments, DataLineDyingInsideAServedSegment) {
  // The L1I (lifetime 400) serves the segment whole; inside it, the L1D
  // (lifetime 8) sees X stored to, ten latched loads of Y, and X loaded
  // again: X died dirty in between, so that load reclaims it, writes it
  // back and misses.
  const Addr a = 0x7000;
  const Addr b = 0x7020;
  const Addr x = 0xE000;
  const Addr y = x + 32;
  Triple t(fixed_ttl_config(400, 8), 107);
  t.load(a, x);
  t.load(b, y);
  t.instr(a);
  t.sync();
  const cache::CacheStats before = t.direct.hierarchy().l1d().stats();
  for (int pass = 0; pass < 3; ++pass) {
    t.store(a, x);
    for (int j = 0; j < 10; ++j) t.load(a + 4 * (j % 8), y + 4 * (j % 8));
    t.load(b, x);
  }
  t.sync();
  const cache::CacheStats after = t.direct.hierarchy().l1d().stats();
  EXPECT_EQ(after.ttl_expirations - before.ttl_expirations, 3u);
  EXPECT_EQ(after.writebacks - before.writebacks, 3u);
  EXPECT_EQ(l1i_stats(t).misses, 2u);  // A's and B's fills only
  expect_exact_through_probe_tail(t, {a, b}, {x, y}, 400, "data ttl");
}

// --- data segments -----------------------------------------------------------

/// L1D counters of the direct machine.
cache::CacheStats l1d_stats(Triple& t) {
  return t.direct.hierarchy().l1d().stats();
}

/// The first `n` line addresses from `from` that `proc`'s L1D mapping puts
/// in `set`.
std::vector<Addr> l1d_set_mates(Triple& t, std::uint32_t set, Addr from,
                                std::size_t n, ProcId proc = ProcId{1}) {
  const cache::IndexMapper& m = t.direct.hierarchy().l1d().mapper();
  std::vector<Addr> mates;
  for (Addr line = from >> 5; mates.size() < n; ++line) {
    if (m.map(line, proc) == set) mates.push_back(line << 5);
  }
  return mates;
}

TEST(DataSegments, OneAbsentLineFallsBackExactly) {
  // A loop loads X and Z and stores to Y; once all three are resident its
  // segments are served one batch per data line.  Two external reads of
  // set mates of Z evict Z (2-way LRU L1D) between two replays: the next
  // segment finds Z absent and replays reference by reference - Z's first
  // load misses and refills it, every other reference hits.
  const Addr a = 0x2000;
  const Addr x = 0x9000;
  const Addr y = x + 32;
  const Addr z = x + 64;
  for (const cache::MapperKind mapper : kL1iMappers) {
    sim::HierarchyConfig cfg =
        small_config(cache::MapperKind::kModulo, cache::ReplacementKind::kLru);
    cfg.l1d.mapper = mapper;
    Triple t(cfg, 113);
    t.set_seed(ProcId{1}, Seed{117});
    const auto body = [&t, a, x, y, z] {
      for (int i = 0; i < 20; ++i) {
        t.load(a, x + 4 * static_cast<Addr>(i % 8));
        t.store(a + 4, y);
        t.load(a + 8, z);
        t.branch(a + 12, true);
      }
      t.sync();
    };
    body();
    body();
    const std::uint32_t set =
        t.direct.hierarchy().l1d().find(ProcId{1}, z)->set;
    for (const Addr mate : l1d_set_mates(t, set, 0x30000, 2)) {
      t.external_l1d_read(ProcId{1}, mate);
    }
    const cache::CacheStats before = l1d_stats(t);
    body();
    if (mapper == cache::MapperKind::kModulo) {
      EXPECT_EQ(l1d_stats(t).misses - before.misses, 1u);
    }
    expect_exact_through_probe_tail(
        t, {a}, {x, y, z}, 0,
        "absent data line, mapper " + std::to_string(static_cast<int>(mapper)));
  }
}

TEST(DataSegments, SameSetLinesKeepTheirLastTouchOrder) {
  // Four resident data lines of one 4-way L1D set, loaded in one segment
  // first in order 0, 1, 2, 3 and last in order 3, 1, 0, 2; then a fifth
  // line of the set fills it, evicting whichever line the policy ranks
  // last, and line `probe` is loaded again: it misses iff it was the
  // victim.  A batch whose touches are redone in any other order than
  // last-touch order evicts another line under LRU, PLRU and NMRU - on a
  // TTL L1D too, where lifetimes of 1000 accesses let the segment be
  // served.
  const Addr a = 0x2000;
  for (const std::uint32_t ttl : {0u, 1000u}) {
    for (const cache::MapperKind mapper :
         {cache::MapperKind::kHashRp, cache::MapperKind::kRandomModulo}) {
      for (const cache::ReplacementKind repl :
           {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru,
            cache::ReplacementKind::kNmru}) {
        for (std::size_t probe = 0; probe < 4; ++probe) {
          sim::HierarchyConfig cfg =
              small_config(cache::MapperKind::kModulo, repl);
          cfg.l1d.config.geometry = cache::Geometry(2048, 4, 32);  // 16 sets
          cfg.l1d.mapper = mapper;
          cfg.l1d.replacement = repl;
          cfg.l1d.config.ttl_min = cfg.l1d.config.ttl_max = ttl;
          Triple t(cfg, 127);
          t.set_seed(ProcId{1}, Seed{131});
          const std::uint32_t set =
              t.direct.hierarchy().l1d().mapper().map(0x9000 >> 5, ProcId{1});
          const std::vector<Addr> same = l1d_set_mates(t, set, 0x9000, 5);
          for (std::size_t k = 0; k < 4; ++k) t.load(a, same[k]);
          t.sync();
          Addr pc = a;
          for (const std::size_t k : {0, 1, 2, 3, 2, 0, 1, 3, 1, 0, 2}) {
            t.load(pc, same[k]);
            pc = pc == a + 28 ? a : pc + 4;
          }
          t.sync();
          t.load(a, same[4]);
          t.load(a + 4, same[probe]);
          expect_exact_through_probe_tail(
              t, {a}, same, ttl,
              "data last touch, mapper " +
                  std::to_string(static_cast<int>(mapper)) + " repl " +
                  std::to_string(static_cast<int>(repl)) + " ttl " +
                  std::to_string(ttl) + " probe " + std::to_string(probe));
        }
      }
    }
  }
}

TEST(DataSegments, LineDyingAtItsFirstReferenceFallsBack) {
  // L1D lifetime 16.  X's expiry is the tick of its first reference in the
  // segment, the segment's third (delta 0): that probe reclaims it and
  // misses, so the segment must replay reference by reference.  One tick
  // later (delta 1) X is alive and the segment is served.
  const Addr a = 0x7000;
  const Addr x = 0xE000;
  const Addr y = x + 32;
  for (const std::uint64_t delta : {0u, 1u}) {
    Triple t(fixed_ttl_config(0, 16), 163);
    t.load(a, x);      // L1D clock 1: X lives to 17
    t.load(a + 4, y);  // clock 2
    // Hits on Y move the clock without moving the epoch: the segment
    // enters at 14 - delta, so X's first probe ticks 17 - delta.
    for (std::uint64_t c = 2; c < 14 - delta; ++c) {
      t.external_l1d_read(ProcId{1}, y);
    }
    const cache::CacheStats before = l1d_stats(t);
    for (int i = 0; i < 3; ++i) {
      t.load(a, y);
      t.load(a + 4, y + 4);
      t.load(a + 8, x);
      t.load(a + 12, x + 4);
    }
    t.sync();
    EXPECT_EQ(l1d_stats(t).misses - before.misses, delta == 0 ? 1u : 0u);
    EXPECT_EQ(l1d_stats(t).ttl_expirations - before.ttl_expirations,
              delta == 0 ? 1u : 0u);
    expect_exact_through_probe_tail(t, {a}, {x, y}, 16,
                                    "first reference, delta " +
                                        std::to_string(delta));
  }
}

TEST(DataSegments, StoredLineDyingAfterItsLastProbeIsWrittenBack) {
  // L1D lifetime 16.  X and Y share a set, Z is in another.  The segment
  // writes X once, at its first reference, then loads Y and Z 20 times
  // each: X dies 16 ticks after its write, and Y's next probe of the set
  // reclaims it inside the segment.  A served segment reclaims the set at
  // Y's last probe, and a stored X must be dirty by then: one writeback.
  const Addr a = 0x7000;
  const Addr x = 0xE000;
  const Addr y = x + 64 * 32;
  const Addr z = x + 32;
  for (const bool store : {true, false}) {
    Triple t(fixed_ttl_config(0, 16), 137);
    t.load(a, x);
    t.load(a + 4, y);
    t.load(a + 8, z);  // L1D clock 3
    t.sync();
    const cache::CacheStats before = l1d_stats(t);
    if (store) {
      t.store(a, x);
    } else {
      t.load(a, x);
    }
    for (int i = 0; i < 20; ++i) {
      t.load(a + 4, y);
      t.load(a + 8, z);
    }
    t.sync();
    const cache::CacheStats after = l1d_stats(t);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.ttl_expirations - before.ttl_expirations, 1u);
    EXPECT_EQ(after.writebacks - before.writebacks, store ? 1u : 0u);
    expect_exact_through_probe_tail(t, {a}, {x, y, z}, 16,
                                    store ? "dirty dies" : "clean dies");
  }
}

TEST(DataSegments, RpCachePartitionedAndRandomFillServedOnlyWhenAllHit) {
  // Loops whose data lines are resident but for one the cell keeps out:
  // every segment holding it must replay reference by reference.
  const Addr a = 0x2000;
  const Addr y = 0x9020;
  const auto loop = [a, y](Triple& t, Addr x, Addr x2, int passes) {
    for (int i = 0; i < passes; ++i) {
      t.load(a, y);
      t.load(a + 4, x);
      t.store(a + 8, y + 4);
      t.load(a + 12, x2);
      t.branch(a + 16, true);
    }
    t.sync();
  };
  {
    // RPCache: proc 2 owns both ways of X's set, so proc 1's loads of X
    // meet a foreign victim and are declined, every time.
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1d.mapper = cache::MapperKind::kRpCache;
    Triple t(cfg, 139);
    t.set_seed(ProcId{1}, Seed{5});
    t.set_seed(ProcId{2}, Seed{6});
    const Addr x = 0xC000;
    const std::uint32_t set = t.direct.hierarchy().l1d().mapper().map(
        x >> 5, ProcId{1});
    t.set_process(ProcId{2});
    for (const Addr mate : l1d_set_mates(t, set, 0x10000, 2, ProcId{2})) {
      t.load(a, mate);
    }
    t.set_process(ProcId{1});
    loop(t, x, x, 3);
    const cache::CacheStats before = l1d_stats(t);
    loop(t, x, x, 10);
    // Every load of X misses; the random line each decline evicts may be Y.
    EXPECT_GE(l1d_stats(t).misses - before.misses, 20u);
    expect_exact_through_probe_tail(t, {a}, {x, y}, 0, "rpcache");
  }
  {
    // Way-partitioned: proc 1 fills one way, so X and X' of one set evict
    // each other; Y stays.  Then X' moves to another set: all hit.
    Triple t(small_config(cache::MapperKind::kModulo,
                          cache::ReplacementKind::kLru),
             149);
    t.partition_l1d(ProcId{1}, 0, 1);
    const Addr x = 0xC000;
    loop(t, x, x + 64 * 32, 3);
    cache::CacheStats before = l1d_stats(t);
    loop(t, x, x + 64 * 32, 10);
    EXPECT_EQ(l1d_stats(t).misses - before.misses, 20u);
    loop(t, x, x + 64, 3);
    before = l1d_stats(t);
    loop(t, x, x + 64, 10);
    EXPECT_EQ(l1d_stats(t).misses, before.misses);
    expect_exact_through_probe_tail(t, {a}, {x, x + 64, y}, 0, "partitioned");
  }
  {
    // Random fill: a demand miss caches a random neighbour instead, so a
    // line may stay absent however often it is loaded.
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1d.config.random_fill_window = 2;
    Triple t(cfg, 151);
    for (Addr k = 0; k < 8; ++k) {
      loop(t, 0xD000 + 32 * k, 0xD000 + 32 * ((k + 3) % 8), 6);
    }
    expect_exact_through_probe_tail(t, {a}, {0xD000, 0xD020, y}, 0,
                                    "random fill");
  }
}

TEST(DataSegments, SixtyFiveDataLinesKeepThePerReferencePath) {
  // One segment over kSegmentDataLines data lines is batched, one over a
  // line more is not; both replay exactly, all hits, and the stores of the
  // second pass leave dirty lines the probe tail writes back.
  constexpr std::uint32_t kLines = sim::FetchTrace::kSegmentDataLines;
  for (const std::uint32_t lines : {kLines, kLines + 1}) {
    Triple t(small_config(cache::MapperKind::kModulo,
                          cache::ReplacementKind::kLru),
             157);
    std::vector<Addr> data;
    for (Addr k = 0; k < lines; ++k) data.push_back(0x9000 + 32 * k);
    for (const Addr ea : data) t.load(0x2000, ea);
    t.sync();
    for (std::uint32_t k = 0; k < lines; ++k) {
      const Addr pc = 0x2000 + 4 * Addr{k % 8};
      if (k % 3 == 0) {
        t.store(pc, data[k]);
      } else {
        t.load(pc, data[k]);
      }
    }
    EXPECT_EQ(t.pending.segments(), 1u);
    EXPECT_EQ(t.pending.line_refs().size(), lines == kLines ? kLines : 0u);
    const cache::CacheStats before = l1d_stats(t);
    t.sync();
    EXPECT_EQ(l1d_stats(t).misses, before.misses);
    expect_exact_through_probe_tail(t, {0x2000}, data, 0,
                                    std::to_string(lines) + " data lines");
  }
}

// --- the replay data latch -----------------------------------------------------

TEST(ReplayDataLatch, StoreHitOnTheLatchedLineWritesBackOnEviction) {
  // X is latched by a load, then stored to through the latch: under
  // write-back the line turns dirty and its eviction (by Y and Z of the
  // same modulo set) writes it back; under write-through it does not.
  const Addr x = 0xA000;
  const Addr y = x + 64 * 32;
  const Addr z = y + 64 * 32;
  for (const bool write_back : {true, false}) {
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1d.config.write_back = write_back;
    Triple t(cfg, 47);
    t.load(0x1000, x);
    t.store(0x1004, x);
    t.store(0x1008, x + 4);
    t.load(0x100C, y);
    t.load(0x1010, z);  // evicts X, the LRU way
    t.expect_exact(write_back ? "write-back" : "write-through");
    EXPECT_EQ(t.replayed.hierarchy().l1d().stats().writebacks,
              write_back ? 1u : 0u);
  }
}

TEST(ReplayDataLatch, WriteNoAllocateStoreMissDoesNotArm) {
  // A store miss under write-no-allocate leaves the line out: the latch it
  // armed must resolve to nothing, so the next store misses again.
  sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                          cache::ReplacementKind::kLru);
  cfg.l1d.config.write_allocate = false;
  Triple t(cfg, 53);
  const Addr x = 0xB000;
  t.store(0x1000, x);
  t.store(0x1004, x + 4);
  t.expect_exact("no-allocate misses");
  EXPECT_EQ(t.replayed.hierarchy().l1d().stats().misses, 2u);
  t.load(0x1008, x);  // allocates
  t.store(0x100C, x);  // latched store hit: dirty under write-back
  t.load(0x1010, x + 64 * 32);
  t.load(0x1014, x + 2 * 64 * 32);
  t.expect_exact("no-allocate then hit");
  EXPECT_EQ(t.replayed.hierarchy().l1d().stats().writebacks, 1u);
}

TEST(ReplayDataLatch, RpCacheContentionAndRandomFillStayDisarmed) {
  {
    // Proc 2 owns both ways of X's set: proc 1's loads of X meet a foreign
    // victim and are declined, every time.
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1d.mapper = cache::MapperKind::kRpCache;
    Triple t(cfg, 59);
    const ProcId p1{1};
    const ProcId p2{2};
    t.set_seed(p1, Seed{5});
    t.set_seed(p2, Seed{6});
    const Addr x = 0xC000;
    const cache::IndexMapper& m = t.direct.hierarchy().l1d().mapper();
    const std::uint32_t set = m.map(x >> 5, p1);
    t.set_process(p2);
    int foreign = 0;
    for (Addr line = 0x800; foreign < 2; ++line) {
      if (m.map(line, p2) != set) continue;
      t.load(0x1000, line << 5);
      ++foreign;
    }
    t.set_process(p1);
    const cache::CacheStats before = t.replayed.hierarchy().l1d().stats();
    t.load(0x1000, x);
    t.load(0x1004, x + 4);
    t.load(0x1008, x + 8);
    t.expect_exact("rpcache data contention");
    const cache::CacheStats after = t.replayed.hierarchy().l1d().stats();
    EXPECT_EQ(after.misses, before.misses + 3);
    EXPECT_GE(after.contention_evictions, before.contention_evictions + 1);
  }
  {
    // Random fill: a demand miss caches a random neighbour instead.
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1d.config.random_fill_window = 2;
    Triple t(cfg, 61);
    for (int i = 0; i < 200; ++i) {
      const Addr x = 0xD000 + 32 * static_cast<Addr>(i % 7);
      t.load(0x1000, x);
      t.load(0x1004, x + 4);
      t.store(0x1008, x + 8);
    }
    t.expect_exact("random fill");
  }
}

TEST(ReplayDataLatch, TtlLineDyingUnderTheLatchMisses) {
  // Clepsydra L1D with a fixed lifetime of 8 accesses.  X is the latched
  // line when one replay ends; external hits on Y (another set) then run
  // the clock past X's lifetime without moving the epoch.  The next
  // replay's load of X finds the latch valid, and must still tick, reclaim
  // and miss, exactly as access() would.
  sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                          cache::ReplacementKind::kLru);
  cfg.l1d.config.ttl_min = 8;
  cfg.l1d.config.ttl_max = 8;
  Triple t(cfg, 67);
  const Addr x = 0xE000;
  const Addr y = x + 32;
  t.load(0x1000, y);
  t.load(0x1004, x);
  t.load(0x1008, x + 4);  // latched: X refreshed
  for (int i = 0; i < 8; ++i) t.external_l1d_read(ProcId{1}, y);
  const cache::CacheStats before = t.replayed.hierarchy().l1d().stats();
  t.load(0x100C, x + 8);
  t.load(0x1010, x + 12);
  t.expect_exact("ttl data latch");
  const cache::CacheStats after = t.replayed.hierarchy().l1d().stats();
  EXPECT_EQ(after.ttl_expirations, before.ttl_expirations + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
}

TEST(ReplayDataLatch, QuantizedHitCostsTheQuantum) {
  // TimeCache: every L1D hit, latched ones included, costs the quantum.
  sim::HierarchyConfig cfg = small_config(cache::MapperKind::kRandomModulo,
                                          cache::ReplacementKind::kLru);
  cfg.latency.quantum = 70;
  Triple t(cfg, 71);
  loop_over(t, {0x2000, 0x2020}, 50, 6);
  t.expect_exact("quantized data hits");
  const Cycles before = t.replayed.now();
  t.load(0x3000, 0x9000);  // a data hit, and a fetch miss
  t.load(0x3004, 0x9000);  // both hits
  t.expect_exact("quantized pair");
  // Fetch miss 1 + 69 and data hit 69, then fetch hit 1 + 69, data hit 69.
  EXPECT_EQ(t.replayed.now() - before, Cycles{70 + 69 + 70 + 69});
}

TEST(ReplayDataLatch, ExternalL1dAccessBetweenReplays) {
  // X and Y share a 2-way LRU L1D set.  X is latched when a replay ends;
  // an external hit makes Y most recent; the next replay's latched hit on X
  // must redo X's touch, so Z's fill evicts Y and X still hits.  An
  // external miss in between moves the epoch and disarms the latch.
  const Addr x = 0xF000;
  const Addr y = x + 64 * 32;
  const Addr z = y + 64 * 32;
  Triple t(small_config(cache::MapperKind::kModulo,
                        cache::ReplacementKind::kLru),
           73);
  t.load(0x1000, y);
  t.load(0x1004, x);
  t.external_l1d_read(ProcId{1}, y);
  t.load(0x1008, x + 4);  // latched
  t.load(0x100C, z);      // evicts Y
  t.sync();
  const cache::CacheStats before = t.replayed.hierarchy().l1d().stats();
  t.load(0x1010, x + 8);
  t.expect_exact("external l1d hit");
  EXPECT_EQ(t.replayed.hierarchy().l1d().stats().hits, before.hits + 1)
      << "the latched load did not refresh X's recency";
  t.external_l1d_read(ProcId{1}, y);  // a miss: evicts X's LRU partner
  t.load(0x1014, x + 12);
  t.load(0x1018, y + 4);
  t.load(0x101C, z + 4);
  t.expect_exact("external l1d miss");
}

TEST(ReplayDataLatch, LatchHoldsItsLineAcrossHitsOnOtherLines) {
  // X and Y share a 2-way LRU L1D set.  The latch is armed on X (the next
  // reference repeats X) and not re-armed by the hit on Y between X's
  // references, so X's later reference is served through it: it must redo
  // X's touch, so Z's fill evicts Y, not X.  Then a stream that never
  // repeats a line, round-robin over X, Y and Z, misses every time.
  const Addr x = 0x10000;
  const Addr y = x + 64 * 32;
  const Addr z = y + 64 * 32;
  for (const bool write_back : {true, false}) {
    sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                            cache::ReplacementKind::kLru);
    cfg.l1d.config.write_back = write_back;
    Triple t(cfg, 79);
    t.load(0x1000, y);
    t.load(0x1004, x);
    t.store(0x1008, x + 4);  // latched
    t.load(0x100C, y + 4);   // a hit on another line
    t.load(0x1010, x + 8);   // latched again: X most recent
    t.load(0x1014, z);       // evicts Y
    t.load(0x1018, x + 12);
    t.expect_exact("latch across a hit");
    const cache::CacheStats before = t.replayed.hierarchy().l1d().stats();
    for (int i = 0; i < 12; ++i) {
      const Addr lines[] = {y, z, x};
      t.load(0x101C, lines[i % 3] + 4 * (i % 8));
    }
    t.expect_exact("no repeated line");
    EXPECT_EQ(t.replayed.hierarchy().l1d().stats().misses, before.misses + 12);
    EXPECT_EQ(t.replayed.hierarchy().l1d().stats().writebacks,
              write_back ? 1u : 0u);
  }
}

// --- Cache::epoch -------------------------------------------------------------

std::unique_ptr<cache::Cache> small_cache(cache::MapperKind mapper,
                                          std::uint32_t ttl_max = 0) {
  cache::CacheSpec spec;
  spec.config.geometry = cache::Geometry(4096, 2, 32);
  spec.mapper = mapper;
  spec.config.ttl_min = ttl_max;
  spec.config.ttl_max = ttl_max;
  return cache::build_cache(spec, std::make_shared<rng::XorShift64Star>(1));
}

TEST(CacheEpoch, EveryBumpingMutatorMovesItAndReadHitsDoNot) {
  const auto c = small_cache(cache::MapperKind::kModulo);
  const ProcId p{1};
  std::uint64_t e = c->epoch();
  const auto moved = [&](const char* what) {
    EXPECT_NE(c->epoch(), e) << what;
    e = c->epoch();
  };

  (void)c->access(p, 0x100, false);
  moved("miss/fill");
  (void)c->access(p, 0x104, false);
  (void)c->access(p, 0x100, true);
  EXPECT_EQ(c->epoch(), e) << "hits (read and write) must not move it";
  (void)c->resident_way(c->access(p, 0x100, false).set, 0x100);
  (void)c->latched_hits(0, 0, 3, false);
  EXPECT_EQ(c->epoch(), e) << "latched hits must not move it";
  (void)c->access(p, 0x100 + 4096, false);
  (void)c->access(p, 0x100 + 8192, false);
  moved("miss with eviction");
  (void)c->flush_line(p, 0x100);
  moved("flush_line");
  (void)c->flush_line(p, 0x7700);
  moved("flush_line of an absent line");
  (void)c->flush();
  moved("flush");
  c->set_seed(p, Seed{9});
  moved("set_seed");
  c->set_way_partition(p, 0, 1);
  moved("set_way_partition");
  c->clear_way_partition(p);
  moved("clear_way_partition");
  c->reset();
  moved("reset");

  // RPCache: a contention decline is a miss like any other.
  const auto rp = small_cache(cache::MapperKind::kRpCache);
  const std::uint64_t before = rp->epoch();
  (void)rp->access(p, 0x100, false);
  EXPECT_NE(rp->epoch(), before);
}

TEST(CacheEpoch, TtlExpiryMovesItOnAHit) {
  // Lifetime 3 accesses.  X and Y share set 0; Y's hits keep Y alive
  // while X's lifetime runs out, and the hit whose probe reclaims X moves
  // the epoch (X's way became free) although it is a hit.
  const auto c = small_cache(cache::MapperKind::kModulo, 3);
  const ProcId p{1};
  const Addr x = 0x0;
  const Addr y = 4096;  // same set, other way
  (void)c->access(p, x, false);  // clock 1: X dies at 4
  (void)c->access(p, y, false);  // clock 2
  const std::uint64_t e = c->epoch();
  EXPECT_TRUE(c->access(p, y, false).hit);  // clock 3
  EXPECT_EQ(c->epoch(), e);
  EXPECT_TRUE(c->access(p, y, false).hit);  // clock 4: reclaims X
  EXPECT_EQ(c->stats().ttl_expirations, 1u);
  EXPECT_NE(c->epoch(), e);
}

// --- Cache::latched_segment --------------------------------------------------------

TEST(LatchedSegment, ServedIffEveryProbeHitsAndThenExactlyLikeThem) {
  // Random stretches of read probes over resident lines of a small TTL
  // cache.  Cache `a` takes each stretch as one latched_segment, its twin
  // `b` probe by probe through access(): the segment must be served iff
  // every probe hits, change nothing when declined, and leave `a` where
  // the probes left `b` - which random traffic afterwards, hit by hit,
  // would expose.
  rng::SplitMix64 r(5);
  for (const cache::ReplacementKind repl :
       {cache::ReplacementKind::kLru, cache::ReplacementKind::kPlru,
        cache::ReplacementKind::kNmru, cache::ReplacementKind::kFifo,
        cache::ReplacementKind::kRandom}) {
    cache::CacheSpec spec;
    spec.config.geometry = kFourSets;
    spec.config.ttl_min = 4;
    spec.config.ttl_max = 24;
    spec.replacement = repl;
    const auto a = cache::build_cache(
        spec, std::make_shared<rng::XorShift64Star>(11));
    const auto b = cache::build_cache(
        spec, std::make_shared<rng::XorShift64Star>(11));
    const ProcId p{1};
    const auto both = [&](Addr addr, bool write) {
      const bool hit = a->access(p, addr, write).hit;
      EXPECT_EQ(hit, b->access(p, addr, write).hit);
    };
    const auto expect_twins = [&](const std::string& what) {
      const cache::CacheStats x = a->stats();
      const cache::CacheStats y = b->stats();
      EXPECT_EQ(x.accesses, y.accesses) << what;
      EXPECT_EQ(x.hits, y.hits) << what;
      EXPECT_EQ(x.evictions, y.evictions) << what;
      EXPECT_EQ(x.writebacks, y.writebacks) << what;
      EXPECT_EQ(x.ttl_expirations, y.ttl_expirations) << what;
    };
    int served = 0;
    int declined = 0;
    for (int round = 0; round < 300; ++round) {
      for (int i = 0; i < 12; ++i) {
        both(32 * r.next_below(24), r.next_below(4) == 0);
      }
      // The stretch's lines: resident lines of the pool, each in its own
      // latch slot as a trace segment's are.
      std::vector<Addr> pool;
      std::vector<cache::Cache::SegmentLine> lines;
      for (Addr line = 0; line < 24 && lines.size() < 6; ++line) {
        const std::uint32_t set = static_cast<std::uint32_t>(line % 4);
        const auto way = a->resident_way(set, line << 5);
        if (!way || r.next_below(3) == 0) continue;
        pool.push_back(line << 5);
        lines.push_back({set, *way, 0, 0, 0, 0, false});
      }
      if (lines.empty()) continue;
      // A probe order, and each line's hits, first/last offsets and gap.
      const std::uint64_t probes = 1 + r.next_below(48);
      std::vector<std::size_t> order;
      std::vector<std::size_t> touch;  // last-touch order of lines
      for (std::uint64_t j = 0; j < probes; ++j) {
        const std::size_t k = r.next_below(2) == 0 && !order.empty()
                                  ? order.back()
                                  : r.next_below(lines.size());
        cache::Cache::SegmentLine& l = lines[k];
        if (l.hits == 0) {
          l.first = j;
        } else {
          l.gap = std::max(l.gap, j - l.last);
        }
        l.last = j;
        ++l.hits;
        order.push_back(k);
        std::erase(touch, k);
        touch.push_back(k);
      }
      std::vector<cache::Cache::SegmentLine> segment;
      for (const std::size_t k : touch) segment.push_back(lines[k]);

      const cache::CacheStats before = a->stats();
      const std::uint64_t epoch = a->epoch();
      const bool ok = a->latched_segment(
          segment.data(), static_cast<unsigned>(segment.size()), probes);
      bool all_hit = true;
      for (const std::size_t k : order) {
        all_hit = b->access(p, pool[k], false).hit && all_hit;
      }
      const std::string what = "round " + std::to_string(round) + " repl " +
                               std::to_string(static_cast<int>(repl));
      ASSERT_EQ(ok, all_hit) << what;
      if (ok) {
        ++served;
      } else {
        ++declined;
        EXPECT_EQ(a->stats().accesses, before.accesses) << what;
        EXPECT_EQ(a->stats().ttl_expirations, before.ttl_expirations)
            << what;
        EXPECT_EQ(a->epoch(), epoch) << what;
        for (const std::size_t k : order) (void)a->access(p, pool[k], false);
      }
      expect_twins(what);
    }
    for (int i = 0; i < 400; ++i) both(32 * r.next_below(24), false);
    expect_twins("traffic after");
    EXPECT_GT(served, 20);
    EXPECT_GT(declined, 20);
  }
}

// --- platform invariance ---------------------------------------------------------

TEST(FetchTraceRecording, ModuloAndClepsydraRecordTheSameTrace) {
  for (const Kernel& kernel : small_suite()) {
    const isa::Program program = isa::assemble(kernel.source, 0x1000);
    std::vector<sim::FetchTrace> traces;
    for (const core::PlacementPolicy policy :
         {core::PlacementPolicy::kModulo, core::PlacementPolicy::kClepsydra}) {
      const auto m = core::build_policy_machine(policy, 77, false);
      isa::Interpreter interp(*m);
      interp.load_program(program);
      traces.push_back(interp.record(0x1000));
      traces.push_back(interp.record(0x1000));
    }
    EXPECT_GT(traces[0].instructions(), 0u) << kernel.name;
    EXPECT_TRUE(traces[0] == traces[2]) << kernel.name << " warm pass";
    EXPECT_TRUE(traces[1] == traces[3]) << kernel.name << " timed pass";
    const isa::KernelPasses passes = isa::record_passes(program, 0x1000);
    EXPECT_TRUE(passes.warm == traces[0]) << kernel.name;
    EXPECT_TRUE(passes.timed == traces[1]) << kernel.name;
  }
}

TEST(FetchTraceRecording, ReplayRejectsAnotherLineSize) {
  sim::FetchTrace trace(64);
  trace.instr(0x1000);
  const auto m =
      deploy_machine(policy_cell(core::PlacementPolicy::kModulo, false), 1);
  EXPECT_THROW(m->replay(trace), std::invalid_argument);
  // The data lines are cut at the trace's line size too: an L1D of another
  // line size is rejected, although the L1I's matches.
  sim::HierarchyConfig cfg = small_config(cache::MapperKind::kModulo,
                                          cache::ReplacementKind::kLru);
  cfg.l1d.config.geometry = cache::Geometry(4096, 2, 64);
  sim::Machine wide(cfg, std::make_shared<rng::XorShift64Star>(1));
  sim::FetchTrace narrow(32);
  narrow.load(0x1000, 0x9000);
  EXPECT_THROW(wide.replay(narrow), std::invalid_argument);
}

TEST(FetchTraceRecording, HandBuiltTraceGetsTheRecordedSegments) {
  // A loop of loads from one pc over consecutive data lines - the shape of
  // the campaign's hand-built OS and noise traces - written through the
  // trace's verbs, against the same loop recorded from the interpreter.
  // The body spans two L1I lines, so the trace has several segments, and
  // segments fold as the trace is written: both get the same ones.
  // 2n + 1 runs: three full segments and part of a fourth.
  constexpr int n = 3 * kSegmentRuns / 2 + 18;
  std::string source =
      "        lui  r1, 4\n"        // r1 = 0x40000
      "        addi r3, r0, 0\n"
      "loop:   lw   r2, 0(r1)\n"
      "        addi r1, r1, 32\n"
      "        addi r3, r3, 1\n"
      "        slti r4, r3, " + std::to_string(n) + "\n";
  for (int i = 0; i < 4; ++i) source += "        nop\n";
  source +=
      "        bne  r4, r0, loop\n"
      "        halt\n";
  const isa::KernelPasses recorded =
      isa::record_passes(isa::assemble(source, 0x1000), 0x1000);

  sim::FetchTrace hand(32);
  hand.instr(0x1000);
  hand.instr(0x1004);
  for (int i = 0; i < n; ++i) {
    hand.load(0x1008, 0x40000 + 32 * static_cast<Addr>(i));
    for (Addr pc = 0x100C; pc < 0x1028; pc += 4) hand.instr(pc);
    hand.branch(0x1028, i < n - 1);
  }
  hand.instr(0x102C);

  EXPECT_EQ(hand.segments(), 4u);
  EXPECT_EQ(hand.segments(), recorded.warm.segments());
  EXPECT_TRUE(hand == recorded.warm);
}

TEST(FetchTraceRecording, SegmentLinesRecordFirstLastAndGap) {
  // One segment over A, B and C (own latch slots) closed by a flush fetched
  // from B; then A opens the next segment and D, A's slot mate, cuts it.
  const Addr a = 0x1000;
  const Addr b = 0x1020;
  const Addr c = 0x1040;
  const Addr d = a + 8 * 32;
  sim::FetchTrace trace(32);
  trace.instr(a);          // 0
  trace.instr(a + 4);      // 1
  trace.instr(b);          // 2
  trace.branch(a, true);   // 3
  trace.load(c, 0x9000);   // 4
  trace.instr(c + 4);      // 5
  trace.instr(c + 8);      // 6
  trace.instr(a + 8);      // 7
  trace.instr(b + 4);      // 8
  trace.flush_line(b + 8, 0x9000);  // 9
  trace.instr(a);          // next segment: 0
  trace.instr(a);          // 1
  trace.instr(d);          // cut: 0
  using LF = sim::FetchTrace::LineFetches;
  const std::vector<LF> expected = {
      LF{c >> 5, 3, 4, 6, 1},  // last touched first
      LF{a >> 5, 4, 0, 7, 4},
      LF{b >> 5, 3, 2, 9, 6},
      LF{a >> 5, 2, 0, 1, 1},
      LF{d >> 5, 1, 0, 0, 0},
  };
  EXPECT_EQ(trace.segments(), 3u);
  EXPECT_TRUE(trace.line_fetches() == expected);
}

TEST(FetchTraceRecording, DataLinesRecordRefsStoreFirstLastAndGap) {
  // A segment over data lines X, Y and Z; a second one (A's slot mate D
  // cuts it) closed by a flush keeps no data lines; a third after it does.
  const Addr a = 0x1000;
  const Addr d = a + 8 * 32;
  const Addr x = 0x9000;
  const Addr y = 0x9020;
  const Addr z = 0x9040;
  sim::FetchTrace trace(32);
  trace.load(a, x);           // 0
  trace.instr(a + 4);
  trace.store(a + 8, y);      // 1
  trace.load(a + 12, x + 4);  // 2
  trace.branch(a + 16, true);
  trace.load(a + 20, z);      // 3
  trace.store(a + 24, x + 8);  // 4
  trace.load(a + 28, y + 4);  // 5
  trace.load(d, x);           // next segment
  trace.store(d + 4, z);
  trace.flush_line(d + 8, y);
  trace.store(d + 12, z);     // third segment: 0
  trace.load(d + 16, z + 4);  // 1
  using LR = sim::FetchTrace::LineRefs;
  const std::vector<LR> expected = {
      LR{z >> 5, 1, 3, 3, 0, false},  // last touched first
      LR{x >> 5, 3, 0, 4, 2, true},
      LR{y >> 5, 2, 1, 5, 4, true},
      LR{z >> 5, 2, 0, 1, 1, true},
  };
  EXPECT_EQ(trace.segments(), 3u);
  EXPECT_TRUE(trace.line_refs() == expected);

  // A loop recorded from the interpreter and written by hand: one segment
  // (every pc in one L1I line) over a loaded line and a stored one.
  constexpr int kPasses = 50;
  const isa::KernelPasses recorded = isa::record_passes(
      isa::assemble("        lui  r1, 4\n"  // r1 = 0x40000
                    "        addi r3, r0, 0\n"
                    "loop:   lw   r2, 0(r1)\n"
                    "        sw   r2, 32(r1)\n"
                    "        addi r3, r3, 1\n"
                    "        slti r4, r3, " + std::to_string(kPasses) + "\n"
                    "        bne  r4, r0, loop\n"
                    "        halt\n",
                    0x1000),
      0x1000);
  sim::FetchTrace hand(32);
  hand.instr(0x1000);
  hand.instr(0x1004);
  for (int i = 0; i < kPasses; ++i) {
    hand.load(0x1008, 0x40000);
    hand.store(0x100C, 0x40020);
    hand.instr(0x1010);
    hand.instr(0x1014);
    hand.branch(0x1018, i < kPasses - 1);
  }
  hand.instr(0x101C);
  const std::vector<LR> loop_lines = {
      LR{0x40000 >> 5, kPasses, 0, 2 * kPasses - 2, 2, false},
      LR{0x40020 >> 5, kPasses, 1, 2 * kPasses - 1, 2, true},
  };
  EXPECT_EQ(hand.segments(), 1u);
  EXPECT_TRUE(hand.line_refs() == loop_lines);
  EXPECT_TRUE(hand == recorded.warm);
}

TEST(FetchTraceRecording, RecordRestoresTheSinkWhenItThrows) {
  struct CountingSink final : isa::TraceSink {
    std::uint64_t steps = 0;
    void step(Addr, const isa::Instr&, Addr) override { ++steps; }
  };
  const auto m =
      deploy_machine(policy_cell(core::PlacementPolicy::kModulo, false), 1);
  isa::Interpreter interp(*m);
  interp.load_program(isa::assemble("        nop\n        halt\n", 0x1000));
  CountingSink sink;
  interp.set_trace_sink(&sink);
  // A pc beyond 32 bits cannot be written to a trace: recording throws
  // mid-run, and the sink attached before must be back in place.
  EXPECT_THROW((void)interp.record(Addr{1} << 32), std::out_of_range);
  (void)interp.run_reference(0x1000);
  EXPECT_EQ(sink.steps, 2u);
}

TEST(FetchTraceRecording, RecordPassesRejectsATruncatedPass) {
  const auto message_of = [](const std::string& source) -> std::string {
    try {
      (void)isa::record_passes(isa::assemble(source, 0x1000), 0x1000);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "no error";
  };
  // The step limit, in the warm pass: it spins for the whole default limit.
  const std::string spin = message_of("loop:   jal  r0, loop\n");
  EXPECT_NE(spin.find("warm pass"), std::string::npos) << spin;
  EXPECT_NE(spin.find("step limit"), std::string::npos) << spin;
  EXPECT_NE(spin.find(std::to_string(isa::kDefaultMaxSteps) + " steps"),
            std::string::npos)
      << spin;
  // A bad instruction, in the timed pass only: the warm pass counts to 1
  // in memory and halts, the timed pass counts to 2 and runs into it.
  const std::string bad = message_of(
      "        lui  r1, 4\n"
      "        lw   r2, 0(r1)\n"
      "        addi r2, r2, 1\n"
      "        sw   r2, 0(r1)\n"
      "        slti r3, r2, 2\n"
      "        bne  r3, r0, done\n"
      "        .word 4294967295\n"
      "done:   halt\n");
  EXPECT_NE(bad.find("timed pass"), std::string::npos) << bad;
  EXPECT_NE(bad.find("bad instruction"), std::string::npos) << bad;
  // A kernel that halts in both passes records.
  EXPECT_EQ(message_of("        nop\n        halt\n"), "no error");
}

}  // namespace
}  // namespace tsc
