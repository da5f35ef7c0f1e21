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
// through the public hierarchy().
#include <gtest/gtest.h>

#include <memory>
#include <optional>
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

/// A matrix cell deployed from `seed`: the cell's hierarchy, both matrix
/// processes seeded, the L1D/L2 ways split when partitioned, the victim
/// running.  Applied identically to machines and the oracle.
struct Cell {
  core::PlacementPolicy policy;
  bool partitioned;

  [[nodiscard]] sim::HierarchyConfig config() const {
    return core::policy_hierarchy_config(policy);
  }
  [[nodiscard]] std::string name() const {
    return core::to_string(policy) + (partitioned ? "/part" : "");
  }
};

std::vector<Cell> all_cells() {
  std::vector<Cell> cells;
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      cells.push_back({policy, partitioned});
    }
  }
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
  const auto m = deploy_machine({core::PlacementPolicy::kModulo, false}, 1);
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
  (void)c->latched_hits(0, 0, 3);
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
  const auto m = deploy_machine({core::PlacementPolicy::kModulo, false}, 1);
  EXPECT_THROW(m->replay(trace), std::invalid_argument);
}

}  // namespace
}  // namespace tsc
