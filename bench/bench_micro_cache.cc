// Micro-benchmarks (google-benchmark): throughput of the primitives the
// simulator's inner loops live on - placement functions, cache accesses,
// Benes permutation construction, PRNG steps - of the pWCET run path
// (trace record and replay, the MBPTA cell analysis), of the runner's
// codec, checkpoint and frame layers, and of the key-rank scorers every
// attack cell ends in.
//
// These are engineering benchmarks for the library itself (the paper's
// hardware latencies are modeled, not measured); they guard against
// regressions that would make the 1e5..1e7-sample experiments impractical.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "attack/evicttime.h"
#include "attack/metrics.h"
#include "attack/profile.h"
#include "cache/benes.h"
#include "cache/builder.h"
#include "cache/placement.h"
#include "core/policy.h"
#include "crypto/sim_aes.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"
#include "runner/checkpoint.h"
#include "runner/codecs.h"
#include "runner/dispatcher.h"
#include "runner/machine_pool.h"
#include "sim/machine.h"

namespace {

using namespace tsc;

void BM_Placement(benchmark::State& state, cache::MapperKind kind) {
  const cache::Geometry geo = cache::l1_geometry_arm920t();
  const auto placement = cache::make_placement(kind, geo);
  Addr line = 0x12345;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement->set_index(line, Seed{seed}));
    line += 37;
    seed += (line & 0xFF) == 0 ? 1 : 0;  // occasional seed change
  }
}
BENCHMARK_CAPTURE(BM_Placement, modulo, cache::MapperKind::kModulo);
BENCHMARK_CAPTURE(BM_Placement, xor_index, cache::MapperKind::kXorIndex);
BENCHMARK_CAPTURE(BM_Placement, hashrp, cache::MapperKind::kHashRp);
BENCHMARK_CAPTURE(BM_Placement, random_modulo,
                  cache::MapperKind::kRandomModulo);

void BM_CacheAccess(benchmark::State& state, cache::MapperKind mapper) {
  cache::CacheSpec spec;
  spec.config.geometry = cache::l1_geometry_arm920t();
  spec.mapper = mapper;
  spec.replacement = mapper == cache::MapperKind::kModulo
                         ? cache::ReplacementKind::kLru
                         : cache::ReplacementKind::kRandom;
  auto rng = std::make_shared<rng::XorShift64Star>(1);
  auto cache_model = cache::build_cache(spec, rng);
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache_model->access(ProcId{1}, addr, false));
    addr = (addr + 4096 + 32) & 0xFFFFF;  // mixes hits and misses
  }
}
BENCHMARK_CAPTURE(BM_CacheAccess, modulo_lru, cache::MapperKind::kModulo);
BENCHMARK_CAPTURE(BM_CacheAccess, rm_random, cache::MapperKind::kRandomModulo);
BENCHMARK_CAPTURE(BM_CacheAccess, hashrp_random, cache::MapperKind::kHashRp);
BENCHMARK_CAPTURE(BM_CacheAccess, rpcache, cache::MapperKind::kRpCache);

// Hit-dominated variant: a working set the cache holds (the regime real
// campaigns run in - AES tables and stacks stay resident between misses).
void BM_CacheAccessHit(benchmark::State& state, cache::MapperKind mapper) {
  cache::CacheSpec spec;
  spec.config.geometry = cache::l1_geometry_arm920t();
  spec.mapper = mapper;
  spec.replacement = mapper == cache::MapperKind::kModulo
                         ? cache::ReplacementKind::kLru
                         : cache::ReplacementKind::kRandom;
  auto rng = std::make_shared<rng::XorShift64Star>(1);
  auto cache_model = cache::build_cache(spec, rng);
  Addr addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache_model->access(ProcId{1}, addr, false));
    addr = (addr + 32) & 0x1FFF;  // 8KB walk inside a 16KB cache
  }
}
BENCHMARK_CAPTURE(BM_CacheAccessHit, modulo_lru, cache::MapperKind::kModulo);
BENCHMARK_CAPTURE(BM_CacheAccessHit, rm_random,
                  cache::MapperKind::kRandomModulo);
BENCHMARK_CAPTURE(BM_CacheAccessHit, hashrp_random, cache::MapperKind::kHashRp);
BENCHMARK_CAPTURE(BM_CacheAccessHit, rpcache, cache::MapperKind::kRpCache);

// Trace replay through the full machine (paper platform, TSCache design):
// the entry point the campaign inner loops drive, on 1024 loads from
// scattered pcs (almost every fetch changes line).
void BM_MachineRunBatch(benchmark::State& state) {
  auto config = sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                    cache::MapperKind::kHashRp,
                                    cache::ReplacementKind::kRandom);
  sim::Machine machine(config, std::make_shared<rng::XorShift64Star>(7));
  machine.hierarchy().set_seed(ProcId{1}, Seed{2018});
  machine.set_process(ProcId{1});
  sim::FetchTrace trace;
  rng::SplitMix64 r(5);
  for (int i = 0; i < 1024; ++i) {
    trace.load(0x1000 + (r.next_u64() & 0xFF0),
               0x80000 + (r.next_u64() & 0xFFF0));
  }
  for (auto _ : state) {
    machine.replay(trace);
    benchmark::DoNotOptimize(machine.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.instructions()));
}
BENCHMARK(BM_MachineRunBatch);

// Whole-kernel interpretation on the paper platform (MBPTA/TSCache cache
// design): fetch, decode and execute every instruction with instruction and
// data traffic simulated through the hierarchy.  This is the per-run cost
// of the MBPTA protocols (fig1 / sec622 / pwcet_matrix), so its throughput
// bounds how many runs a campaign can collect.
void BM_Interpreter(benchmark::State& state, const std::string& source) {
  auto config = sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                    cache::MapperKind::kHashRp,
                                    cache::ReplacementKind::kRandom);
  sim::Machine machine(config, std::make_shared<rng::XorShift64Star>(7));
  machine.hierarchy().set_seed(ProcId{1}, Seed{2018});
  machine.set_process(ProcId{1});
  isa::Interpreter interp(machine);
  interp.load_program(isa::assemble(source, 0x1000));
  std::int64_t steps = 0;
  for (auto _ : state) {
    const isa::RunResult r = interp.run(0x1000);
    steps += static_cast<std::int64_t>(r.steps);
    benchmark::DoNotOptimize(r.cycles);
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK_CAPTURE(BM_Interpreter, vecsum,
                  tsc::isa::vector_sum_source(0x40000, 5120));
BENCHMARK_CAPTURE(BM_Interpreter, matmul,
                  tsc::isa::matmul_source(0x40000, 0x50000, 0x60000, 24));

// What one MBPTA run pays before any instruction executes.  Fresh: build a
// policy machine from scratch (the pre-pool protocol).  Reset: re-deploy a
// pooled machine with Machine::reset + configure (bit-exact, allocation
// free) - the MachinePool fast path.
void BM_MachineFresh(benchmark::State& state, core::PlacementPolicy policy) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    auto machine = core::build_policy_machine(policy, seed++, false);
    benchmark::DoNotOptimize(machine->now());
  }
}
BENCHMARK_CAPTURE(BM_MachineFresh, rm, core::PlacementPolicy::kRandomModulo);
BENCHMARK_CAPTURE(BM_MachineFresh, rpcache, core::PlacementPolicy::kRpCache);

void BM_MachineReset(benchmark::State& state, core::PlacementPolicy policy) {
  auto machine = core::build_policy_machine(policy, 0, false);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::deploy(*machine, {policy, seed++},
                 {core::kMatrixVictim, core::kMatrixAttacker});
    benchmark::DoNotOptimize(machine->now());
  }
}
BENCHMARK_CAPTURE(BM_MachineReset, rm, core::PlacementPolicy::kRandomModulo);
BENCHMARK_CAPTURE(BM_MachineReset, rpcache, core::PlacementPolicy::kRpCache);

// The pWCET matrix's per-run protocol on the replay path: a suite kernel's
// warm and timed passes, recorded once, replayed on a freshly leased cell
// machine (the MachinePool re-deployment included).  One instance per cell
// family: the two latch-hostile designs (Clepsydra's TTL clock, TimeCache's
// quantized hits) next to the plain ones.  The plain names replay the 24x24
// matmul kernel; the /sort ones the 256-word bubble sort, the suite kernel
// with the most runs (a three-line loop body, one data line per compare);
// the /memcpy ones the 8 KB copy, whose segments' data lines are resident
// only on some cells; the /stride ones the 64 B-stride walk wrapping at
// 32 KB, a thrashing footprint of 512 lines on the 16 KB L1, so much of
// its time goes to L1 misses served by the L2 design (hashRP is the L2 of
// the random-modulo and Clepsydra cells too).  modulo/partitioned replays
// matmul on the partitioned modulo cell, where conflict misses in the
// victim's half of the ways decline whole data segments.
const isa::KernelPasses& matmul_passes() {
  static const isa::KernelPasses passes = isa::record_passes(
      isa::assemble(isa::matmul_source(0x40000, 0x50000, 0x60000, 24),
                    0x1000),
      0x1000);
  return passes;
}

const isa::KernelPasses& sort_passes() {
  static const isa::KernelPasses passes = isa::record_passes(
      isa::assemble(isa::bubble_sort_source(0x40000, 256), 0x1000), 0x1000);
  return passes;
}

const isa::KernelPasses& memcpy_passes() {
  static const isa::KernelPasses passes = isa::record_passes(
      isa::assemble(isa::memcpy_source(0x40000, 0x60000, 2048), 0x1000),
      0x1000);
  return passes;
}

const isa::KernelPasses& stride_passes() {
  static const isa::KernelPasses passes = isa::record_passes(
      isa::assemble(isa::stride_walk_source(0x40000, 8192, 64, 32768),
                    0x1000),
      0x1000);
  return passes;
}

void BM_PwcetRun(benchmark::State& state, core::PlacementPolicy policy,
                 const isa::KernelPasses& (*kernel)(),
                 bool partitioned = false) {
  const isa::KernelPasses& passes = kernel();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::Machine& machine =
        runner::MachinePool::local()
            .policy_machine(policy, seed++, partitioned)
            .machine;
    machine.set_process(core::kMatrixVictim);
    benchmark::DoNotOptimize(passes.time(machine));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(passes.warm.instructions() +
                                passes.timed.instructions()));
}
BENCHMARK_CAPTURE(BM_PwcetRun, modulo, core::PlacementPolicy::kModulo,
                  matmul_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, hashrp, core::PlacementPolicy::kHashRp,
                  matmul_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, random_modulo,
                  core::PlacementPolicy::kRandomModulo, matmul_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, clepsydra, core::PlacementPolicy::kClepsydra,
                  matmul_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, timecache, core::PlacementPolicy::kTimeCache,
                  matmul_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, modulo/sort, core::PlacementPolicy::kModulo,
                  sort_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, hashrp/sort, core::PlacementPolicy::kHashRp,
                  sort_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, random_modulo/sort,
                  core::PlacementPolicy::kRandomModulo, sort_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, clepsydra/sort,
                  core::PlacementPolicy::kClepsydra, sort_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, timecache/sort,
                  core::PlacementPolicy::kTimeCache, sort_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, modulo/memcpy, core::PlacementPolicy::kModulo,
                  memcpy_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, hashrp/memcpy, core::PlacementPolicy::kHashRp,
                  memcpy_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, random_modulo/memcpy,
                  core::PlacementPolicy::kRandomModulo, memcpy_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, clepsydra/memcpy,
                  core::PlacementPolicy::kClepsydra, memcpy_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, timecache/memcpy,
                  core::PlacementPolicy::kTimeCache, memcpy_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, hashrp/stride, core::PlacementPolicy::kHashRp,
                  stride_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, random_modulo/stride,
                  core::PlacementPolicy::kRandomModulo, stride_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, clepsydra/stride,
                  core::PlacementPolicy::kClepsydra, stride_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, random_and_safe/stride,
                  core::PlacementPolicy::kRandomAndSafe, stride_passes);
BENCHMARK_CAPTURE(BM_PwcetRun, modulo/partitioned,
                  core::PlacementPolicy::kModulo, matmul_passes, true);

// Recording a kernel's two passes (what every pWCET stage pays once per
// kernel before fanning out): two interpreted runs plus trace compaction.
void BM_TraceRecord(benchmark::State& state) {
  const isa::Program program = isa::assemble(
      isa::matmul_source(0x40000, 0x50000, 0x60000, 24), 0x1000);
  for (auto _ : state) {
    const isa::KernelPasses passes = isa::record_passes(program, 0x1000);
    benchmark::DoNotOptimize(passes.timed.instructions());
  }
}
BENCHMARK(BM_TraceRecord);

// One pwcet_matrix cell's MBPTA analysis: i.i.d. tests and both tail fits
// over a 240-run sample of the matmul kernel on the random-modulo cell.
void BM_MbptaCell(benchmark::State& state) {
  static const std::vector<double> times = [] {
    std::vector<double> t;
    for (std::uint64_t run = 0; run < 240; ++run) {
      sim::Machine& machine =
          runner::MachinePool::local()
              .policy_machine(core::PlacementPolicy::kRandomModulo, run, false)
              .machine;
      machine.set_process(core::kMatrixVictim);
      t.push_back(static_cast<double>(matmul_passes().time(machine)));
    }
    return t;
  }();
  mbpta::AnalysisConfig cfg;
  cfg.min_runs = 100;
  cfg.block = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbpta::analyze(times, cfg).mbpta_applicable());
  }
}
BENCHMARK(BM_MbptaCell);

// The checkpoint codec on an attack-shard-sized accumulator: encode and
// decode a Bernstein timing profile of 400 samples.
void BM_ProfileCodec(benchmark::State& state) {
  rng::XorShift64Star r(3);
  attack::TimingProfile profile;
  for (int i = 0; i < 400; ++i) {
    profile.add(crypto::random_block(r),
                static_cast<double>(1000 + r.next_below(200)));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    runner::ByteWriter w;
    runner::ProfileCodec::put(w, profile);
    const std::vector<std::uint8_t> payload = std::move(w).take();
    runner::ByteReader reader(payload);
    benchmark::DoNotOptimize(runner::ProfileCodec::get_timing(reader));
    bytes += payload.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ProfileCodec);

// A fresh checkpoint's first save: 16 task payloads of 4 KB written as an
// atomic compacted snapshot (what --checkpoint pays per stage barrier).
void BM_CheckpointSave(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("bench_checkpoint_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const std::vector<std::uint8_t> payload(4096, 0xA5);
  for (auto _ : state) {
    runner::Checkpoint checkpoint("bench", "fingerprint");
    for (std::size_t task = 0; task < 16; ++task) {
      checkpoint.put("stage", 16, task, payload);
    }
    benchmark::DoNotOptimize(checkpoint.save(path));
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_CheckpointSave);

// A dispatcher Result-sized frame (16 KB) sent through a pipe with
// send_frame and parsed back with FrameParser.
void BM_FrameRoundTrip(benchmark::State& state) {
  int fds[2];
  if (::pipe(fds) != 0) {
    state.SkipWithError("pipe() failed");
    return;
  }
  const std::vector<std::uint8_t> body(16 * 1024, 0x5A);
  std::vector<std::uint8_t> buf(body.size() + 4);
  std::vector<std::uint8_t> out;
  runner::FrameParser parser;
  for (auto _ : state) {
    runner::send_frame(fds[1], body);
    std::size_t got = 0;
    while (got < buf.size()) {
      const ssize_t n = ::read(fds[0], buf.data() + got, buf.size() - got);
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    parser.feed(buf.data(), got);
    benchmark::DoNotOptimize(parser.next(out));
  }
  ::close(fds[0]);
  ::close(fds[1]);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_FrameRoundTrip);

// Key-rank scoring of one attack cell shaped like a golden one: a merged
// 1200-trial log of synthetic observations (a few probe misses per set,
// re-run cycle counts, sparse touched bits) on the paper L1, over its 128
// sets for Prime+Probe / Evict+Time and the 128 monitored table lines for
// Flush.  The log is filled once, outside the timed loop; the scorer's
// per-position sums of the log are inside it, as in every matrix reduce.
constexpr std::size_t kScoreTrials = 1200;

void BM_ScorePrimeProbe(benchmark::State& state) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  rng::XorShift64Star r(1);
  attack::ProbeLog profile(l1.sets());
  std::vector<std::uint32_t> misses(l1.sets());
  for (std::size_t t = 0; t < kScoreTrials; ++t) {
    for (std::uint32_t& m : misses) {
      m = static_cast<std::uint32_t>(r.next_below(4));
    }
    profile.add(crypto::random_block(r), misses);
  }
  const crypto::Key key = crypto::random_block(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::score_prime_probe(
        profile, l1, crypto::SimAesLayout{}.tables, key));
  }
}
BENCHMARK(BM_ScorePrimeProbe);

void BM_ScoreEvictTime(benchmark::State& state) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  rng::XorShift64Star r(2);
  attack::EvictTimeLog profile(l1.sets());
  for (std::size_t t = 0; t < kScoreTrials; ++t) {
    profile.add(crypto::random_block(r),
                static_cast<std::uint32_t>(t % l1.sets()),
                900 + r.next_below(300));
  }
  const crypto::Key key = crypto::random_block(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::score_evict_time(
        profile, l1, crypto::SimAesLayout{}.tables, key));
  }
}
BENCHMARK(BM_ScoreEvictTime);

void BM_ScoreFlush(benchmark::State& state) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const std::uint32_t lines =
      4 * (crypto::SimAesLayout::kTableBytes / l1.line_bytes());
  rng::XorShift64Star r(3);
  attack::ProbeLog profile(lines);
  std::vector<std::uint32_t> touched(lines);
  for (std::size_t t = 0; t < kScoreTrials; ++t) {
    for (std::uint32_t& b : touched) b = r.next_bool(0.3) ? 1 : 0;
    profile.add(crypto::random_block(r), touched);
  }
  const crypto::Key key = crypto::random_block(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::score_flush(profile, l1, key));
  }
}
BENCHMARK(BM_ScoreFlush);

// One Prime+Probe shard's payload (a 400-trial log of the paper L1's 128
// sets) encoded and decoded, as a checkpoint record or dispatch frame is.
void BM_ProbeLogCodec(benchmark::State& state) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  rng::XorShift64Star r(5);
  attack::ProbeLog log(l1.sets());
  std::vector<std::uint32_t> misses(l1.sets());
  for (int t = 0; t < 400; ++t) {
    for (std::uint32_t& m : misses) {
      m = static_cast<std::uint32_t>(r.next_below(4));
    }
    log.add(crypto::random_block(r), misses);
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    runner::ByteWriter w;
    runner::ProfileCodec::put(w, log);
    const std::vector<std::uint8_t> payload = std::move(w).take();
    runner::ByteReader reader(payload);
    benchmark::DoNotOptimize(runner::ProfileCodec::get_probe_log(reader));
    bytes += payload.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ProbeLogCodec);

void BM_BenesPermutation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t driver = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache::benes_permutation(n, driver++));
  }
}
BENCHMARK(BM_BenesPermutation)->Arg(7)->Arg(11)->Arg(16);

void BM_Rng(benchmark::State& state, rng::Kind kind) {
  auto g = rng::make_rng(kind, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g->next_u64());
  }
}
BENCHMARK_CAPTURE(BM_Rng, xorshift, rng::Kind::kXorShift64Star);
BENCHMARK_CAPTURE(BM_Rng, pcg32, rng::Kind::kPcg32);
BENCHMARK_CAPTURE(BM_Rng, lfsr16, rng::Kind::kLfsr16);

}  // namespace

BENCHMARK_MAIN();
