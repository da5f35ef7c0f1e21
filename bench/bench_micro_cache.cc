// Micro-benchmarks (google-benchmark): throughput of the primitives the
// simulator's inner loops live on - placement functions, cache accesses,
// Benes permutation construction, PRNG steps - and of the key-rank scorers
// every attack cell ends in.
//
// These are engineering benchmarks for the library itself (the paper's
// hardware latencies are modeled, not measured); they guard against
// regressions that would make the 1e5..1e7-sample experiments impractical.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "attack/evicttime.h"
#include "attack/flushreload.h"
#include "attack/metrics.h"
#include "attack/primeprobe.h"
#include "cache/benes.h"
#include "cache/builder.h"
#include "cache/placement.h"
#include "core/policy.h"
#include "crypto/sim_aes.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "rng/rng.h"
#include "sim/machine.h"

namespace {

using namespace tsc;

void BM_Placement(benchmark::State& state, cache::PlacementKind kind) {
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
BENCHMARK_CAPTURE(BM_Placement, modulo, cache::PlacementKind::kModulo);
BENCHMARK_CAPTURE(BM_Placement, xor_index, cache::PlacementKind::kXorIndex);
BENCHMARK_CAPTURE(BM_Placement, hashrp, cache::PlacementKind::kHashRp);
BENCHMARK_CAPTURE(BM_Placement, random_modulo,
                  cache::PlacementKind::kRandomModulo);

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

// Batched replay through the full machine (paper platform, TSCache design):
// the amortized entry point the campaign inner loops drive.
void BM_MachineRunBatch(benchmark::State& state) {
  auto config = sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                    cache::MapperKind::kHashRp,
                                    cache::ReplacementKind::kRandom);
  sim::Machine machine(config, std::make_shared<rng::XorShift64Star>(7));
  machine.hierarchy().set_seed(ProcId{1}, Seed{2018});
  machine.set_process(ProcId{1});
  std::vector<sim::AccessRecord> batch;
  rng::SplitMix64 r(5);
  for (int i = 0; i < 1024; ++i) {
    batch.push_back(sim::AccessRecord::make_load(
        0x1000 + (r.next_u64() & 0xFF0), 0x80000 + (r.next_u64() & 0xFFF0)));
  }
  for (auto _ : state) {
    machine.run(batch);
    benchmark::DoNotOptimize(machine.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
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

// Key-rank scoring of one attack cell shaped like a golden one: 1200
// trials of synthetic observations (a few probe misses per set, re-run
// cycle counts, sparse touched bits) on the paper L1, over its 128 sets for
// Prime+Probe / Evict+Time and the 128 monitored table lines for Flush.
// The profile is filled once, outside the timed loop.
constexpr std::size_t kScoreTrials = 1200;

void BM_ScorePrimeProbe(benchmark::State& state) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  rng::XorShift64Star r(1);
  attack::PrimeProbeProfile profile(l1.sets());
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
  attack::EvictTimeProfile profile(l1.sets());
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
  attack::FlushProfile profile(lines);
  std::vector<std::uint8_t> touched(lines);
  for (std::size_t t = 0; t < kScoreTrials; ++t) {
    for (std::uint8_t& b : touched) b = r.next_bool(0.3) ? 1 : 0;
    profile.add(crypto::random_block(r), touched);
  }
  const crypto::Key key = crypto::random_block(r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::score_flush(profile, l1, key));
  }
}
BENCHMARK(BM_ScoreFlush);

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
