#include "core/policy.h"

#include "rng/rng.h"

namespace tsc::core {

sim::HierarchyConfig policy_hierarchy_config(PlacementPolicy policy) {
  using cache::MapperKind;
  using cache::ReplacementKind;
  switch (policy) {
    case PlacementPolicy::kModulo:
      return sim::arm920t_config(MapperKind::kModulo, MapperKind::kModulo,
                                 ReplacementKind::kLru);
    case PlacementPolicy::kHashRp:
      return sim::arm920t_config(MapperKind::kHashRp, MapperKind::kHashRp,
                                 ReplacementKind::kRandom);
    case PlacementPolicy::kRpCache:
      return sim::arm920t_config(MapperKind::kRpCache, MapperKind::kRpCache,
                                 ReplacementKind::kLru);
    case PlacementPolicy::kRandomModulo:
      // RM requires way size == page size, which only the L1s satisfy; the
      // L2 runs hashRP, as in the paper's MBPTA/TSCache platforms.
      return sim::arm920t_config(MapperKind::kRandomModulo,
                                 MapperKind::kHashRp,
                                 ReplacementKind::kRandom);
    case PlacementPolicy::kClepsydra: {
      // ClepsydraCache = address randomization + per-line random TTLs, on
      // the random-modulo L1 / hashRP L2 randomized interface.  TTL ranges
      // are in per-cache accesses (each cache's own clock).  The L1 range
      // keeps enough reuse alive that loop working sets still hit; the L2
      // range is deliberately short - L2 lines die well inside a kernel
      // run, so no line outlives the pattern that fetched it.  That is the
      // design's point (a cached secret has a bounded observable lifetime)
      // and also what makes the platform MBPTA-friendly: expiries push
      // every run toward the same refill regime, damping the layout-lottery
      // tails that way-partitioned strided kernels otherwise produce.
      sim::HierarchyConfig config = sim::arm920t_config(
          MapperKind::kRandomModulo, MapperKind::kHashRp,
          ReplacementKind::kRandom);
      for (cache::CacheSpec* level : {&config.l1i, &config.l1d}) {
        level->config.ttl_min = 512;
        level->config.ttl_max = 4096;
      }
      config.l2->config.ttl_min = 64;
      config.l2->config.ttl_max = 512;
      return config;
    }
    case PlacementPolicy::kRandomAndSafe: {
      // Random-and-Safe: placement stays deterministic; the defense is the
      // fill path.  A read miss is served around the cache and a random
      // line within +/-8 of it is brought in instead, so the attacker's
      // probe/prime working set never deterministically lands in the
      // cache.  The L1I is conventional (random-filling the fetch stream
      // would serve every fetch from memory; the data side carries the
      // attack surface the matrix measures).
      sim::HierarchyConfig config = sim::arm920t_config(
          MapperKind::kModulo, MapperKind::kModulo, ReplacementKind::kRandom);
      config.l1d.config.random_fill_window = 8;
      config.l2->config.random_fill_window = 8;
      return config;
    }
    case PlacementPolicy::kTimeCache: {
      // TimeCache-style quantization: the cache organization is the modulo
      // baseline, but every access latency is rounded up to one quantum
      // covering the worst-case path, so a hit and a two-level miss cost
      // the same and the attacker's timing observable carries no bits.
      sim::HierarchyConfig config = sim::arm920t_config(
          MapperKind::kModulo, MapperKind::kModulo, ReplacementKind::kLru);
      config.latency.quantum = config.latency.l1_hit +
                               config.latency.l2_hit + config.latency.memory;
      return config;
    }
  }
  return sim::arm920t_config(cache::MapperKind::kModulo,
                             cache::MapperKind::kModulo,
                             cache::ReplacementKind::kLru);
}

std::string to_string(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kModulo:
      return "modulo";
    case PlacementPolicy::kHashRp:
      return "hashRP";
    case PlacementPolicy::kRpCache:
      return "RPCache";
    case PlacementPolicy::kRandomModulo:
      return "random-modulo";
    case PlacementPolicy::kClepsydra:
      return "clepsydra";
    case PlacementPolicy::kRandomAndSafe:
      return "random-and-safe";
    case PlacementPolicy::kTimeCache:
      return "timecache";
  }
  return "?";
}

bool randomized(PlacementPolicy policy) {
  // kModulo: one layout, one time.  kTimeCache: layouts deterministic AND
  // every access costs the same quantum, so run times are constant - the
  // matrix expects its cells to be degenerate, never applicable.
  return policy != PlacementPolicy::kModulo &&
         policy != PlacementPolicy::kTimeCache;
}

const std::vector<PlacementPolicy>& all_policies() {
  static const std::vector<PlacementPolicy> policies{
      PlacementPolicy::kModulo,       PlacementPolicy::kHashRp,
      PlacementPolicy::kRpCache,      PlacementPolicy::kRandomModulo,
      PlacementPolicy::kClepsydra,    PlacementPolicy::kRandomAndSafe,
      PlacementPolicy::kTimeCache};
  return policies;
}

namespace {

// Seed salts.  Every value is golden-visible: changing one moves the bytes
// of every experiment that deploys its seed policy.
constexpr std::uint64_t kMachineRngSalt = 0xF00D;  // machine rng, all
constexpr std::uint64_t kSharedSalt = 0x3EED;      // kShared, of layout_seed
constexpr std::uint64_t kPerProcessSalt = 0xA7C0;  // kPerProcess, + proc
constexpr std::uint64_t kReseedSalt = 0xD15C;  // kPerProcessReseed, + proc
// The paper's RPCache row is the same (kRpCache, kPerProcess) triple as the
// matrix's unpartitioned RPCache cell, salted apart for golden identity
// only: sharing kPerProcessSalt would move the fig5/sec62x bytes.
constexpr std::uint64_t kPaperRpCacheSalt = 0x9100;  // kPerProcess, + proc

void install(sim::Machine& machine, const Deployment& deployment,
             std::initializer_list<ProcId> procs) {
  for (const ProcId proc : procs) {
    machine.hierarchy().set_seed(proc, deployment.initial_seed(proc));
  }
  if (deployment.platform.partitioned) {
    sim::Hierarchy& h = machine.hierarchy();
    for (cache::Cache* level : {&h.l1d(), &h.l2()}) {
      const std::uint32_t half = level->geometry().ways() / 2;
      level->set_way_partition(kMatrixVictim, 0, half);
      level->set_way_partition(kMatrixAttacker, half,
                               level->geometry().ways() - half);
    }
  }
}

}  // namespace

std::string to_string(SetupKind kind) {
  switch (kind) {
    case SetupKind::kDeterministic:
      return "deterministic";
    case SetupKind::kRpCache:
      return "RPCache";
    case SetupKind::kMbptaCache:
      return "MBPTACache";
    case SetupKind::kTsCache:
      return "TSCache";
  }
  return "?";
}

const std::vector<SetupKind>& all_setups() {
  static const std::vector<SetupKind> kinds{
      SetupKind::kDeterministic, SetupKind::kRpCache, SetupKind::kMbptaCache,
      SetupKind::kTsCache};
  return kinds;
}

Platform paper_platform(SetupKind kind) {
  switch (kind) {
    case SetupKind::kDeterministic:
      return {PlacementPolicy::kModulo};
    case SetupKind::kRpCache: {
      Platform platform(PlacementPolicy::kRpCache);
      platform.paper_rpcache_salt_ = true;
      return platform;
    }
    // Section 6.1.2: "For MBPTACache and TSCache, the L1 caches implement
    // RM while the shared L2 cache HashRP."
    case SetupKind::kMbptaCache:
      return {PlacementPolicy::kRandomModulo, SeedPolicy::kShared};
    case SetupKind::kTsCache:
      return {PlacementPolicy::kRandomModulo, SeedPolicy::kPerProcessReseed};
  }
  return {PlacementPolicy::kModulo};
}

Seed Deployment::initial_seed(ProcId proc) const {
  switch (platform.seeds) {
    case SeedPolicy::kShared:
      return Seed{rng::derive_seed(layout_seed, kSharedSalt)};
    case SeedPolicy::kPerProcess:
      return Seed{rng::derive_seed(
          seed, (platform.paper_rpcache_salt_ ? kPaperRpCacheSalt
                                              : kPerProcessSalt) +
                    proc.value)};
    case SeedPolicy::kPerProcessReseed:
      return Seed{rng::derive_seed(seed, kReseedSalt + proc.value)};
  }
  return Seed{0};
}

void Deployment::before_job(sim::Machine& machine, ProcId proc,
                            std::uint64_t job) const {
  if (platform.seeds != SeedPolicy::kPerProcessReseed) return;
  if (job % hyperperiod_jobs != 0) return;
  // Hyperperiod boundary: fresh random layout; flushing keeps contents
  // consistent (section 5: "either cache contents need to be flushed or the
  // seed used in the previous job of the task has to be used again").
  machine.set_seed(proc,
                   Seed{rng::derive_seed(initial_seed(proc).value, job)});
  machine.flush_caches();
}

std::unique_ptr<sim::Machine> build_machine(
    const Deployment& deployment, std::initializer_list<ProcId> procs) {
  auto machine = std::make_unique<sim::Machine>(
      policy_hierarchy_config(deployment.platform.policy),
      std::make_shared<rng::XorShift64Star>(
          rng::derive_seed(deployment.seed, kMachineRngSalt)));
  install(*machine, deployment, procs);
  return machine;
}

void deploy(sim::Machine& machine, const Deployment& deployment,
            std::initializer_list<ProcId> procs) {
  machine.reset(rng::derive_seed(deployment.seed, kMachineRngSalt));
  install(machine, deployment, procs);
}

std::unique_ptr<sim::Machine> build_policy_machine(
    PlacementPolicy policy, std::uint64_t deployment_seed, bool partitioned) {
  return build_machine(
      {{policy, SeedPolicy::kPerProcess, partitioned}, deployment_seed},
      {kMatrixVictim, kMatrixAttacker});
}

}  // namespace tsc::core
