// The platform axis: a platform is (placement policy, seed policy,
// partitioned), and one builder (build_machine / deploy) deploys any of them.
//
// The paper's four processor designs (section 6.1.2) differ in exactly two
// ways - the placement policy and how seeds are managed (section 5) - so
// each is a named point on this axis (paper_platform):
//   deterministic = kModulo;  RPCache = kRpCache;
//   MBPTACache    = kRandomModulo + kShared (MBPTA sets no constraint on
//                   seeds, which is exactly the vulnerability the paper shows);
//   TSCache       = kRandomModulo + kPerProcessReseed (the paper's proposal).
// The attack and pWCET matrices sweep the placement policies with
// per-process seeds and optional way partitioning: the orthogonal cut the
// related work evaluates ("Random and Safe Cache Architecture",
// arXiv:2309.16172).  Beyond the paper's placements the axis carries three
// modern secure-cache designs:
//  * ClepsydraCache (arXiv:2104.11469) - randomized placement plus
//    per-line randomized TTLs with time-based eviction;
//  * Random-and-Safe (arXiv:2309.16172) - random-fill on miss (the
//    demanded line is served to the core but NOT cached; a random
//    neighbour is filled instead);
//  * TimeCache-style timed access quantization (arXiv:2009.14732) -
//    every access latency rounded up to a fixed quantum covering the
//    worst-case path, masking the hit/miss delta.
// docs/adding_a_policy.md walks through how a new design lands on this
// axis and what contracts it must satisfy.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/machine.h"

namespace tsc::core {

/// The placement/defense policies of the attack and pWCET matrices.
/// Order is load-bearing: matrix cell indices (and the per-cell seed
/// derivations) follow enum order, and the deterministic baseline must
/// stay first (pwcet_matrix normalizes overhead against platform 0).
/// Append new designs at the end; never reorder.
enum class PlacementPolicy {
  kModulo,
  kHashRp,
  kRpCache,
  kRandomModulo,
  kClepsydra,
  kRandomAndSafe,
  kTimeCache,
};

/// Number of policies on the axis (== all_policies().size(); kept in sync
/// by static_assert-style tests).  Sizes runner::MachinePool's slot array.
inline constexpr std::size_t kPolicyCount = 7;

[[nodiscard]] std::string to_string(PlacementPolicy policy);

/// True for the policies whose run-to-run TIMING is randomized by a
/// deployment seed - the ones the paper (and the related secure-cache
/// work) expects to both blunt contention attacks and make execution
/// times MBPTA-analyzable.  False for kModulo (one layout, one time) and
/// kTimeCache (constant-cost accesses: secure but degenerate, never
/// MBPTA-applicable - the tradeoff docs/tradeoff_matrix.md discusses).
[[nodiscard]] bool randomized(PlacementPolicy policy);

/// All policies, in presentation order (deterministic baseline first).
[[nodiscard]] const std::vector<PlacementPolicy>& all_policies();

/// How a platform manages its placement seeds (paper section 5).
enum class SeedPolicy {
  kShared,            ///< one seed for every process, kept for the run
  kPerProcess,        ///< a unique seed per process, kept for the run
  kPerProcessReseed,  ///< unique seeds, renewed with a flush each hyperperiod
};

/// The paper's four evaluated designs: the rows of fig4/fig5/sec62x.
enum class SetupKind { kDeterministic, kRpCache, kMbptaCache, kTsCache };

[[nodiscard]] std::string to_string(SetupKind kind);

/// All four kinds, in the paper's presentation order.
[[nodiscard]] const std::vector<SetupKind>& all_setups();

/// One point of the platform axis.
struct Platform {
  constexpr Platform(PlacementPolicy policy,
                     SeedPolicy seeds = SeedPolicy::kPerProcess,
                     bool partitioned = false)
      : policy(policy), seeds(seeds), partitioned(partitioned) {}

  PlacementPolicy policy;
  SeedPolicy seeds;
  /// Split the L1D and L2 ways evenly between kMatrixVictim (lower half)
  /// and kMatrixAttacker (upper half): the isolation baseline the matrices
  /// compare the randomized policies against.
  bool partitioned;

 private:
  friend Platform paper_platform(SetupKind kind);
  friend struct Deployment;
  bool paper_rpcache_salt_ = false;  ///< golden identity only (policy.cc)
};

/// The platform of one paper design.
[[nodiscard]] Platform paper_platform(SetupKind kind);

/// Processes of an attack-matrix cell (and the halves of a partition).
inline constexpr ProcId kMatrixVictim{1};
inline constexpr ProcId kMatrixAttacker{2};

/// Default TSCache reseed cadence (jobs per hyperperiod).
inline constexpr std::uint64_t kDefaultHyperperiodJobs = 4096;

/// A platform deployed from seeds: every random decision (machine rng,
/// placement seeds, reseeds) derives from these, so a deployment replays
/// bit-identically.  A plain value: building, pooled re-deployment and the
/// per-job schedule read it without allocating.
struct Deployment {
  Platform platform;
  /// Drives the machine rng and the per-process seeds.
  std::uint64_t seed = 0;
  /// kShared only: machines deployed with the same value share one layout
  /// whatever their `seed` - the "same seed" attack scenario of section 5.
  std::uint64_t layout_seed = 0;
  /// kPerProcessReseed only: jobs per hyperperiod.
  std::uint64_t hyperperiod_jobs = kDefaultHyperperiodJobs;

  /// The seed `proc` starts the run with.
  [[nodiscard]] Seed initial_seed(ProcId proc) const;

  /// Apply the seed policy for `proc` before job number `job`: under
  /// kPerProcessReseed, at every hyperperiod boundary (job %
  /// hyperperiod_jobs == 0) install a fresh seed and flush the caches, as
  /// the paper's OS does (section 5), charging the machine for both.
  /// Other seed policies: no action.
  void before_job(sim::Machine& machine, ProcId proc, std::uint64_t job) const;
};

/// The paper platform (ARM920T-like L1s + L2) configured for one policy:
///  * kModulo        - modulo L1/L2, LRU (the deterministic baseline);
///  * kHashRp        - hashRP L1/L2, random replacement;
///  * kRpCache       - RPCache L1/L2 (per-process permutation tables plus
///                     the secure contention rule), LRU;
///  * kRandomModulo  - RM L1s + hashRP L2 (RM needs way size == page size,
///                     which only the L1s satisfy), random replacement;
///  * kClepsydra     - hashRP L1/L2, random replacement, per-line random
///                     TTLs with lazy time-based eviction on every level;
///  * kRandomAndSafe - modulo L1/L2, random replacement, random-fill
///                     (window 8) on L1D and L2; the L1I stays
///                     conventional (random-filling the fetch path would
///                     starve the front end, and the data side is what the
///                     eviction attacks read);
///  * kTimeCache     - modulo L1/L2, LRU, with every access latency
///                     quantized up to the worst-case path cost.
/// Exposed so tests (the policy-axis enumeration test, the differential
/// oracle) can interrogate each design's per-level CacheSpecs without
/// restating them.
[[nodiscard]] sim::HierarchyConfig policy_hierarchy_config(
    PlacementPolicy policy);

/// Build a machine for `deployment.platform`, with the initial seeds of
/// `procs` installed (free of timing cost: this happens before the system
/// starts) and the optional way partition applied.
[[nodiscard]] std::unique_ptr<sim::Machine> build_machine(
    const Deployment& deployment, std::initializer_list<ProcId> procs);

/// Re-deploy a machine built for the same (policy, partitioned) in place:
/// reset it (empty caches, reseeded rng, time zero, no seeds) and install
/// `deployment` exactly as build_machine would - bit-exact with a fresh
/// build, whatever seed policy the machine ran under before.
void deploy(sim::Machine& machine, const Deployment& deployment,
            std::initializer_list<ProcId> procs);

/// The attack-matrix cell: build_machine of (policy, kPerProcess,
/// partitioned) for kMatrixVictim and kMatrixAttacker.
[[nodiscard]] std::unique_ptr<sim::Machine> build_policy_machine(
    PlacementPolicy policy, std::uint64_t deployment_seed, bool partitioned);

}  // namespace tsc::core
