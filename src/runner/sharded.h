// The sharded campaign engine - the scaling backbone of this repository.
//
// A Bernstein campaign (paper section 6.1.1) is tens of thousands to
// millions of independent encryption timings per side.  The engine splits
// that budget into deterministic SHARDS: each shard is an independent
// measurement session with its own Machine pair, its own derived seed
// stream, and a fixed slice of the sample budget.  Shards run concurrently
// on a ThreadPool and their TimingProfile / Descriptive accumulators are
// merged in shard-index order.
//
// Determinism contract:
//   * The shard decomposition is a pure function of (CampaignConfig,
//     shard_size) - NEVER of the worker count.  Shard i computes identical
//     samples no matter which thread runs it or when.
//   * Cycle counts are integer-valued doubles, so the merged accumulator
//     sums are exact and the in-order merge yields bit-identical statistics
//     for ANY worker count (1, 2, 8, ...).  CI asserts this by comparing
//     serialized JSON byte-for-byte.
//
// Fidelity contract - shards partition ONE campaign, they do not reseed
// the world: every shard shares the deployment, i.e. the campaign
// master_seed and everything derived from it (machine layout seeds,
// RPCache's fixed per-process tables, MBPTACache's shared layout, the
// victim key, the victim binary's noise pattern).  This is what keeps the
// stable-layout leaks the paper measures (fig5: deterministic ~2^80,
// RPCache 2^108, MBPTACache 2^104) intact under sharding.  Shards differ
// only in
//   * their plaintext stream (fresh independent measurement inputs; shard
//     0 keeps the base stream, so a single-shard run reproduces
//     core::run_bernstein_campaign bit-for-bit), and
//   * their job window (job_offset), so TSCache's job-indexed reseed
//     schedule advances across shards as in the continuous run.
// Per-shard machines start cold and re-warm (config.warmup), the one
// deliberate deviation from a single long session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "attack/bernstein.h"
#include "attack/profile.h"
#include "core/campaign.h"
#include "core/policy.h"
#include "runner/campaign.h"
#include "runner/thread_pool.h"
#include "stats/descriptive.h"

namespace tsc::runner {

/// Engine parameters layered on top of a CampaignConfig.
struct ShardedConfig {
  core::CampaignConfig base;
  /// Samples per shard - the deterministic decomposition unit.  Results
  /// depend on this value (it defines the session boundaries) but never on
  /// `workers`.
  std::size_t shard_size = 25'000;
  /// Worker threads; 0 = hardware concurrency.  Pure throughput knob.
  unsigned workers = 0;
};

/// The plaintext stream shard `index` measures under: the base stream for
/// shard 0, a splittable derivation of it otherwise.
[[nodiscard]] std::uint64_t shard_plaintext_stream(std::uint64_t base_stream,
                                                   std::size_t index);

/// The fixed decomposition of a campaign: one CampaignConfig per shard with
/// the sliced sample budget, the shard's plaintext stream and job window,
/// and the campaign's unchanged master seed.
[[nodiscard]] std::vector<core::CampaignConfig> plan_shards(
    const core::CampaignConfig& base, std::size_t shard_size);

/// One party's merged measurements across all shards.
struct MergedSide {
  attack::TimingProfile profile;
  stats::Descriptive time_stats;
  crypto::Key key{};
};

/// A full sharded Bernstein campaign result.
struct ShardedCampaignResult {
  std::size_t shard_count = 0;
  MergedSide victim;
  MergedSide attacker;
  attack::AttackResult attack;
};

/// Declare the sharded campaign on `campaign` as stage `stage`: one task
/// per (shard, party), since a shard's two sides are themselves independent
/// sessions.  Returns the reduce, for the campaign's finish(): the in-order
/// merge per party, then one correlation on the merged profiles.  Shards
/// that exhausted their retries under --allow-partial contribute nothing.
[[nodiscard]] std::function<ShardedCampaignResult()> declare_sharded_bernstein(
    Campaign& campaign, const core::Platform& platform,
    const ShardedConfig& config, const std::string& stage);

/// The same campaign on a plain campaign of `config.workers` threads,
/// reduced at once.
[[nodiscard]] ShardedCampaignResult run_sharded_bernstein(
    const core::Platform& platform, const ShardedConfig& config);

/// Sharded single-side run (victim only): merged profile + timing stats for
/// analyses that do not need the attacker (Fig. 4, MBPTA overhead sweeps).
/// `party_tag` and `key` are forwarded to core::run_victim_side per shard.
[[nodiscard]] MergedSide run_sharded_victim(const core::Platform& platform,
                                            const ShardedConfig& config,
                                            std::uint64_t party_tag,
                                            const crypto::Key& key);

/// Sharded per-run execution-time collection for MBPTA-style protocols
/// (fig1 and sec622 sample through this): run indices [0, runs) are cut
/// into slices of at most `shard_size` runs (smaller slices are chosen
/// automatically when needed to keep all `workers` busy), the slices
/// execute concurrently, and the merged sample is the run-index-ordered
/// concatenation.  `measure` must be a pure function of the run index
/// (each run builds its own fresh-seeded machine), so the merged vector is
/// bit-identical for any shard size and worker count.
[[nodiscard]] std::vector<double> run_sharded_times(
    std::size_t runs, std::size_t shard_size, unsigned workers,
    const std::function<double(std::size_t)>& measure);

}  // namespace tsc::runner
