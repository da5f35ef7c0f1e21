#include "runner/sharded.h"

#include <algorithm>
#include <utility>

#include "rng/rng.h"
#include "runner/codecs.h"

namespace tsc::runner {
namespace {

/// Domain-separation tag for the shard plaintext-stream tree (distinct
/// from every tag the core campaign derives: 0x6E1 keys, 0x1A707 layouts,
/// 0xB10C plaintext streams).
constexpr std::uint64_t kShardDomain = 0x5'AA4D'0000;

MergedSide merge_sides(std::vector<core::SideResult> shards,
                       const crypto::Key& key) {
  MergedSide merged;
  merged.key = key;
  for (const core::SideResult& shard : shards) {
    merged.profile.merge(shard.profile);
    for (const double t : shard.timings) merged.time_stats.add(t);
  }
  return merged;
}

}  // namespace

std::uint64_t shard_plaintext_stream(std::uint64_t base_stream,
                                     std::size_t index) {
  if (index == 0) return base_stream;
  return rng::derive_seed(rng::derive_seed(base_stream, kShardDomain),
                          static_cast<std::uint64_t>(index));
}

std::vector<core::CampaignConfig> plan_shards(const core::CampaignConfig& base,
                                              std::size_t shard_size) {
  const std::size_t size = std::max<std::size_t>(1, shard_size);
  const std::size_t count = std::max<std::size_t>(1, (base.samples + size - 1) / size);
  std::vector<core::CampaignConfig> shards;
  shards.reserve(count);
  std::size_t remaining = base.samples;
  std::size_t window_start = 0;
  for (std::size_t i = 0; i < count; ++i) {
    core::CampaignConfig shard = base;
    shard.samples = std::min(size, remaining);
    // The deployment is shared by every shard: master_seed (hence machine
    // layouts, per-process cache seeds, the victim key) and the victim
    // binary's noise pattern stay put.  MBPTACache's stable shared layout
    // and RPCache's fixed per-process tables - the very leaks fig5
    // measures - therefore accumulate across shards exactly as in one
    // continuous campaign.  What distinguishes shards:
    //   * an independent plaintext stream (fresh measurement inputs;
    //     shard 0 keeps the base stream so a single-shard run reproduces
    //     core::run_bernstein_campaign bit-for-bit), and
    //   * the job window, so TSCache's job-indexed reseed schedule
    //     replays as in the unsharded run.
    shard.plaintext_stream = shard_plaintext_stream(base.plaintext_stream, i);
    shard.job_offset = base.job_offset + window_start;
    shards.push_back(shard);
    window_start += shard.samples;
    remaining -= shard.samples;
  }
  return shards;
}

MergedSide run_sharded_victim(const core::Platform& platform,
                              const ShardedConfig& config,
                              std::uint64_t party_tag,
                              const crypto::Key& key) {
  const std::vector<core::CampaignConfig> shards =
      plan_shards(config.base, config.shard_size);
  ThreadPool pool(config.workers);
  std::vector<core::SideResult> results = parallel_map(
      pool, shards.size(), [&](std::size_t i) {
        return core::run_victim_side(platform, shards[i], party_tag, key);
      });
  return merge_sides(std::move(results), key);
}

std::vector<double> run_sharded_times(
    std::size_t runs, std::size_t shard_size, unsigned workers,
    const std::function<double(std::size_t)>& measure) {
  // Unlike campaign shards, slices here carry no semantics: measure() is a
  // pure function of the run index, so the merged vector is identical for
  // EVERY decomposition.  Slicing is therefore a pure throughput choice -
  // honour shard_size as an upper bound, but cut at least ~4 slices per
  // worker so a few hundred MBPTA runs still fan out across the pool
  // instead of landing in one 25k-sized campaign-default shard.
  const unsigned pool_width = workers ? workers : ThreadPool::default_threads();
  const std::size_t per_slice = std::max<std::size_t>(
      1, runs / (4 * static_cast<std::size_t>(pool_width)));
  const std::size_t size =
      std::max<std::size_t>(1, std::min(shard_size, per_slice));
  const std::size_t count = std::max<std::size_t>(1, (runs + size - 1) / size);
  ThreadPool pool(workers);
  std::vector<std::vector<double>> parts =
      parallel_map(pool, count, [&](std::size_t shard) {
        const std::size_t begin = shard * size;
        const std::size_t end = std::min(runs, begin + size);
        std::vector<double> out;
        out.reserve(end - begin);
        for (std::size_t r = begin; r < end; ++r) out.push_back(measure(r));
        return out;
      });
  std::vector<double> merged;
  merged.reserve(runs);
  for (const std::vector<double>& part : parts) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  return merged;
}

std::function<ShardedCampaignResult()> declare_sharded_bernstein(
    Campaign& campaign, const core::Platform& platform,
    const ShardedConfig& config, const std::string& stage) {
  const std::vector<core::CampaignConfig> shards =
      plan_shards(config.base, config.shard_size);
  const crypto::Key victim_key =
      core::campaign_victim_key(config.base.master_seed);
  const crypto::Key attacker_key{};  // all-zero: Bernstein's known key

  // The task owns its plan: a dispatch worker runs it after this returns.
  const auto run_task = [platform, shards, victim_key,
                         attacker_key](std::size_t task) {
    const std::size_t shard = task / 2;
    const bool is_victim = task % 2 == 0;
    return core::run_victim_side(platform, shards[shard],
                                 /*party_tag=*/is_victim ? 1 : 2,
                                 is_victim ? victim_key : attacker_key);
  };
  static const TaskCodec<core::SideResult> codec{
      [](const core::SideResult& s, ByteWriter& w) { put_side_result(w, s); },
      [](ByteReader& r) { return get_side_result(r); }};
  StageResults<core::SideResult> sides =
      campaign.stage(stage, shards.size() * 2, run_task, codec);

  return [shard_count = shards.size(), victim_key, attacker_key,
          sides = std::move(sides)]() mutable {
    std::vector<core::SideResult> victims;
    std::vector<core::SideResult> attackers;
    victims.reserve(shard_count);
    attackers.reserve(shard_count);
    for (std::size_t i = 0; i < sides.size(); ++i) {
      if (!sides[i]) continue;
      (i % 2 == 0 ? victims : attackers).push_back(std::move(*sides[i]));
    }
    ShardedCampaignResult result;
    result.shard_count = shard_count;
    result.victim = merge_sides(std::move(victims), victim_key);
    result.attacker = merge_sides(std::move(attackers), attacker_key);
    result.attack = attack::bernstein_attack(
        result.victim.profile, result.attacker.profile, attacker_key,
        victim_key);
    return result;
  };
}

ShardedCampaignResult run_sharded_bernstein(const core::Platform& platform,
                                            const ShardedConfig& config) {
  Campaign campaign(config.workers);
  return declare_sharded_bernstein(campaign, platform, config, "bernstein")();
}

}  // namespace tsc::runner
