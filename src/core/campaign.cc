#include "core/campaign.h"

#include <algorithm>
#include <memory>

#include "rng/rng.h"

namespace tsc::core {
namespace {

constexpr ProcId kCryptoProc{1};

/// Domain-separation tag for the shard plaintext-stream tree (distinct
/// from every other campaign tag: 0x6E1 keys, 0x1A707 layouts, 0xB10C
/// plaintext streams).
constexpr std::uint64_t kShardDomain = 0x5'AA4D'0000;

/// The AES victim binary's memory layout (code, tables, key schedule).
constexpr crypto::SimAesLayout kAesLayout{};

/// Victim-side self-interference: per-request working-set touches (the
/// stand-in for Bernstein's server-side packet processing).  The working
/// set covers modulo sets [kNoiseSetLo, kNoiseSetLo + kNoiseSetCount) with
/// an *irregular* per-set depth in [0, kNoiseMaxDepth], derived from
/// kNoisePatternSeed.  Irregularity is essential to the leak's shape:
/// uniform pressure makes every round-1 lookup miss (or none), leaking
/// nothing, and a contiguous half-space pattern is symmetric under most
/// XOR shifts and leaks only one bit per byte.  A hash-irregular pattern -
/// like a real server's stack/buffer footprint - gives each table line a
/// distinctive miss signature, which is what Bernstein's attack actually
/// correlates on.  The pattern is a property of the victim *binary*, so
/// victim and attacker (same binary, different key) share it, and so does
/// every shard of a campaign.
constexpr Addr kNoiseBase = 0x0004'0000;  ///< must be way-size aligned
constexpr unsigned kNoiseSetLo = 0;
constexpr unsigned kNoiseSetCount = 64;
constexpr unsigned kNoiseMaxDepth = 5;
constexpr std::uint64_t kNoisePatternSeed = 0x5EA50F'B0FFE7;

/// Background OS activity per encryption (runs as kOsProc).
constexpr Addr kOsBase = 0x0005'0000;
constexpr unsigned kOsLines = 8;

crypto::Key random_key(rng::Rng& rng) {
  crypto::Key key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
  return key;
}

}  // namespace

SideResult run_victim_side(const Platform& platform,
                           const CampaignConfig& config,
                           std::uint64_t party_tag, const crypto::Key& key) {
  // The shared layout seed is derived from the campaign master WITHOUT the
  // party tag: under kShared (MBPTACache) both parties therefore share one
  // layout, which is the attack scenario the paper demonstrates.  All other
  // random streams are party-specific.
  const std::uint64_t party_seed =
      rng::derive_seed(config.master_seed, party_tag);
  const Deployment deployment{platform, party_seed,
                              rng::derive_seed(config.master_seed, 0x1A707),
                              config.hyperperiod_jobs};
  const std::unique_ptr<sim::Machine> machine =
      build_machine(deployment, {kCryptoProc, kOsProc});
  sim::Machine& m = *machine;
  m.set_process(kCryptoProc);

  crypto::SimAes aes(m, kAesLayout, key);
  rng::XorShift64Star pt_rng(rng::derive_seed(
      party_seed, 0xB10C ^ (config.plaintext_stream * 0x9E3779B9ULL)));

  SideResult side;
  side.key = key;
  side.timings.reserve(config.samples);

  const Addr noise_pc = kNoiseBase - 0x1000;
  const Addr os_pc = kOsBase - 0x1000;
  const cache::Geometry geo = m.hierarchy().l1d().geometry();
  const std::uint32_t line = geo.line_bytes();
  const std::uint32_t sets = geo.sets();

  // The OS tick and the victim binary's fixed working-set pattern (see
  // kNoiseBase) issue the same addresses every job: record both as
  // FetchTraces once and replay them through the machine's fetch latch.
  const std::uint32_t fetch_line = m.hierarchy().l1i().geometry().line_bytes();
  sim::FetchTrace os_trace(fetch_line);
  for (unsigned i = 0; i < kOsLines; ++i) {
    os_trace.load(os_pc, kOsBase + i * line);
  }

  sim::FetchTrace noise_trace(fetch_line);
  for (unsigned s = 0; s < kNoiseSetCount; ++s) {
    const Addr index = (kNoiseSetLo + s) % sets;
    const auto depth = static_cast<unsigned>(
        rng::derive_seed(kNoisePatternSeed, index) % (kNoiseMaxDepth + 1));
    for (unsigned d = 0; d < depth; ++d) {
      noise_trace.load(
          noise_pc,
          kNoiseBase + (static_cast<Addr>(d) * sets + index) * line);
    }
  }

  // A run starting mid-hyperperiod (sharded campaigns) must execute under
  // the seed epoch installed at the preceding boundary, exactly as the
  // continuous campaign would; replay that boundary's reseed first.  The
  // loop itself triggers the boundary when job_offset is aligned.
  if (config.job_offset % config.hyperperiod_jobs != 0) {
    deployment.before_job(
        m, kCryptoProc,
        config.job_offset - config.job_offset % config.hyperperiod_jobs);
  }

  for (std::size_t j = 0; j < config.warmup + config.samples; ++j) {
    deployment.before_job(m, kCryptoProc, config.job_offset + j);

    // OS tick: background kernel activity under the OS identity.
    m.set_process(kOsProc);
    m.replay(os_trace);

    // Victim's per-request processing: an irregular working set, `depth(s)`
    // lines deep in each covered modulo set.
    m.set_process(kCryptoProc);
    m.replay(noise_trace);

    const crypto::Block pt = crypto::random_block(pt_rng);
    (void)aes.encrypt(pt);
    if (j < config.warmup) continue;
    const auto duration = static_cast<double>(aes.last_duration());
    side.profile.add(pt, duration);
    side.timings.push_back(duration);
  }
  return side;
}

crypto::Key campaign_victim_key(std::uint64_t master_seed) {
  rng::SplitMix64 key_rng(rng::derive_seed(master_seed, 0x6E1));
  return random_key(key_rng);
}

CampaignResult run_bernstein_campaign(const Platform& platform,
                                      const CampaignConfig& config) {
  CampaignResult result;

  const crypto::Key victim_key = campaign_victim_key(config.master_seed);
  const crypto::Key attacker_key{};  // all-zero: Bernstein's known key

  result.victim =
      run_victim_side(platform, config, /*party_tag=*/1, victim_key);
  result.attacker =
      run_victim_side(platform, config, /*party_tag=*/2, attacker_key);

  result.attack = attack::bernstein_attack(
      result.victim.profile, result.attacker.profile, attacker_key,
      victim_key);
  return result;
}

std::uint64_t shard_plaintext_stream(std::uint64_t base_stream,
                                     std::size_t index) {
  if (index == 0) return base_stream;
  return rng::derive_seed(rng::derive_seed(base_stream, kShardDomain),
                          static_cast<std::uint64_t>(index));
}

std::vector<CampaignConfig> plan_shards(const CampaignConfig& base,
                                        std::size_t shard_size) {
  const std::size_t size = std::max<std::size_t>(1, shard_size);
  const std::size_t count =
      std::max<std::size_t>(1, (base.samples + size - 1) / size);
  std::vector<CampaignConfig> shards;
  shards.reserve(count);
  std::size_t remaining = base.samples;
  std::size_t window_start = 0;
  for (std::size_t i = 0; i < count; ++i) {
    CampaignConfig shard = base;
    shard.samples = std::min(size, remaining);
    shard.plaintext_stream = shard_plaintext_stream(base.plaintext_stream, i);
    shard.job_offset = base.job_offset + window_start;
    shards.push_back(shard);
    window_start += shard.samples;
    remaining -= shard.samples;
  }
  return shards;
}

}  // namespace tsc::core
