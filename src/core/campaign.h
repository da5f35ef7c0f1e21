// The Bernstein attack campaign (paper section 6.1.1):
//
// "We emulate two independent processors that execute cryptographic
// operations independently, the victim and the attacker.  Both processors
// execute 128-bit AES encryption functions.  For the attacker the key is
// known, for the victim, a randomized 128 bits key is generated.  We collect
// then timing measurements from the processes of encryption, and then we
// perform a statistical correlation on the timing profiles of attacker and
// victim to find the secret victim's key."
//
// Each side runs on its own Machine built for the same Platform.  Between
// encryptions the victim process touches a "noise" buffer (the stand-in for
// the packet-processing work Bernstein's server did per request) and a
// lightweight OS tick runs under the OS process identity; both provide the
// self-eviction pressure that makes AES timing input-dependent on
// deterministic caches.  The sample count is configurable; the paper used
// 1e7 per side on its testbed, our noise-free simulator reaches stable
// correlations orders of magnitude earlier.
#pragma once

#include <cstddef>
#include <vector>

#include "attack/bernstein.h"
#include "attack/profile.h"
#include "core/policy.h"
#include "crypto/sim_aes.h"

namespace tsc::core {

/// Campaign parameters.
struct CampaignConfig {
  std::size_t samples = 50'000;      ///< encryptions per side
  std::size_t warmup = 256;          ///< unrecorded warm-up encryptions
  std::uint64_t master_seed = 2018;  ///< drives keys, plaintexts, layouts
  /// Distinguishes plaintext streams while keeping machine/layout seeds
  /// fixed - lets analyses (e.g. Fig. 4's split-half replication check)
  /// re-measure the same platform under fresh independent inputs.
  std::uint64_t plaintext_stream = 0;
  /// Number of the first job (encryption) of this run.  plan_shards sets
  /// it to the shard's window start so TSCache's job-indexed reseed
  /// schedule replays exactly as in one continuous campaign; layouts and
  /// keys are unaffected (they derive from master_seed alone).
  std::uint64_t job_offset = 0;

  /// Jobs per hyperperiod: kPerProcessReseed platforms (TSCache) renew
  /// seeds and flush at this granularity (paper section 5: "whenever the
  /// whole hyperperiod elapses, the OS needs to set new random seeds and
  /// flush cache contents").
  std::uint64_t hyperperiod_jobs = kDefaultHyperperiodJobs;
};

/// One party's measurements.
struct SideResult {
  attack::TimingProfile profile;
  std::vector<double> timings;  ///< per-encryption cycles, in order
  crypto::Key key{};
};

/// Everything the figures/benches need from one campaign.
struct CampaignResult {
  SideResult victim;
  SideResult attacker;
  attack::AttackResult attack;
};

/// The victim's secret key, a pure function of the campaign master seed.
/// Exposed so sharded/partial runs (src/runner/) attack exactly the key
/// run_bernstein_campaign would generate.
[[nodiscard]] crypto::Key campaign_victim_key(std::uint64_t master_seed);

/// Run victim + attacker campaigns on `platform` and correlate them.
[[nodiscard]] CampaignResult run_bernstein_campaign(
    const Platform& platform, const CampaignConfig& config);

/// Run only one side (used by the MBPTA analyses, which need victim timing
/// series without the attack).  `party_tag` decorrelates the party's RNG
/// streams from the other side's.
[[nodiscard]] SideResult run_victim_side(const Platform& platform,
                                         const CampaignConfig& config,
                                         std::uint64_t party_tag,
                                         const crypto::Key& key);

// --- the shard plan ---------------------------------------------------------
//
// A campaign of tens of thousands to millions of encryptions per side is
// cut into SHARDS: independent sessions, each with its own machine pair and
// a fixed slice of the sample budget, merged in shard order (the runner's
// campaign stages run them concurrently).  Shards partition ONE campaign,
// they do not reseed the world: every shard shares the deployment - the
// master_seed and everything derived from it (layouts, RPCache's fixed
// per-process tables, MBPTACache's shared layout, the victim key, the
// victim binary's noise pattern) - which keeps the stable-layout leaks
// Fig. 5 measures intact.  Shards differ only in
//   * their plaintext stream (shard 0 keeps the base stream, so a
//     single-shard run reproduces run_bernstein_campaign bit for bit), and
//   * their job window (job_offset), so TSCache's job-indexed reseed
//     schedule advances across shards as in the continuous run.
// Per-shard machines start cold and re-warm (config.warmup), the one
// deliberate deviation from a single long session.  The plan is a pure
// function of (config, shard_size), never of how many threads or
// processes run it.

/// The plaintext stream shard `index` measures under: the base stream for
/// shard 0, a splittable derivation of it otherwise.
[[nodiscard]] std::uint64_t shard_plaintext_stream(std::uint64_t base_stream,
                                                   std::size_t index);

/// The fixed decomposition of a campaign: one CampaignConfig per shard
/// with the sliced sample budget (at most `shard_size`, which clamps to 1),
/// the shard's plaintext stream and job window, and the campaign's
/// unchanged master seed.
[[nodiscard]] std::vector<CampaignConfig> plan_shards(
    const CampaignConfig& base, std::size_t shard_size);

}  // namespace tsc::core
