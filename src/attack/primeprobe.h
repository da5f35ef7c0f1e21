// Set-granular Prime+Probe against the simulated AES victim.
//
// The classic eviction-based attack (Osvik/Shamir/Tromer; survey
// arXiv:2312.11094): the attacker fills the data cache with its own lines
// ("prime"), lets the victim run one encryption, then re-touches its lines
// ("probe") and times each reload.  Slow reloads mark the cache sets the
// victim's secret-dependent table lookups displaced.
//
// The attacker reasons in the ARCHITECTURAL frame: its prime buffer is a
// contiguous, way-size-aligned region, so under modulo placement probe line
// i sits in set i mod sets and a probe miss directly names the victim's set.
// That inference is exactly what the randomized placements break: under
// hashRP/RM/RPCache the victim's table lines land in seed- or
// table-dependent sets unrelated to the modulo frame, so the same protocol
// measures how much of the channel each policy leaves standing - the
// cross-policy comparison "Random and Safe Cache Architecture"
// (arXiv:2309.16172) runs for its policy matrix.
//
// The observable per trial is the per-modulo-index probe-miss vector; an
// AES campaign logs it with its plaintext in a ProbeLog (attack/profile.h),
// one slot per modulo set, and the scorer sums the log's predicted sets
// per (plaintext byte position, byte value) - the Prime+Probe analogue of
// the Bernstein TimingProfile.
#pragma once

#include <cstdint>
#include <span>

#include "attack/profile.h"
#include "common/types.h"
#include "crypto/sim_aes.h"
#include "rng/rng.h"
#include "sim/machine.h"

namespace tsc::attack {

/// Attacker-controlled memory image for the prime/probe buffers.
struct PrimeProbeConfig {
  /// Base of the prime buffer; must be way-size aligned so prime line i has
  /// modulo index i mod sets (the attacker's architectural frame).
  Addr attacker_base = 0x0060'0000;
  /// Instruction address of the probe loop (kept hot: a stale probe-loop
  /// fetch would be charged to the first probed line).
  Addr attacker_code = 0x0068'0000;
};

/// The prime/probe primitive over one machine's L1 data cache.
class PrimeProbe {
 public:
  /// Binds to `machine`'s L1D geometry.  Accesses issue under `attacker`.
  PrimeProbe(sim::Machine& machine, ProcId attacker, PrimeProbeConfig config);

  /// Fill the data cache with the attacker's lines (sets x ways loads, in
  /// line order).  One pass: the protocol is fixed across policies so the
  /// comparison measures the policy, not an adaptive attacker.
  void prime();

  /// Re-touch the primed lines in prime order, timing each reload.  Adds 1
  /// to `per_set_misses[i mod sets]` for every slow reload of line i and
  /// returns the total number of slow reloads.  `per_set_misses` must have
  /// `sets()` entries; it is NOT cleared first (campaigns accumulate).
  /// `first_miss_set` (optional) receives the modulo index of the first
  /// slow line, or sets() when everything hit.
  unsigned probe(std::span<std::uint32_t> per_set_misses,
                 std::uint32_t* first_miss_set = nullptr);

  [[nodiscard]] std::uint32_t sets() const { return sets_; }
  [[nodiscard]] std::uint32_t lines() const { return lines_; }

 private:
  sim::Machine& machine_;
  ProcId attacker_;
  PrimeProbeConfig config_;
  std::uint32_t sets_;
  std::uint32_t lines_;       ///< sets * ways
  std::uint32_t line_bytes_;
};

/// The old name of ProbeOutcome, kept only because
/// campaign_bench/campaign_trace.cc spells it.
using PrimeProbeOutcome = ProbeOutcome;

/// Run `samples` prime -> encrypt -> probe trials on `machine`: the victim
/// (`aes`'s key is the secret) encrypts one random block per trial under
/// `victim`, the attacker primes/probes around it.  Plaintexts come from
/// `pt_rng`.  The log has one slot per L1D set.  aes.key() - the
/// ground truth an evaluator has and an attacker does not - feeds only the
/// channel diagnostic, never the profile.
///
/// The channel's witness is an EXCLUSION witness: the lowest table-2 line
/// whose modulo-predicted set showed zero probe misses (table 2's sets are
/// the ones free of code/key/stack pollution under the paper layout).  A
/// cold set proves the victim did not touch that line, and the true
/// class's own set is never cold (round 1 touches it), so the witness
/// carries information exactly when the placement preserves the attacker's
/// set predictions.
[[nodiscard]] ProbeOutcome run_aes_prime_probe(
    sim::Machine& machine, ProcId victim, ProcId attacker,
    crypto::SimAes& aes, std::size_t samples, rng::Rng& pt_rng,
    const PrimeProbeConfig& config);

}  // namespace tsc::attack
