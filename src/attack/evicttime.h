// Whole-cache-sweep Evict+Time against the simulated AES victim.
//
// The second classic contention attack (Osvik/Shamir/Tromer; survey
// arXiv:2312.11094): the attacker cannot observe the victim's memory, it
// can only perturb cache state and TIME the victim.  One trial is the
// textbook three-step round:
//
//   1. warm  - trigger one encryption of plaintext p (the victim's working
//              set for p is now resident);
//   2. evict - load an eviction group: `ways` own lines sharing one modulo
//              index (on a modulo cache this deterministically evicts
//              exactly that set);
//   3. time  - trigger the same encryption again and record its duration.
//
// The re-run is slow exactly when the evicted set held a line the victim
// needs - and which set that is depends on the key.  Lacking any layout
// knowledge, the attacker sweeps its eviction target over the WHOLE CACHE,
// one modulo index per trial, round-robin across the campaign; the sharded
// runner threads the global trial index through so the sweep is identical
// for any worker count.
//
// The attacker again reasons in the architectural (modulo) frame: guess g
// for key byte p predicts that trials evicting the modulo set of table
// (p mod 4)'s line (v ^ g)/entries_per_line run slow when plaintext byte p
// is v.  Under modulo placement the prediction is exact; hashRP/RM per-
// process seeds make the victim's real sets unrelated to the frame, and
// RPCache additionally answers the attacker's eviction fills with the
// secure-contention rule (random disturbance, no allocation).  The matrix
// quantifies each policy's residual channel with the same ranking metric
// as Prime+Probe.
//
// A shard records its trials in an EvictTimeLog; the scorer sums the
// merged log into integer cycle/count cells for the sets its line classes
// predict, so the score is exact and worker-count invariant.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "crypto/aes.h"
#include "crypto/sim_aes.h"
#include "rng/rng.h"
#include "sim/machine.h"
#include "stats/mi.h"

namespace tsc::runner {
struct ProfileCodec;  // exact checkpoint serialization (runner/codecs.cc)
}

namespace tsc::attack {

/// Attacker-controlled memory image for the eviction groups.
struct EvictTimeConfig {
  Addr evict_base = 0x0060'0000;  ///< way-size aligned eviction array
  Addr evict_code = 0x0068'0000;  ///< eviction-loop instruction address
};

/// The modulo-group eviction primitive over one machine's L1 data cache.
class EvictTime {
 public:
  EvictTime(sim::Machine& machine, ProcId attacker, EvictTimeConfig config);

  /// Load the attacker's `ways` lines whose modulo index is `target`: on a
  /// modulo cache this fills (= clears) exactly that set; on a randomized
  /// cache the group scatters wherever the attacker's own layout puts it.
  void evict_group(std::uint32_t target);

  [[nodiscard]] std::uint32_t sets() const { return sets_; }

 private:
  sim::Machine& machine_;
  ProcId attacker_;
  EvictTimeConfig config_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t line_bytes_;
};

/// One shard's Evict+Time trials as observed: per trial, the plaintext,
/// the swept modulo index and the re-run time.  A shard's log is its
/// checkpoint payload and dispatch frame (about 20 bytes a trial, against
/// a 16 x 256 x sets table); merge() appends in shard order, and
/// score_evict_time reads the merged log.
class EvictTimeLog {
 public:
  struct Trial {
    crypto::Block plaintext;
    std::uint32_t evicted_set;
    Cycles duration;

    bool operator==(const Trial&) const = default;
  };

  explicit EvictTimeLog(std::uint32_t sets) : sets_(sets) {}

  void reserve(std::size_t trials) { trials_.reserve(trials); }

  /// Record one trial: plaintext, the swept modulo index, the re-run time.
  void add(const crypto::Block& plaintext, std::uint32_t evicted_set,
           Cycles duration) {
    assert(evicted_set < sets_);
    trials_.push_back({plaintext, evicted_set, duration});
  }

  /// Append another log's trials after this one's.  Precondition: same set
  /// count.
  void merge(const EvictTimeLog& other);

  [[nodiscard]] const std::vector<Trial>& trials() const { return trials_; }
  [[nodiscard]] std::uint64_t samples() const { return trials_.size(); }
  [[nodiscard]] std::uint32_t sets() const { return sets_; }

  bool operator==(const EvictTimeLog&) const = default;

 private:
  friend struct tsc::runner::ProfileCodec;

  std::uint32_t sets_;
  std::vector<Trial> trials_;
};

/// One shard's worth of Evict+Time measurements.
struct EvictTimeOutcome {
  /// The trials: the scorer takes `outcome.profile` directly.
  EvictTimeLog profile;
  /// Leakage diagnostic: for trials whose evicted index fell inside table
  /// 2's predicted window, the joint histogram of the DISTANCE from the
  /// evicted window position to the victim's true round-1 table-2 line for
  /// byte 2 (a secret-derived class, uniform over the table's lines)
  /// against whether the re-run was slow (ran past the all-hit baseline
  /// measured at session start).  Under modulo placement distance 0 is
  /// slow with probability 1 while other distances pay only the base rate;
  /// randomized placement severs that dependence.  The 2-bin observable
  /// keeps the plug-in MI estimate well-sampled at campaign sizes.
  stats::JointHistogram channel;

  EvictTimeOutcome(std::uint32_t sets, std::size_t line_classes);
  void merge(const EvictTimeOutcome& other);
};

/// Run `samples` warm -> evict -> time trials.  Trial t evicts modulo index
/// (trial_offset + t) mod sets; the sharded runner passes each shard's
/// global window start so the sweep replays exactly as one continuous
/// campaign.  aes.key() feeds only the channel diagnostic.
[[nodiscard]] EvictTimeOutcome run_aes_evict_time(
    sim::Machine& machine, ProcId victim, ProcId attacker,
    crypto::SimAes& aes, std::size_t samples, std::uint64_t trial_offset,
    rng::Rng& pt_rng, const EvictTimeConfig& config);

}  // namespace tsc::attack
