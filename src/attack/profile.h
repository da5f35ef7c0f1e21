// Per-(plaintext byte position, byte value) profiles of what an attacker
// observes around the victim's AES encryptions.
//
// Timing profiles for the Bernstein attack (paper section 6.1.1):
// "basically extracting for each 16-byte input value the average computation
// time per byte and value".
//
// A TimingProfile accumulates (plaintext, duration) pairs and yields, for
// every byte position i and byte value v, the mean duration of encryptions
// whose i-th plaintext byte was v, expressed as a deviation from the global
// mean (Figure 4 plots exactly these deviations for byte 4).
//
// A ProbeLog records (plaintext, per-slot count vector) pairs: the
// observable of every attack that infers the presence, or lack thereof, of
// the victim's cache lines after each encryption.  Prime+Probe counts probe
// misses per modulo set; Flush+Reload and Flush+Flush mark each monitored
// table line touched (1) or not (0).  The scorers (attack/metrics.h) read
// a cell's merged log directly, summing per (position, value) only the
// slots their line classes predict.  The slot map is the scorer's concern,
// not the log's.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "crypto/aes.h"
#include "stats/mi.h"

namespace tsc::runner {
struct ProfileCodec;  // exact checkpoint serialization (runner/codecs.cc)
}

namespace tsc::attack {

/// Per-(position, value) aggregated timing statistics.
class TimingProfile {
 public:
  static constexpr int kPositions = 16;
  static constexpr int kValues = 256;

  /// Record one encryption: the plaintext used and the cycles it took.
  void add(const crypto::Block& plaintext, double duration);

  /// Fold another profile into this one (cell-wise sum of sums and counts).
  /// Durations are integer cycle counts, so the per-cell double sums stay
  /// exact far beyond any realistic campaign size (2^53 cycles total) and
  /// the merge is associative and commutative bit-for-bit: the sharded
  /// campaign runner relies on this to produce identical results for any
  /// worker count.
  void merge(const TimingProfile& other);

  /// Mean duration over samples with plaintext[pos] == value, minus the
  /// global mean duration.  Returns 0 for cells that received no samples.
  [[nodiscard]] double deviation(int pos, int value) const;

  /// Raw per-cell mean (not centered).  Returns the global mean for empty
  /// cells so downstream math stays finite.
  [[nodiscard]] double cell_mean(int pos, int value) const;

  /// Number of samples recorded for a cell.
  [[nodiscard]] std::uint64_t cell_count(int pos, int value) const;

  /// Global mean duration across all samples.
  [[nodiscard]] double global_mean() const;

  [[nodiscard]] std::uint64_t samples() const { return total_count_; }

  /// The 256-entry deviation row for one byte position (Figure 4's series).
  [[nodiscard]] std::vector<double> deviation_row(int pos) const;

 private:
  friend struct tsc::runner::ProfileCodec;

  std::array<std::array<double, kValues>, kPositions> sums_{};
  std::array<std::array<std::uint64_t, kValues>, kPositions> counts_{};
  double total_sum_ = 0;
  std::uint64_t total_count_ = 0;
};

/// One shard's probe trials as observed: per trial, the plaintext and one
/// observation per slot (a modulo set's probe misses, a monitored line's
/// touched mark), each stored as one byte.  A shard's log is its checkpoint
/// payload and dispatch frame, so those scale with the trials run rather
/// than with a 16 x 256 x slots table.  merge() appends in shard order;
/// the scorers read the merged log.
class ProbeLog {
 public:
  /// The largest observation a log can hold: add() throws above it.
  static constexpr std::uint32_t kMaxObservation = 255;

  explicit ProbeLog(std::uint32_t slots) : slots_(slots) {}

  void reserve(std::size_t trials) {
    plaintexts_.reserve(trials);
    observations_.reserve(trials * slots_);
  }

  /// Record one trial: the plaintext encrypted and the per-slot counts
  /// observed after it (at least slots() entries, each at most
  /// kMaxObservation, or std::out_of_range).  Defined here so each attack's
  /// trial loop inlines it.
  void add(const crypto::Block& plaintext,
           std::span<const std::uint32_t> counts) {
    assert(counts.size() >= slots_);
    const std::span<const std::uint32_t> trial = counts.first(slots_);
    if (std::ranges::any_of(
            trial, [](std::uint32_t c) { return c > kMaxObservation; })) {
      throw std::out_of_range("probe observation does not fit a byte");
    }
    plaintexts_.push_back(plaintext);
    observations_.insert(observations_.end(), trial.begin(), trial.end());
  }

  /// Append another log's trials after this one's.  Precondition: same
  /// slot count.
  void merge(const ProbeLog& other);

  [[nodiscard]] const crypto::Block& plaintext(std::size_t trial) const {
    return plaintexts_[trial];
  }
  [[nodiscard]] std::span<const std::uint8_t> observations(
      std::size_t trial) const {
    return {observations_.data() + trial * slots_, slots_};
  }
  [[nodiscard]] std::uint64_t samples() const { return plaintexts_.size(); }
  [[nodiscard]] std::uint32_t slots() const { return slots_; }

  bool operator==(const ProbeLog&) const = default;

 private:
  friend struct tsc::runner::ProfileCodec;

  std::uint32_t slots_;
  std::vector<crypto::Block> plaintexts_;
  std::vector<std::uint8_t> observations_;  ///< [trial][slot]
};

/// One shard's worth of probe-channel measurements: the trial log, and the
/// leakage diagnostic - a joint histogram of the victim's true round-1
/// table-2 line for byte 2 (the secret class) against the attack's
/// per-trial witness line, or `line_classes` when the trial showed none
/// (each run_aes_* function defines its witness).  Its mutual information
/// quantifies the per-trial channel independently of the key ranking.
struct ProbeOutcome {
  /// The trials: the scorers take `outcome.profile` directly.
  ProbeLog profile;
  stats::JointHistogram channel;

  ProbeOutcome(std::uint32_t slots, std::size_t line_classes);
  void merge(const ProbeOutcome& other);
};

}  // namespace tsc::attack
