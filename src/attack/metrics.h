// Attacker-success scoring for the eviction-based attack matrix.
//
// Both new attackers reduce to the same question the Bernstein analysis
// answers: for every key-byte position, score all 256 guesses, rank them,
// and report where the true byte landed.  kept low = the policy leaks;
// rank ~127.5 on average = the observable is key-independent noise.
//
// Both attackers score a guess by the same CONTRAST statistic over their
// trial log: how much the observable in the modulo-predicted set of the
// guess's round-1 table line exceeded that set's overall mean, exactly when
// the plaintext byte selected that line.  For Prime+Probe the observable is
// the probe-miss count of every set per trial; for Evict+Time it is the
// re-run duration of the one set evicted that trial.  The prediction uses
// only the attacker's architectural (modulo) model of the victim binary -
// precisely the model randomized placement invalidates.
//
// The scorers read a cell's merged log directly.  Only the sets (or
// monitored lines) some line class predicts enter the contrast, so each
// byte position sums just those - at most 256 values x 32 classes on the
// paper L1 - into one reused table of integer sums and trial counts, never
// the dense 16 x 256 x slots table (tests/reference_scoring.h keeps that
// one as the oracle; the sums are the same integers).
//
// Because placement functions never see the low offset bits, both attacks
// resolve key bytes at cache-line granularity only.  The entries_per_line
// guesses of one LINE CLASS (the table entries a line holds: 8 with the
// paper's 32B lines) predict the same observables for every value, so they
// always share one score - the scorers compute it once per class.  Ties
// keep value order, so even a perfectly resolved byte ranks anywhere in
// [0, entries_per_line), and a "leaky" verdict is mean rank far below
// chance (127.5), not rank 0.
#pragma once

#include <array>
#include <cstdint>

#include "attack/evicttime.h"
#include "attack/profile.h"
#include "cache/geometry.h"
#include "common/types.h"
#include "crypto/aes.h"

namespace tsc::attack {

/// Scored guesses for one key-byte position.
struct ByteRanking {
  /// Score per guess (higher = more likely the key byte): the mean excess
  /// of the observable in the guess's predicted sets (probe misses for
  /// Prime+Probe, re-run cycles for Evict+Time).
  std::array<double, 256> score{};
  /// Guesses by decreasing score (stable: ties keep value order).
  std::array<std::uint8_t, 256> ranking{};
  /// Rank of the true key byte (0 = nailed; ~127.5 expected at chance).
  int true_rank = 0;
};

/// Full 16-byte outcome of one attack cell.
struct MatrixRanking {
  std::array<ByteRanking, 16> bytes{};
  crypto::Key victim_key{};
  /// Guesses per line class (table entries per cache line of the scored
  /// geometry), set by the scorer.
  int entries_per_line = 0;

  /// Mean true rank across the 16 positions (the cell's headline number;
  /// chance level is 127.5).
  [[nodiscard]] double mean_true_rank() const;
  /// Best (lowest) true rank across positions.
  [[nodiscard]] int best_true_rank() const;
  /// Positions resolved to cache-line granularity: the true byte's line
  /// class ranked first, i.e. true_rank < entries_per_line (8 for the
  /// paper's 32B lines, the criterion the Bernstein analysis also uses).
  [[nodiscard]] int line_resolved_bytes() const;
};

/// Rank one position's scores; `truth` is the ground-truth key byte.
[[nodiscard]] ByteRanking rank_scores(const std::array<double, 256>& score,
                                      std::uint8_t truth);

/// Score a Prime+Probe log (one slot per modulo set).  For position p
/// and guess g the predicted victim set of value v is the modulo set of
/// table (p mod 4)'s line (v ^ g) / entries_per_line under `l1` and
/// `tables_base` (the attacker's architectural model of the victim binary).
/// The score is the trial-weighted mean excess of observed probe misses in
/// that predicted set over the set's overall mean.
///
/// All three scorers throw std::invalid_argument when `l1`'s line size is
/// below 4 B or above SimAesLayout::kTableBytes (no line class to index),
/// or when the log holds fewer slots (sets / monitored lines) than `l1`
/// addresses.
[[nodiscard]] MatrixRanking score_prime_probe(const ProbeLog& log,
                                              const cache::Geometry& l1,
                                              Addr tables_base,
                                              const crypto::Key& victim_key);

/// Score an Evict+Time log by the same predicted-set contrast: for
/// position p and guess g, how much slower the re-run was on trials that
/// evicted the predicted set of the plaintext byte's table line than that
/// set's average re-run.  Trials that evicted a set no line class predicts
/// weigh nowhere.
[[nodiscard]] MatrixRanking score_evict_time(const EvictTimeLog& log,
                                             const cache::Geometry& l1,
                                             Addr tables_base,
                                             const crypto::Key& victim_key);

/// Score a flush-channel log (Flush+Reload or Flush+Flush - both record
/// the same touched-line observable).  The contrast is the same
/// statistic as the eviction attacks but over monitored LINES, not modulo
/// sets: for position p and guess g the predicted observable of value v is
/// monitored line (p mod 4) * lines_per_table + (v ^ g) / entries_per_line
/// - no placement model at all, which is exactly why randomized placement
/// does not degrade this channel.  `l1` supplies only the line size.
[[nodiscard]] MatrixRanking score_flush(const ProbeLog& log,
                                        const cache::Geometry& l1,
                                        const crypto::Key& victim_key);

}  // namespace tsc::attack
