// The straightforward guess x value scorers - the differential oracle for
// the line-class kernel in src/attack/metrics.cc - and the dense tables
// they read.
//
// The production scorers read a cell's trial log and sum only the slots
// their line classes predict.  The oracle first sums the whole log into
// the dense 16 x 256 x slots table of every (position, value, slot) cell -
// ProbeProfile for Prime+Probe and flush logs, EvictTimeProfile for
// Evict+Time logs - and then runs the original triple loops, kept
// deliberately naive: for every position, EVERY one of the 256 guesses
// walks all 256 values and asks the table for the set (or line) marginal
// afresh, re-summing 256 cells per call.  No hoisting, no line-class
// sharing.  The production kernel must reproduce their score arrays bit
// for bit; tests/scoring_test.cc compares the two with memcmp.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "attack/evicttime.h"
#include "attack/metrics.h"
#include "attack/profile.h"
#include "cache/geometry.h"
#include "common/types.h"
#include "crypto/aes.h"
#include "crypto/sim_aes.h"

namespace tsc::attack::reference {

/// Per-(position, value) aggregated per-slot counts of a probe log: the
/// mean count of every slot (a modulo set, a monitored line), conditioned
/// on plaintext byte `pos` == value.  Cells are integer sums, so the table
/// of a merged log equals sequential add() of the same trials.
class ProbeProfile {
 public:
  static constexpr int kPositions = 16;
  static constexpr int kValues = 256;

  explicit ProbeProfile(std::uint32_t slots)
      : slots_(slots),
        sums_(static_cast<std::size_t>(kPositions) * kValues * slots, 0) {}

  /// The table of `log`'s trials.
  explicit ProbeProfile(const ProbeLog& log) : ProbeProfile(log.slots()) {
    std::vector<std::uint32_t> counts(slots_);
    for (std::size_t t = 0; t < log.samples(); ++t) {
      const std::span<const std::uint8_t> obs = log.observations(t);
      counts.assign(obs.begin(), obs.end());
      add(log.plaintext(t), counts);
    }
  }

  /// Record one trial: the plaintext encrypted and the per-slot counts
  /// observed after it (at least slots() entries).
  void add(const crypto::Block& plaintext,
           std::span<const std::uint32_t> counts) {
    assert(counts.size() >= slots_);
    for (int pos = 0; pos < kPositions; ++pos) {
      const int v = plaintext[static_cast<std::size_t>(pos)];
      for (std::uint32_t s = 0; s < slots_; ++s) {
        sums_[idx(pos, v, s)] += counts[s];
      }
      ++counts_[static_cast<std::size_t>(pos)][static_cast<std::size_t>(v)];
    }
    ++total_trials_;
  }

  /// Mean count in `slot` over trials with plaintext[pos] == value (0 when
  /// the cell received no trials).
  [[nodiscard]] double cell_mean(int pos, int value,
                                 std::uint32_t slot) const {
    const std::uint64_t n = cell_count(pos, value);
    if (n == 0) return 0.0;
    return static_cast<double>(sums_[idx(pos, value, slot)]) /
           static_cast<double>(n);
  }

  /// Mean count in `slot` over ALL trials, from position `pos`'s marginal.
  [[nodiscard]] double slot_mean(int pos, std::uint32_t slot) const {
    if (total_trials_ == 0) return 0.0;
    std::uint64_t sum = 0;
    for (int v = 0; v < kValues; ++v) sum += sums_[idx(pos, v, slot)];
    return static_cast<double>(sum) / static_cast<double>(total_trials_);
  }

  [[nodiscard]] std::uint64_t cell_count(int pos, int value) const {
    return counts_[static_cast<std::size_t>(pos)]
                  [static_cast<std::size_t>(value)];
  }
  [[nodiscard]] std::uint64_t samples() const { return total_trials_; }
  [[nodiscard]] std::uint32_t slots() const { return slots_; }

  bool operator==(const ProbeProfile&) const = default;

 private:
  [[nodiscard]] std::size_t idx(int pos, int value, std::uint32_t slot) const {
    return (static_cast<std::size_t>(pos) * kValues +
            static_cast<std::size_t>(value)) *
               slots_ +
           slot;
  }

  std::uint32_t slots_;
  std::vector<std::uint64_t> sums_;  ///< [pos][value][slot] count sums
  std::array<std::array<std::uint64_t, kValues>, kPositions> counts_{};
  std::uint64_t total_trials_ = 0;
};

/// Per-(position, value, evicted set) aggregated re-run durations of an
/// Evict+Time log.  Sums are integer cycle counts, so the table of a
/// merged log equals sequential add() of its trials.
class EvictTimeProfile {
 public:
  static constexpr int kPositions = 16;
  static constexpr int kValues = 256;

  explicit EvictTimeProfile(std::uint32_t sets)
      : sets_(sets),
        sums_(static_cast<std::size_t>(kPositions) * kValues * sets, 0),
        counts_(sums_.size(), 0) {}

  /// The table of `log`'s trials.
  explicit EvictTimeProfile(const EvictTimeLog& log)
      : EvictTimeProfile(log.sets()) {
    for (const EvictTimeLog::Trial& t : log.trials()) {
      add(t.plaintext, t.evicted_set, t.duration);
    }
  }

  /// Record one trial: plaintext, the swept modulo index, the re-run time.
  void add(const crypto::Block& plaintext, std::uint32_t evicted_set,
           Cycles duration) {
    assert(evicted_set < sets_);
    for (int pos = 0; pos < kPositions; ++pos) {
      const std::size_t i =
          idx(pos, plaintext[static_cast<std::size_t>(pos)], evicted_set);
      sums_[i] += duration;
      ++counts_[i];
    }
    ++total_trials_;
  }

  /// Mean re-run duration over trials with plaintext[pos] == value that
  /// evicted `set` (0 when the cell is empty).
  [[nodiscard]] double cell_mean(int pos, int value, std::uint32_t set) const {
    const std::size_t i = idx(pos, value, set);
    if (counts_[i] == 0) return 0.0;
    return static_cast<double>(sums_[i]) / static_cast<double>(counts_[i]);
  }

  /// Mean re-run duration over ALL trials that evicted `set`.
  [[nodiscard]] double set_mean(int pos, std::uint32_t set) const {
    std::uint64_t sum = 0;
    std::uint64_t n = 0;
    for (int v = 0; v < kValues; ++v) {
      const std::size_t i = idx(pos, v, set);
      sum += sums_[i];
      n += counts_[i];
    }
    if (n == 0) return 0.0;
    return static_cast<double>(sum) / static_cast<double>(n);
  }

  [[nodiscard]] std::uint64_t cell_count(int pos, int value,
                                         std::uint32_t set) const {
    return counts_[idx(pos, value, set)];
  }
  [[nodiscard]] std::uint64_t samples() const { return total_trials_; }
  [[nodiscard]] std::uint32_t sets() const { return sets_; }

  bool operator==(const EvictTimeProfile&) const = default;

 private:
  [[nodiscard]] std::size_t idx(int pos, int value, std::uint32_t set) const {
    return (static_cast<std::size_t>(pos) * kValues +
            static_cast<std::size_t>(value)) *
               sets_ +
           set;
  }

  std::uint32_t sets_;
  std::vector<std::uint64_t> sums_;    ///< [pos][value][set] cycle sums
  std::vector<std::uint64_t> counts_;  ///< [pos][value][set] trial counts
  std::uint64_t total_trials_ = 0;
};

/// The predicted-set contrast, one guess at a time: the weighted mean excess
/// of `cell_mean(pos, v, s)` over `set_mean(pos, s)` at the predicted set s
/// of value v ^ g, with trial-count weights.
template <typename CellMean, typename SetMean, typename Weight>
MatrixRanking score_contrast(const cache::Geometry& l1, Addr tables_base,
                             const crypto::Key& victim_key,
                             const CellMean& cell_mean,
                             const SetMean& set_mean, const Weight& weight) {
  MatrixRanking out;
  out.victim_key = victim_key;

  const std::uint32_t entries_per_line = l1.line_bytes() / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  const Addr tables_line = tables_base >> l1.offset_bits();
  const std::uint32_t sets_mask = l1.sets() - 1;

  for (int pos = 0; pos < 16; ++pos) {
    const std::uint32_t table = static_cast<std::uint32_t>(pos) % 4;
    const Addr table_line = tables_line + table * lines_per_table;

    std::array<std::uint32_t, 256> set_of_value{};
    for (int x = 0; x < 256; ++x) {
      set_of_value[static_cast<std::size_t>(x)] = static_cast<std::uint32_t>(
          (table_line + static_cast<std::uint32_t>(x) / entries_per_line) &
          sets_mask);
    }

    std::array<double, 256> score{};
    for (int g = 0; g < 256; ++g) {
      double excess = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < 256; ++v) {
        const std::uint32_t s = set_of_value[static_cast<std::size_t>(v ^ g)];
        const std::uint64_t n = weight(pos, v, s);
        if (n == 0) continue;
        excess += static_cast<double>(n) *
                  (cell_mean(pos, v, s) - set_mean(pos, s));
        total += n;
      }
      score[static_cast<std::size_t>(g)] =
          total == 0 ? 0.0 : excess / static_cast<double>(total);
    }
    out.bytes[static_cast<std::size_t>(pos)] =
        rank_scores(score, victim_key[static_cast<std::size_t>(pos)]);
  }
  return out;
}

inline MatrixRanking score_prime_probe(const ProbeProfile& profile,
                                       const cache::Geometry& l1,
                                       Addr tables_base,
                                       const crypto::Key& victim_key) {
  return score_contrast(
      l1, tables_base, victim_key,
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_mean(pos, v, s);
      },
      [&](int pos, std::uint32_t s) { return profile.slot_mean(pos, s); },
      [&](int pos, int v, std::uint32_t) {
        return profile.cell_count(pos, v);
      });
}

inline MatrixRanking score_evict_time(const EvictTimeProfile& profile,
                                      const cache::Geometry& l1,
                                      Addr tables_base,
                                      const crypto::Key& victim_key) {
  return score_contrast(
      l1, tables_base, victim_key,
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_mean(pos, v, s);
      },
      [&](int pos, std::uint32_t s) { return profile.set_mean(pos, s); },
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_count(pos, v, s);
      });
}

inline MatrixRanking score_flush(const ProbeProfile& profile,
                                 const cache::Geometry& l1,
                                 const crypto::Key& victim_key) {
  MatrixRanking out;
  out.victim_key = victim_key;

  const std::uint32_t entries_per_line = l1.line_bytes() / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();

  for (int pos = 0; pos < 16; ++pos) {
    const std::uint32_t table_base =
        (static_cast<std::uint32_t>(pos) % 4) * lines_per_table;

    std::array<double, 256> score{};
    for (int g = 0; g < 256; ++g) {
      double excess = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < 256; ++v) {
        const std::uint32_t m =
            table_base + static_cast<std::uint32_t>(v ^ g) / entries_per_line;
        const std::uint64_t n = profile.cell_count(pos, v);
        if (n == 0) continue;
        excess += static_cast<double>(n) *
                  (profile.cell_mean(pos, v, m) - profile.slot_mean(pos, m));
        total += n;
      }
      score[static_cast<std::size_t>(g)] =
          total == 0 ? 0.0 : excess / static_cast<double>(total);
    }
    out.bytes[static_cast<std::size_t>(pos)] =
        rank_scores(score, victim_key[static_cast<std::size_t>(pos)]);
  }
  return out;
}

}  // namespace tsc::attack::reference
