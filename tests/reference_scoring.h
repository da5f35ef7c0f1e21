// The straightforward guess x value scorers - the differential oracle for
// the line-class kernel in src/attack/metrics.cc.
//
// These are the original triple loops, kept deliberately naive: for every
// position, EVERY one of the 256 guesses walks all 256 values and asks the
// profile for the set (or line) marginal afresh, re-summing 256 cells per
// call.  No hoisting, no line-class sharing.  The production kernel must
// reproduce their score arrays bit for bit; tests/scoring_test.cc compares
// the two with memcmp.
#pragma once

#include <array>
#include <cstdint>

#include "attack/evicttime.h"
#include "attack/metrics.h"
#include "attack/profile.h"
#include "cache/geometry.h"
#include "common/types.h"
#include "crypto/aes.h"
#include "crypto/sim_aes.h"

namespace tsc::attack::reference {

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
