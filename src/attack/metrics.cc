#include "attack/metrics.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "crypto/sim_aes.h"

namespace tsc::attack {

double MatrixRanking::mean_true_rank() const {
  double acc = 0;
  for (const ByteRanking& b : bytes) acc += b.true_rank;
  return acc / 16.0;
}

int MatrixRanking::best_true_rank() const {
  int best = 255;
  for (const ByteRanking& b : bytes) best = std::min(best, b.true_rank);
  return best;
}

int MatrixRanking::line_resolved_bytes() const {
  int n = 0;
  for (const ByteRanking& b : bytes) {
    if (b.true_rank < entries_per_line) ++n;
  }
  return n;
}

ByteRanking rank_scores(const std::array<double, 256>& score,
                        std::uint8_t truth) {
  ByteRanking out;
  out.score = score;
  std::iota(out.ranking.begin(), out.ranking.end(), 0);
  std::stable_sort(out.ranking.begin(), out.ranking.end(),
                   [&](std::uint8_t a, std::uint8_t b) {
                     return out.score[a] > out.score[b];
                   });
  const auto it = std::find(out.ranking.begin(), out.ranking.end(), truth);
  out.true_rank = static_cast<int>(it - out.ranking.begin());
  return out;
}

namespace {

/// Table entries (4 B each) per cache line of `l1`: the width of a line
/// class, the guesses a line-granular attacker cannot tell apart.  Throws
/// for line sizes the class loop cannot index - below one entry (a class
/// of width 0) or above one 1 KB table (no whole line per table, and a
/// class wider than the 256 guesses).
std::uint32_t class_width(const cache::Geometry& l1) {
  const std::uint32_t line_bytes = l1.line_bytes();
  if (line_bytes < 4 || line_bytes > crypto::SimAesLayout::kTableBytes) {
    throw std::invalid_argument(
        "attack scoring: line size " + std::to_string(line_bytes) +
        " B must hold at least one 4 B table entry and fit in one " +
        std::to_string(crypto::SimAesLayout::kTableBytes) + " B table");
  }
  return line_bytes / 4;
}

void require_slots(std::uint32_t have, std::uint32_t need, const char* what) {
  if (have < need) {
    throw std::invalid_argument(
        std::string("attack scoring: profile holds ") + std::to_string(have) +
        " " + what + " but the geometry indexes " + std::to_string(need));
  }
}

/// The shared contrast kernel: for every position and guess g, the
/// trial-weighted mean excess of `cell_mean(pos, v, slot)` over the slot's
/// all-trials mean, where `slot` is the observable (modulo set or monitored
/// line) that value v's round-1 lookup predicts under g.
///
/// That lookup hits table line (v ^ g) / width = (v / width) ^ (g / width),
/// so the prediction depends on the guess only through its line class
/// g / width: every guess of a class sums the same terms in the same order.
/// The kernel scores one guess per class and copies the score to the other
/// width - 1, and takes each slot's marginal once per position rather than
/// once per (guess, value) - the same doubles as scoring all 256 guesses.
///
/// `slot_of(pos, line)` names the observable of table line `line`;
/// `marginal(pos, slot)`, `cell_mean(pos, v, slot)` and `weight(pos, v,
/// slot)` are the profile's accessors.
template <typename SlotOf, typename Marginal, typename CellMean,
          typename Weight>
MatrixRanking score_line_classes(std::uint32_t width,
                                 const crypto::Key& victim_key,
                                 const SlotOf& slot_of,
                                 const Marginal& marginal,
                                 const CellMean& cell_mean,
                                 const Weight& weight) {
  MatrixRanking out;
  out.victim_key = victim_key;
  out.entries_per_line = static_cast<int>(width);
  const std::uint32_t classes = 256 / width;

  for (int pos = 0; pos < 16; ++pos) {
    std::array<std::uint32_t, 256> slot{};  // one entry per line class
    std::array<double, 256> mean{};
    for (std::uint32_t line = 0; line < classes; ++line) {
      slot[line] = slot_of(pos, line);
      mean[line] = marginal(pos, slot[line]);
    }

    std::array<double, 256> score{};
    for (std::uint32_t first = 0; first < 256; first += width) {
      const std::uint32_t c = first / width;
      double excess = 0;
      std::uint64_t total = 0;
      for (int v = 0; v < 256; ++v) {
        const std::uint32_t line =
            (static_cast<std::uint32_t>(v) / width) ^ c;
        const std::uint64_t n = weight(pos, v, slot[line]);
        if (n == 0) continue;
        excess += static_cast<double>(n) *
                  (cell_mean(pos, v, slot[line]) - mean[line]);
        total += n;
      }
      std::fill_n(score.begin() + first, width,
                  total == 0 ? 0.0 : excess / static_cast<double>(total));
    }
    out.bytes[static_cast<std::size_t>(pos)] =
        rank_scores(score, victim_key[static_cast<std::size_t>(pos)]);
  }
  return out;
}

/// Modulo set of line `line` of table (pos mod 4) in the attacker's
/// architectural model of the victim binary.
auto modulo_slot(const cache::Geometry& l1, Addr tables_base) {
  const Addr tables_line = tables_base >> l1.offset_bits();
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  const std::uint32_t sets_mask = l1.sets() - 1;
  return [=](int pos, std::uint32_t line) {
    const Addr table_line =
        tables_line + (static_cast<std::uint32_t>(pos) % 4) * lines_per_table;
    return static_cast<std::uint32_t>((table_line + line) & sets_mask);
  };
}

}  // namespace

MatrixRanking score_prime_probe(const ProbeProfile& profile,
                                const cache::Geometry& l1, Addr tables_base,
                                const crypto::Key& victim_key) {
  const std::uint32_t width = class_width(l1);
  require_slots(profile.slots(), l1.sets(), "sets");
  // Every trial observes every set, so the weight of a (pos, value) cell is
  // its trial count regardless of the set consulted.
  return score_line_classes(
      width, victim_key, modulo_slot(l1, tables_base),
      [&](int pos, std::uint32_t s) { return profile.slot_mean(pos, s); },
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_mean(pos, v, s);
      },
      [&](int pos, int v, std::uint32_t) {
        return profile.cell_count(pos, v);
      });
}

MatrixRanking score_flush(const ProbeProfile& profile,
                          const cache::Geometry& l1,
                          const crypto::Key& victim_key) {
  const std::uint32_t width = class_width(l1);
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  require_slots(profile.slots(), 4 * lines_per_table, "monitored lines");
  // The predicted monitored line is addressed directly - the flush channel
  // has no placement frame to get wrong.
  return score_line_classes(
      width, victim_key,
      [&](int pos, std::uint32_t line) {
        return (static_cast<std::uint32_t>(pos) % 4) * lines_per_table + line;
      },
      [&](int pos, std::uint32_t m) { return profile.slot_mean(pos, m); },
      [&](int pos, int v, std::uint32_t m) {
        return profile.cell_mean(pos, v, m);
      },
      [&](int pos, int v, std::uint32_t) {
        return profile.cell_count(pos, v);
      });
}

MatrixRanking score_evict_time(const EvictTimeProfile& profile,
                               const cache::Geometry& l1, Addr tables_base,
                               const crypto::Key& victim_key) {
  const std::uint32_t width = class_width(l1);
  require_slots(profile.sets(), l1.sets(), "sets");
  // Each trial evicts exactly one set, so only the trials whose sweep index
  // matched the prediction carry weight.
  return score_line_classes(
      width, victim_key, modulo_slot(l1, tables_base),
      [&](int pos, std::uint32_t s) { return profile.set_mean(pos, s); },
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_mean(pos, v, s);
      },
      [&](int pos, int v, std::uint32_t s) {
        return profile.cell_count(pos, v, s);
      });
}

}  // namespace tsc::attack
