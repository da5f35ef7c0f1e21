#include "attack/metrics.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

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
        std::string("attack scoring: log holds ") + std::to_string(have) +
        " " + what + " but the geometry indexes " + std::to_string(need));
  }
}

/// One byte position's evidence in the line-class frame: per (value, line
/// class), the integer sum of the observable in the slot that class's line
/// predicts and the number of trials summed into it.  These are the cells
/// of the dense (position, value, slot) table the contrast reads, for the
/// predicted slots only; a slot two classes share (a cache with fewer sets
/// than a table has lines) is summed into both columns.
struct ClassTable {
  explicit ClassTable(std::uint32_t classes)
      : classes(classes),
        sums(std::size_t{256} * classes),
        counts(std::size_t{256} * classes) {}

  void clear() {
    std::fill(sums.begin(), sums.end(), 0);
    std::fill(counts.begin(), counts.end(), 0);
  }
  [[nodiscard]] std::size_t idx(std::uint32_t value, std::uint32_t line) const {
    return static_cast<std::size_t>(value) * classes + line;
  }

  std::uint32_t classes;
  std::vector<std::uint64_t> sums;    ///< [value][line] observable sums
  std::vector<std::uint64_t> counts;  ///< [value][line] trials summed
};

/// The shared contrast kernel: for every position and guess g, the
/// trial-weighted mean excess of the mean observable at (value v, predicted
/// slot) over the slot's all-trials mean, where the slot (modulo set or
/// monitored line) is the one value v's round-1 lookup predicts under g.
///
/// That lookup hits table line (v ^ g) / width = (v / width) ^ (g / width),
/// so the prediction depends on the guess only through its line class
/// g / width: every guess of a class sums the same terms in the same order.
/// The kernel scores one guess per class and copies the score to the other
/// width - 1, and takes each slot's marginal once per position rather than
/// once per (guess, value) - the same doubles as scoring all 256 guesses.
///
/// `slot_of(pos, line)` names the observable of table line `line`;
/// `sum_log(pos, slot, table)` sums the cell's log into the cleared
/// `table` for position `pos`, where `slot[line]` is line class `line`'s
/// predicted slot.  A slot's marginal is its column's sum over all values,
/// the same integers the dense table's (position, slot) marginal sums.
template <typename SlotOf, typename SumLog>
MatrixRanking score_line_classes(std::uint32_t width,
                                 const crypto::Key& victim_key,
                                 const SlotOf& slot_of, const SumLog& sum_log) {
  MatrixRanking out;
  out.victim_key = victim_key;
  out.entries_per_line = static_cast<int>(width);
  const std::uint32_t classes = 256 / width;
  ClassTable table(classes);

  for (int pos = 0; pos < 16; ++pos) {
    std::array<std::uint32_t, 256> slot{};  // one entry per line class
    for (std::uint32_t line = 0; line < classes; ++line) {
      slot[line] = slot_of(pos, line);
    }
    table.clear();
    sum_log(pos, std::span<const std::uint32_t>(slot.data(), classes), table);

    // Column sums, row by row: integer sums, so the order is free.
    std::array<std::uint64_t, 256> slot_sum{};
    std::array<std::uint64_t, 256> slot_n{};
    for (std::uint32_t v = 0; v < 256; ++v) {
      for (std::uint32_t line = 0; line < classes; ++line) {
        slot_sum[line] += table.sums[table.idx(v, line)];
        slot_n[line] += table.counts[table.idx(v, line)];
      }
    }
    std::array<double, 256> mean{};
    for (std::uint32_t line = 0; line < classes; ++line) {
      mean[line] = slot_n[line] == 0 ? 0.0
                                     : static_cast<double>(slot_sum[line]) /
                                           static_cast<double>(slot_n[line]);
    }

    // Class c reads line (v / width) ^ c of value v's row, so one pass
    // over the rows in value order feeds every class's sum in value order:
    // the same terms in the same order as one class at a time.
    std::array<double, 256> excess{};
    std::array<std::uint64_t, 256> total{};
    for (std::uint32_t v = 0; v < 256; ++v) {
      const std::uint32_t block = v / width;
      for (std::uint32_t line = 0; line < classes; ++line) {
        const std::size_t i = table.idx(v, line);
        const std::uint64_t n = table.counts[i];
        if (n == 0) continue;
        const std::uint32_t c = block ^ line;
        excess[c] += static_cast<double>(n) *
                     (static_cast<double>(table.sums[i]) /
                          static_cast<double>(n) -
                      mean[line]);
        total[c] += n;
      }
    }
    std::array<double, 256> score{};
    for (std::uint32_t c = 0; c < classes; ++c) {
      std::fill_n(score.begin() + c * width, width,
                  total[c] == 0 ? 0.0
                                : excess[c] / static_cast<double>(total[c]));
    }
    out.bytes[static_cast<std::size_t>(pos)] =
        rank_scores(score, victim_key[static_cast<std::size_t>(pos)]);
  }
  return out;
}

/// Sum a probe log (Prime+Probe or flush) for one position.  Every trial
/// observes every slot, so a value's count is its trial count on every
/// line class.
void sum_probe_log(const ProbeLog& log, int pos,
                   std::span<const std::uint32_t> slot, ClassTable& table) {
  const auto p = static_cast<std::size_t>(pos);
  const std::size_t classes = slot.size();
  std::array<std::uint64_t, 256> trials{};
  const auto sum_trials = [&](const auto& observed) {
    for (std::size_t t = 0; t < log.samples(); ++t) {
      const std::uint8_t v = log.plaintext(t)[p];
      const std::uint8_t* obs = log.observations(t).data();
      std::uint64_t* row = table.sums.data() + table.idx(v, 0);
      for (std::size_t line = 0; line < classes; ++line) {
        row[line] += observed(obs, line);
      }
      ++trials[v];
    }
  };
  // A table's lines usually predict a run of consecutive slots (always for
  // the flush lines, and for the modulo sets unless the table wraps the
  // set index); the run is summed without the per-line slot lookup.
  const std::uint32_t first = slot[0];
  bool run = true;
  for (std::size_t line = 0; line < classes; ++line) {
    run = run && slot[line] == first + line;
  }
  if (run) {
    sum_trials([first](const std::uint8_t* obs, std::size_t line) {
      return obs[first + line];
    });
  } else {
    sum_trials([slot](const std::uint8_t* obs, std::size_t line) {
      return obs[slot[line]];
    });
  }
  for (std::uint32_t v = 0; v < 256; ++v) {
    std::fill_n(table.counts.data() + table.idx(v, 0), classes, trials[v]);
  }
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

MatrixRanking score_prime_probe(const ProbeLog& log, const cache::Geometry& l1,
                                Addr tables_base,
                                const crypto::Key& victim_key) {
  const std::uint32_t width = class_width(l1);
  require_slots(log.slots(), l1.sets(), "sets");
  return score_line_classes(
      width, victim_key, modulo_slot(l1, tables_base),
      [&](int pos, std::span<const std::uint32_t> slot, ClassTable& table) {
        sum_probe_log(log, pos, slot, table);
      });
}

MatrixRanking score_flush(const ProbeLog& log, const cache::Geometry& l1,
                          const crypto::Key& victim_key) {
  const std::uint32_t width = class_width(l1);
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  require_slots(log.slots(), 4 * lines_per_table, "monitored lines");
  // The predicted monitored line is addressed directly - the flush channel
  // has no placement frame to get wrong.
  return score_line_classes(
      width, victim_key,
      [&](int pos, std::uint32_t line) {
        return (static_cast<std::uint32_t>(pos) % 4) * lines_per_table + line;
      },
      [&](int pos, std::span<const std::uint32_t> slot, ClassTable& table) {
        sum_probe_log(log, pos, slot, table);
      });
}

MatrixRanking score_evict_time(const EvictTimeLog& log,
                               const cache::Geometry& l1, Addr tables_base,
                               const crypto::Key& victim_key) {
  const std::uint32_t width = class_width(l1);
  require_slots(log.sets(), l1.sets(), "sets");
  // Each trial evicts exactly one set, so it weighs only on the line
  // classes that predict that set: the lines of set s are chained from
  // first_line[s] through next_line.  Sets past the geometry (a log wider
  // than l1) are predicted by no class.
  constexpr std::uint32_t kNoLine = 256;
  std::vector<std::uint32_t> first_line(l1.sets());
  std::array<std::uint32_t, 256> next_line{};
  return score_line_classes(
      width, victim_key, modulo_slot(l1, tables_base),
      [&](int pos, std::span<const std::uint32_t> slot, ClassTable& table) {
        std::fill(first_line.begin(), first_line.end(), kNoLine);
        for (auto line = static_cast<std::uint32_t>(slot.size()); line-- > 0;) {
          next_line[line] = first_line[slot[line]];
          first_line[slot[line]] = line;
        }
        const auto p = static_cast<std::size_t>(pos);
        for (const EvictTimeLog::Trial& t : log.trials()) {
          if (t.evicted_set >= first_line.size()) continue;
          for (std::uint32_t line = first_line[t.evicted_set];
               line != kNoLine; line = next_line[line]) {
            const std::size_t i = table.idx(t.plaintext[p], line);
            table.sums[i] += t.duration;
            ++table.counts[i];
          }
        }
      });
}

}  // namespace tsc::attack
