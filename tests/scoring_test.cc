// Differential tests for the key-rank scorers (attack/metrics.h).
//
// The production kernel reads a cell's trial log, sums only the slots its
// line classes predict, scores one guess per LINE CLASS and hoists the
// set / line marginals out of the guess loop.  All are exact rewrites, so
// every score must equal the naive guess x value loops of
// reference_scoring.h over the dense table of the same log bit for bit -
// compared with memcmp, never with a tolerance - on seeded random
// Prime+Probe, Evict+Time and Flush logs (Prime+Probe and Flush are both
// ProbeLogs, with per-set and per-monitored-line slots):
//
//   * zero-trial, one-trial, sparse (most (pos, value) cells empty),
//     golden-sized and merged multi-shard logs;
//   * Evict+Time trials that evicted a set no line class predicts;
//   * the table built from shard trial logs merged in shard order, against
//     sequential accumulation of the same trials;
//   * the paper L1 and non-paper geometries: 4 B to 1 KB lines, 16 to 256
//     sets, including caches with fewer sets than a table has lines (two
//     line classes predict the same set);
//   * the line-class invariant itself: every guess of a class scores the
//     same double;
//   * the class width reaching line_resolved_bytes() (pinned on 64 B lines,
//     where the old hard-coded 8 undercounted), and the geometries the
//     class loop cannot index being rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "attack/evicttime.h"
#include "attack/metrics.h"
#include "attack/profile.h"
#include "cache/geometry.h"
#include "crypto/aes.h"
#include "crypto/sim_aes.h"
#include "reference_scoring.h"
#include "rng/rng.h"

namespace tsc::attack {
namespace {

using reference::EvictTimeProfile;
using reference::ProbeProfile;

const Addr kTables = crypto::SimAesLayout{}.tables;

/// A 4-way L1 with `sets` sets of `line_bytes` lines.
cache::Geometry l1_with(std::uint32_t line_bytes, std::uint32_t sets) {
  return cache::Geometry(sets * 4 * line_bytes, 4, line_bytes);
}

std::uint32_t monitored_lines(const cache::Geometry& l1) {
  return 4 * (crypto::SimAesLayout::kTableBytes / l1.line_bytes());
}

crypto::Key random_key(std::uint64_t seed) {
  rng::XorShift64Star r(seed);
  return crypto::random_block(r);
}

// Observables are small integers, as in the real campaigns: a few probe
// misses per set, cycle counts around a base, sparse touched bits.

ProbeLog random_pp(std::uint32_t sets, std::size_t trials,
                   std::uint64_t seed) {
  rng::XorShift64Star r(seed);
  ProbeLog profile(sets);
  std::vector<std::uint32_t> misses(sets);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::uint32_t& m : misses) {
      m = static_cast<std::uint32_t>(r.next_below(4));
    }
    profile.add(crypto::random_block(r), misses);
  }
  return profile;
}

EvictTimeLog random_et(std::uint32_t sets, std::size_t trials,
                       std::uint64_t seed) {
  rng::XorShift64Star r(seed);
  EvictTimeLog profile(sets);
  for (std::size_t t = 0; t < trials; ++t) {
    profile.add(crypto::random_block(r), static_cast<std::uint32_t>(t % sets),
                900 + r.next_below(300));
  }
  return profile;
}

ProbeLog random_flush(std::uint32_t lines, std::size_t trials,
                      std::uint64_t seed) {
  rng::XorShift64Star r(seed);
  ProbeLog profile(lines);
  std::vector<std::uint32_t> touched(lines);
  for (std::size_t t = 0; t < trials; ++t) {
    for (std::uint32_t& b : touched) b = r.next_bool(0.3) ? 1 : 0;
    profile.add(crypto::random_block(r), touched);
  }
  return profile;
}

void expect_bit_identical(const MatrixRanking& fast, const MatrixRanking& ref,
                          const std::string& what) {
  for (std::size_t pos = 0; pos < 16; ++pos) {
    const ByteRanking& f = fast.bytes[pos];
    const ByteRanking& r = ref.bytes[pos];
    EXPECT_EQ(std::memcmp(f.score.data(), r.score.data(), sizeof f.score), 0)
        << what << ": scores differ at position " << pos;
    EXPECT_EQ(f.ranking, r.ranking) << what << ": position " << pos;
    EXPECT_EQ(f.true_rank, r.true_rank) << what << ": position " << pos;
  }
}

void expect_line_classes_share_scores(const MatrixRanking& ranking,
                                      const cache::Geometry& l1,
                                      const std::string& what) {
  const int width = static_cast<int>(l1.line_bytes() / 4);
  ASSERT_EQ(ranking.entries_per_line, width) << what;
  for (const ByteRanking& b : ranking.bytes) {
    for (int g = 0; g < 256; ++g) {
      const auto first = static_cast<std::size_t>(g - g % width);
      ASSERT_EQ(std::memcmp(&b.score[static_cast<std::size_t>(g)],
                            &b.score[first], sizeof(double)),
                0)
          << what << ": guess " << g << " leaves its class";
    }
  }
}

struct GeometryCase {
  std::uint32_t line_bytes;
  std::uint32_t sets;
};

std::string case_name(const testing::TestParamInfo<GeometryCase>& info) {
  return "line" + std::to_string(info.param.line_bytes) + "_sets" +
         std::to_string(info.param.sets);
}

class ScoringDifferential : public testing::TestWithParam<GeometryCase> {
 protected:
  [[nodiscard]] cache::Geometry l1() const {
    return l1_with(GetParam().line_bytes, GetParam().sets);
  }

  void check_prime_probe(const ProbeLog& log, const std::string& what) const {
    const crypto::Key key = random_key(GetParam().line_bytes + 1);
    const MatrixRanking fast = score_prime_probe(log, l1(), kTables, key);
    expect_bit_identical(fast,
                         reference::score_prime_probe(ProbeProfile(log), l1(),
                                                      kTables, key),
                         "prime+probe " + what);
    expect_line_classes_share_scores(fast, l1(), "prime+probe " + what);
  }

  [[nodiscard]] crypto::Key evict_time_key() const {
    return random_key(GetParam().sets + 2);
  }

  MatrixRanking check_evict_time(const EvictTimeLog& log,
                                 const std::string& what) const {
    const crypto::Key key = evict_time_key();
    const MatrixRanking fast = score_evict_time(log, l1(), kTables, key);
    expect_bit_identical(fast,
                         reference::score_evict_time(EvictTimeProfile(log),
                                                     l1(), kTables, key),
                         "evict+time " + what);
    expect_line_classes_share_scores(fast, l1(), "evict+time " + what);
    return fast;
  }

  void check_flush(const ProbeLog& log, const std::string& what) const {
    const crypto::Key key = random_key(3);
    const MatrixRanking fast = score_flush(log, l1(), key);
    expect_bit_identical(
        fast, reference::score_flush(ProbeProfile(log), l1(), key),
        "flush " + what);
    expect_line_classes_share_scores(fast, l1(), "flush " + what);
  }
};

TEST_P(ScoringDifferential, ZeroTrialProfiles) {
  check_prime_probe(ProbeLog(l1().sets()), "empty");
  check_evict_time(EvictTimeLog(l1().sets()), "empty");
  check_flush(ProbeLog(monitored_lines(l1())), "empty");
}

// One trial fills one value cell per position: every other cell is
// skipped, and each slot's marginal is that trial's observation.
TEST_P(ScoringDifferential, OneTrialLogs) {
  check_prime_probe(random_pp(l1().sets(), 1, 31), "one trial");
  check_evict_time(random_et(l1().sets(), 1, 32), "one trial");
  check_flush(random_flush(monitored_lines(l1()), 1, 33), "one trial");
}

// 40 trials leave most of each position's 256 value cells (and nearly all
// Evict+Time (value, set) cells) empty: the kernel must skip exactly the
// cells the reference skips.
TEST_P(ScoringDifferential, SparseProfiles) {
  check_prime_probe(random_pp(l1().sets(), 40, 11), "sparse");
  check_evict_time(random_et(l1().sets(), 40, 12), "sparse");
  check_flush(random_flush(monitored_lines(l1()), 40, 13), "sparse");
}

TEST_P(ScoringDifferential, DenseProfiles) {
  check_prime_probe(random_pp(l1().sets(), 300, 21), "dense");
  check_evict_time(random_et(l1().sets(), 3000, 22), "dense");
  check_flush(random_flush(monitored_lines(l1()), 300, 23), "dense");
}

// A log twice as wide as the geometry: the trials that evicted a set past
// l1's sets are predicted by no line class, so they must weigh nowhere -
// the score equals the reference's and that of the log without them.
TEST_P(ScoringDifferential, EvictTimeTrialsNoPositionPredicts) {
  const std::uint32_t sets = l1().sets();
  const EvictTimeLog wide = random_et(2 * sets, 1000, 41);
  EvictTimeLog predicted(2 * sets);
  for (const EvictTimeLog::Trial& t : wide.trials()) {
    if (t.evicted_set < sets) {
      predicted.add(t.plaintext, t.evicted_set, t.duration);
    }
  }
  ASSERT_LT(predicted.samples(), wide.samples());
  const MatrixRanking with = check_evict_time(wide, "unpredicted sets");
  expect_bit_identical(
      with, score_evict_time(predicted, l1(), kTables, evict_time_key()),
      "unpredicted trials dropped");
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ScoringDifferential,
    testing::Values(GeometryCase{32, 128},  // the paper's L1
                    GeometryCase{4, 128}, GeometryCase{16, 128},
                    GeometryCase{64, 128}, GeometryCase{128, 128},
                    GeometryCase{1024, 16}, GeometryCase{32, 64},
                    GeometryCase{32, 256},
                    // Fewer sets than a table's lines: slots repeat.
                    GeometryCase{32, 16}, GeometryCase{4, 16}),
    case_name);

// A golden cell's shape: 1200 trials on the paper L1, merged from three
// 400-trial shard logs as the campaign runner merges them.
TEST(ScoringGoldenShape, MergedShardsMatchReference) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const crypto::Key key = random_key(2018);

  ProbeLog pp_log = random_pp(l1.sets(), 400, 100);
  EvictTimeLog et_log = random_et(l1.sets(), 400, 200);
  ProbeLog fl_log = random_flush(monitored_lines(l1), 400, 300);
  for (std::uint64_t shard = 1; shard < 3; ++shard) {
    pp_log.merge(random_pp(l1.sets(), 400, 100 + shard));
    et_log.merge(random_et(l1.sets(), 400, 200 + shard));
    fl_log.merge(random_flush(monitored_lines(l1), 400, 300 + shard));
  }
  const ProbeProfile pp(pp_log);
  const EvictTimeProfile et(et_log);
  const ProbeProfile fl(fl_log);
  ASSERT_EQ(pp.samples(), 1200u);

  expect_bit_identical(score_prime_probe(pp_log, l1, kTables, key),
                       reference::score_prime_probe(pp, l1, kTables, key),
                       "merged prime+probe");
  expect_bit_identical(score_evict_time(et_log, l1, kTables, key),
                       reference::score_evict_time(et, l1, kTables, key),
                       "merged evict+time");
  expect_bit_identical(score_flush(fl_log, l1, key),
                       reference::score_flush(fl, l1, key), "merged flush");
}

// The reduce scores the shard logs merged in shard order.  Their table
// holds exact integer sums, so it must equal sequential add() of the same
// trials cell for cell, and the merged log must score to the bits the
// reference reads off the sequential table - here for random trials cut
// into uneven shards (an empty one included).
TEST(TrialLogExactness, MergedUnevenShardsBuildTheSequentialTable) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const crypto::Key key = random_key(26);
  const std::vector<std::size_t> shard_sizes = {1, 399, 0, 37, 763};
  const std::uint32_t sets = l1.sets();
  const std::uint32_t lines = monitored_lines(l1);

  rng::XorShift64Star r(0x5EED);
  ProbeProfile pp_whole(sets);
  ProbeProfile fl_whole(lines);
  EvictTimeProfile et_whole(sets);
  std::vector<ProbeLog> pp_shards;
  std::vector<ProbeLog> fl_shards;
  std::vector<EvictTimeLog> et_shards;
  std::vector<std::uint32_t> misses(sets);
  std::vector<std::uint32_t> touched(lines);
  std::uint64_t trial = 0;
  for (const std::size_t size : shard_sizes) {
    pp_shards.emplace_back(sets);
    fl_shards.emplace_back(lines);
    et_shards.emplace_back(sets);
    for (std::size_t t = 0; t < size; ++t, ++trial) {
      const crypto::Block pt = crypto::random_block(r);
      for (std::uint32_t& m : misses) {
        m = static_cast<std::uint32_t>(r.next_below(9));
      }
      for (std::uint32_t& b : touched) b = r.next_bool(0.3) ? 1 : 0;
      const auto set = static_cast<std::uint32_t>(trial % sets);
      const Cycles cycles = 900 + r.next_below(5000);
      pp_whole.add(pt, misses);
      pp_shards.back().add(pt, misses);
      fl_whole.add(pt, touched);
      fl_shards.back().add(pt, touched);
      et_whole.add(pt, set, cycles);
      et_shards.back().add(pt, set, cycles);
    }
  }
  for (std::size_t i = 1; i < shard_sizes.size(); ++i) {
    pp_shards.front().merge(pp_shards[i]);
    fl_shards.front().merge(fl_shards[i]);
    et_shards.front().merge(et_shards[i]);
  }
  ASSERT_EQ(pp_shards.front().samples(), trial);

  EXPECT_TRUE(ProbeProfile(pp_shards.front()) == pp_whole);
  EXPECT_TRUE(ProbeProfile(fl_shards.front()) == fl_whole);
  EXPECT_TRUE(EvictTimeProfile(et_shards.front()) == et_whole);

  expect_bit_identical(
      score_prime_probe(pp_shards.front(), l1, kTables, key),
      reference::score_prime_probe(pp_whole, l1, kTables, key),
      "merged-log prime+probe");
  expect_bit_identical(score_flush(fl_shards.front(), l1, key),
                       reference::score_flush(fl_whole, l1, key),
                       "merged-log flush");
  expect_bit_identical(
      score_evict_time(et_shards.front(), l1, kTables, key),
      reference::score_evict_time(et_whole, l1, kTables, key),
      "merged-log evict+time");
}

// Plant a noise-free Prime+Probe channel on 64 B lines (16 guesses per
// class): every trial misses exactly in the modulo set of each position's
// true round-1 line.  The true class then ranks first, and ties keep value
// order, so the true byte ranks at key % 16 - resolved to its line even
// when that rank is 8..15, which the old `true_rank < 8` criterion missed.
TEST(LineResolvedBytes, CountsTheWholeClassOn64ByteLines) {
  const cache::Geometry l1 = l1_with(64, 128);
  const std::uint32_t width = l1.line_bytes() / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / l1.line_bytes();
  const Addr tables_line = kTables >> l1.offset_bits();

  crypto::Key key{};
  for (std::size_t pos = 0; pos < 16; ++pos) {
    key[pos] = static_cast<std::uint8_t>(17 * pos);  // key[pos] % 16 == pos
  }

  rng::XorShift64Star r(64);
  ProbeLog profile(l1.sets());
  std::vector<std::uint32_t> misses(l1.sets());
  for (int t = 0; t < 4000; ++t) {
    const crypto::Block pt = crypto::random_block(r);
    std::fill(misses.begin(), misses.end(), 0u);
    for (std::size_t pos = 0; pos < 16; ++pos) {
      const Addr line = tables_line + (pos % 4) * lines_per_table +
                        static_cast<std::uint32_t>(pt[pos] ^ key[pos]) / width;
      misses[static_cast<std::size_t>(line & (l1.sets() - 1))] = 1;
    }
    profile.add(pt, misses);
  }

  const MatrixRanking ranking = score_prime_probe(profile, l1, kTables, key);
  EXPECT_EQ(ranking.entries_per_line, 16);
  for (std::size_t pos = 0; pos < 16; ++pos) {
    EXPECT_EQ(ranking.bytes[pos].true_rank, static_cast<int>(pos))
        << "position " << pos;
  }
  EXPECT_EQ(ranking.line_resolved_bytes(), 16);
  EXPECT_EQ(std::count_if(ranking.bytes.begin(), ranking.bytes.end(),
                          [](const ByteRanking& b) { return b.true_rank < 8; }),
            8)
      << "half the bytes rank in the upper half of their class";
}

TEST(LineResolvedBytes, PaperGeometryClassIsEight) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const MatrixRanking ranking = score_prime_probe(
      random_pp(l1.sets(), 40, 5), l1, kTables, random_key(5));
  EXPECT_EQ(ranking.entries_per_line, 8);
}

// Line sizes with no line class to index: under one 4 B table entry (class
// width 0) or over one 1 KB table (class wider than the 256 guesses).
TEST(ScoringPreconditions, RejectsUnindexableLineSizes) {
  for (const cache::Geometry& l1 :
       {cache::Geometry(2 * 128, 1, 2), cache::Geometry(2048 * 8, 1, 2048)}) {
    const crypto::Key key{};
    EXPECT_THROW(
        (void)score_prime_probe(ProbeLog(l1.sets()), l1, kTables, key),
        std::invalid_argument)
        << l1.line_bytes() << " B lines";
    EXPECT_THROW(
        (void)score_evict_time(EvictTimeLog(l1.sets()), l1, kTables, key),
        std::invalid_argument)
        << l1.line_bytes() << " B lines";
    EXPECT_THROW((void)score_flush(ProbeLog(128), l1, key),
                 std::invalid_argument)
        << l1.line_bytes() << " B lines";
  }
}

TEST(ScoringPreconditions, RejectsProfilesSmallerThanTheGeometry) {
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const crypto::Key key{};
  EXPECT_THROW((void)score_prime_probe(ProbeLog(64), l1, kTables, key),
               std::invalid_argument);
  EXPECT_THROW((void)score_evict_time(EvictTimeLog(64), l1, kTables, key),
               std::invalid_argument);
  EXPECT_THROW((void)score_flush(ProbeLog(64), l1, key),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsc::attack
