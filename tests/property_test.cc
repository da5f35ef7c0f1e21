// Cross-cutting property suites (TEST_P) exercising cache correctness and
// the paper's invariants across geometries, designs, and replacement
// policies - the sweeps that single-example unit tests cannot cover.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cache/builder.h"
#include "stats/tests.h"

namespace tsc::cache {
namespace {

constexpr ProcId kP1{1};

std::shared_ptr<rng::Rng> test_rng(std::uint64_t seed = 99) {
  return std::make_shared<rng::XorShift64Star>(seed);
}

std::string sanitize(std::string s) {
  for (char& c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return s;
}

// ---------- every (geometry x mapper x replacement) combination ---------------

using Combo = std::tuple<Geometry, MapperKind, ReplacementKind>;

class EveryCacheCombo : public ::testing::TestWithParam<Combo> {
 protected:
  std::unique_ptr<Cache> make(std::uint64_t seed = 7) const {
    const auto& [geometry, mapper, replacement] = GetParam();
    CacheSpec spec;
    spec.config.geometry = geometry;
    spec.mapper = mapper;
    spec.replacement = replacement;
    return build_cache(spec, test_rng(seed));
  }
};

TEST_P(EveryCacheCombo, SecondAccessToSameLineAlwaysHits) {
  auto c = make();
  for (Addr a = 0; a < 64 * 1024; a += 4093) {  // prime stride: scattered
    (void)c->access(kP1, a, false);
    EXPECT_TRUE(c->access(kP1, a, false).hit) << "addr " << a;
  }
}

TEST_P(EveryCacheCombo, ValidLinesNeverExceedCapacity) {
  auto c = make();
  const Geometry& g = c->geometry();
  for (Addr a = 0; a < 4 * g.size_bytes(); a += g.line_bytes()) {
    (void)c->access(kP1, a, false);
  }
  EXPECT_LE(c->valid_lines(),
            static_cast<std::uint64_t>(g.sets()) * g.ways());
}

TEST_P(EveryCacheCombo, StatsIdentitiesHold) {
  auto c = make();
  rng::XorShift64Star addr_rng(31);
  for (int i = 0; i < 5000; ++i) {
    (void)c->access(kP1, addr_rng.next_below(256 * 1024), (i % 3) == 0);
  }
  const CacheStats& s = c->stats();
  EXPECT_EQ(s.accesses, s.hits + s.misses);
  EXPECT_LE(s.writebacks, s.evictions + s.flushed_lines);
  EXPECT_LE(c->valid_lines(),
            static_cast<std::uint64_t>(c->geometry().sets()) *
                c->geometry().ways());
}

TEST_P(EveryCacheCombo, FlushEmptiesEverything) {
  auto c = make();
  for (Addr a = 0; a < 32 * 1024; a += 64) (void)c->access(kP1, a, true);
  (void)c->flush();
  EXPECT_EQ(c->valid_lines(), 0u);
  EXPECT_FALSE(c->access(kP1, 0, false).hit);
}

TEST_P(EveryCacheCombo, DeterministicReplayGivenSameSeed) {
  auto a = make(123);
  auto b = make(123);
  rng::XorShift64Star addr_a(5);
  rng::XorShift64Star addr_b(5);
  for (int i = 0; i < 3000; ++i) {
    const AccessResult ra = a->access(kP1, addr_a.next_below(128 * 1024), false);
    const AccessResult rb = b->access(kP1, addr_b.next_below(128 * 1024), false);
    ASSERT_EQ(ra.hit, rb.hit) << "diverged at access " << i;
    ASSERT_EQ(ra.set, rb.set) << "diverged at access " << i;
  }
}

const Geometry kGeometries[] = {
    Geometry(1024, 2, 32),       // 16 sets
    Geometry(16 * 1024, 4, 32),  // the paper's L1
    Geometry(8 * 1024, 8, 64),   // wide-line, high-assoc
    Geometry(4096, 1, 32),       // direct-mapped
};

INSTANTIATE_TEST_SUITE_P(
    Sweep, EveryCacheCombo,
    ::testing::Combine(
        ::testing::ValuesIn(kGeometries),
        ::testing::Values(MapperKind::kModulo, MapperKind::kXorIndex,
                          MapperKind::kHashRp, MapperKind::kRandomModulo,
                          MapperKind::kRpCache),
        ::testing::Values(ReplacementKind::kLru, ReplacementKind::kRandom,
                          ReplacementKind::kPlru)),
    [](const auto& info) {
      const Geometry& geometry = std::get<0>(info.param);
      return sanitize(std::to_string(geometry.size_bytes() / 1024) + "KB_" +
                      std::to_string(geometry.ways()) + "w_" +
                      to_string(std::get<1>(info.param)) + "_" +
                      to_string(std::get<2>(info.param)));
    });

// ---------- placement invariants on the L2 geometry ---------------------------

class RandomPlacementsOnL2 : public ::testing::TestWithParam<MapperKind> {};

TEST_P(RandomPlacementsOnL2, UniformAcrossSeedsOnL2) {
  const Geometry l2 = l2_geometry_arm920t();
  const auto p = make_placement(GetParam(), l2);
  std::vector<std::size_t> counts(l2.sets(), 0);
  const int draws = static_cast<int>(l2.sets()) * 60;
  for (int s = 0; s < draws; ++s) {
    ++counts[p->set_index(0xABCDE, Seed{0x5000 + static_cast<std::uint64_t>(s)})];
  }
  EXPECT_TRUE(stats::chi2_uniform(counts).passed(0.001));
}

TEST_P(RandomPlacementsOnL2, SeedZeroIsNotSpecial) {
  // A seed of zero must still scatter addresses (hardware reset value).
  const Geometry l2 = l2_geometry_arm920t();
  const auto p = make_placement(GetParam(), l2);
  std::set<std::uint32_t> sets;
  for (Addr line = 0; line < 4096; line += 64) {
    sets.insert(p->set_index(line, Seed{0}));
  }
  EXPECT_GT(sets.size(), 16u);
}

INSTANTIATE_TEST_SUITE_P(Kinds, RandomPlacementsOnL2,
                         ::testing::Values(MapperKind::kHashRp,
                                           MapperKind::kRandomModulo),
                         [](const auto& info) {
                           return sanitize(to_string(info.param));
                         });

// ---------- random replacement is actually random ------------------------------

TEST(RandomnessProperties, RandomReplacementVictimsSpreadOverWays) {
  CacheSpec spec;
  spec.config.geometry = Geometry(2048, 4, 32);  // 16 sets
  spec.mapper = MapperKind::kModulo;
  spec.replacement = ReplacementKind::kRandom;
  auto c = build_cache(spec, test_rng(17));
  // Fill set 0, then stream conflicting lines; track which resident lines
  // survive - under random replacement every way must get evicted sometime.
  std::set<Addr> evicted;
  for (std::uint64_t t = 0; t < 200; ++t) {
    const AccessResult r = c->access(kP1, t * 16 * 32, false);
    if (r.evicted) evicted.insert(r.evicted_line);
  }
  EXPECT_GT(evicted.size(), 100u) << "evictions must churn through lines";
}

TEST(RandomnessProperties, RpCacheDisturbanceHitsManySets) {
  CacheSpec spec;
  spec.config.geometry = Geometry(4096, 1, 32);  // 128 sets, direct-mapped
  spec.mapper = MapperKind::kRpCache;
  auto c = build_cache(spec, test_rng(19));
  // Fill everything as P1, then contend as P2: the secure rule must evict
  // random lines all over the cache, not in one place.
  for (Addr a = 0; a < 4096; a += 32) (void)c->access(kP1, a, false);
  std::set<std::uint32_t> disturbed;
  for (std::uint64_t t = 0; t < 300; ++t) {
    const AccessResult r = c->access(ProcId{2}, 0x100000 + t * 32, false);
    if (r.evicted) {
      disturbed.insert(static_cast<std::uint32_t>(r.evicted_line % 128));
    }
  }
  EXPECT_GT(disturbed.size(), 60u)
      << "contention evictions must be spatially random (that is the "
         "RPCache defence)";
}

}  // namespace
}  // namespace tsc::cache
