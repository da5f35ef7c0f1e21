// Property tests for the placement policies (cache/placement.h).
//
// These encode the paper's MBPTA compliance properties directly:
//   mbpta-p2 (Full Randomness)           - hashRP must satisfy, XOR-index must
//                                          violate (section 3, Aciiçmez analysis)
//   mbpta-p3 (Partial APOP-fixed)        - Random Modulo must satisfy
// plus uniformity of randomized placements and offset-bit independence.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "cache/placement.h"
#include "stats/tests.h"

namespace tsc::cache {
namespace {

const Geometry kL1 = l1_geometry_arm920t();  // 128 sets, 4 ways, 32B lines
const Geometry kL2 = l2_geometry_arm920t();  // 2048 sets

Seed seed_of(std::uint64_t v) { return Seed{v}; }

// ---------- geometry sanity -------------------------------------------------

TEST(Geometry, Arm920tShapes) {
  EXPECT_EQ(kL1.sets(), 128u);
  EXPECT_EQ(kL1.ways(), 4u);
  EXPECT_EQ(kL1.line_bytes(), 32u);
  EXPECT_EQ(kL1.index_bits(), 7u);
  EXPECT_EQ(kL1.offset_bits(), 5u);
  EXPECT_EQ(kL1.way_bytes(), 4096u);  // == 4KB page: RM-compatible
  EXPECT_EQ(kL2.sets(), 2048u);
  EXPECT_EQ(kL2.size_bytes(), 256u * 1024u);
}

TEST(Geometry, LineDecomposition) {
  const Addr a = 0x0002'0040;  // line 0x1002, index 2, tag 0x20
  EXPECT_EQ(kL1.line_addr(a), 0x1002u);
  EXPECT_EQ(kL1.line_base(a), 0x0002'0040u);
  EXPECT_EQ(kL1.line_base(a + 31), 0x0002'0040u);
  EXPECT_EQ(kL1.index_of_line(kL1.line_addr(a)), 2u);
  EXPECT_EQ(kL1.tag_of_line(kL1.line_addr(a)), 0x20u);
}

// ---------- shared properties across all placements -------------------------

struct PlacementCase {
  MapperKind kind;
  bool randomized;
};

class EveryPlacement : public ::testing::TestWithParam<PlacementCase> {
 protected:
  std::unique_ptr<Placement> make(const Geometry& g = kL1) const {
    return make_placement(GetParam().kind, g);
  }
};

TEST_P(EveryPlacement, SetAlwaysInRange) {
  const auto p = make();
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Addr line = 0x4000 + i * 37;
    for (std::uint64_t s = 0; s < 8; ++s) {
      EXPECT_LT(p->set_index(line, seed_of(s * 0x123456789ULL)), kL1.sets());
    }
  }
}

TEST_P(EveryPlacement, DeterministicGivenAddressAndSeed) {
  const auto p = make();
  for (std::uint64_t i = 0; i < 100; ++i) {
    const Addr line = 0x8000 + i * 101;
    const Seed s = seed_of(0xDEADBEEF + i);
    EXPECT_EQ(p->set_index(line, s), p->set_index(line, s));
  }
}

TEST_P(EveryPlacement, RandomizedFlagMatchesSeedSensitivity) {
  const auto p = make();
  EXPECT_EQ(p->randomized(), GetParam().randomized);
  // A randomized placement must move at least one of these lines across
  // seeds; a deterministic one must move none.
  bool moved = false;
  for (std::uint64_t i = 0; i < 64 && !moved; ++i) {
    const Addr line = 0x10000 + i;
    moved = p->set_index(line, seed_of(1)) != p->set_index(line, seed_of(2));
  }
  EXPECT_EQ(moved, GetParam().randomized);
}

std::string param_name(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) out += c;
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, EveryPlacement,
    ::testing::Values(PlacementCase{MapperKind::kModulo, false},
                      PlacementCase{MapperKind::kXorIndex, true},
                      PlacementCase{MapperKind::kHashRp, true},
                      PlacementCase{MapperKind::kRandomModulo, true}),
    [](const auto& info) { return param_name(to_string(info.param.kind)); });

// ---------- modulo ----------------------------------------------------------

TEST(ModuloPlacementTest, SetEqualsIndexBits) {
  ModuloPlacement p(kL1);
  for (Addr line = 0; line < 1024; ++line) {
    EXPECT_EQ(p.set_index(line, seed_of(99)), line % 128);
  }
}

// ---------- XOR-index: the Aciiçmez flaw ------------------------------------

// Section 3: "if A and B have identical index bits [...] the set obtained is
// random, but identical for both addresses"; different index bits -> always
// different sets.  Conflict structure is seed-invariant: mbpta-p2 broken.
TEST(XorIndexPlacementTest, SameIndexAlwaysCollides) {
  XorIndexPlacement p(kL1);
  const Addr a = 0x1000;          // index = 0
  const Addr b = 0x1000 + 128;    // same index, different tag
  ASSERT_EQ(kL1.index_of_line(a), kL1.index_of_line(b));
  for (std::uint64_t s = 0; s < 256; ++s) {
    EXPECT_EQ(p.set_index(a, seed_of(s)), p.set_index(b, seed_of(s)))
        << "XOR-index must map same-index lines together under every seed";
  }
}

TEST(XorIndexPlacementTest, DifferentIndexNeverCollides) {
  XorIndexPlacement p(kL1);
  const Addr a = 0x1000;      // index 0
  const Addr b = 0x1001;      // index 1
  for (std::uint64_t s = 0; s < 256; ++s) {
    EXPECT_NE(p.set_index(a, seed_of(s)), p.set_index(b, seed_of(s)));
  }
}

TEST(XorIndexPlacementTest, ConflictStructureSeedInvariant) {
  // The general statement of the flaw: collide(A,B) does not depend on seed.
  XorIndexPlacement p(kL1);
  for (Addr a = 0x2000; a < 0x2040; ++a) {
    for (Addr b = 0x3000; b < 0x3008; ++b) {
      const bool collide_s1 =
          p.set_index(a, seed_of(111)) == p.set_index(b, seed_of(111));
      const bool collide_s2 =
          p.set_index(a, seed_of(0xFEF1F0)) == p.set_index(b, seed_of(0xFEF1F0));
      EXPECT_EQ(collide_s1, collide_s2);
    }
  }
}

// ---------- hashRP: Full Randomness (mbpta-p2) -------------------------------

TEST(HashRpPlacementTest, AddressMovesAcrossSeeds) {
  // mbpta-p2 (1): an address maps to different sets for different seeds and
  // repeats for the same seed.
  HashRpPlacement p(kL1);
  const Addr line = 0x12345;
  std::set<std::uint32_t> sets_seen;
  for (std::uint64_t s = 0; s < 64; ++s) {
    sets_seen.insert(p.set_index(line, seed_of(s * 7919)));
  }
  EXPECT_GT(sets_seen.size(), 32u) << "placement barely depends on the seed";
  EXPECT_EQ(p.set_index(line, seed_of(7919)), p.set_index(line, seed_of(7919)));
}

TEST(HashRpPlacementTest, CollisionsAreSeedDependent) {
  // mbpta-p2 (2): for some seeds A and B collide, for others they do not -
  // for pairs regardless of their modulo relation.
  HashRpPlacement p(kL1);
  int checked = 0;
  int with_both = 0;
  for (Addr a = 0x5000; a < 0x5010; ++a) {
    for (Addr b = 0x9000; b < 0x9010; ++b) {
      bool collide = false;
      bool split = false;
      for (std::uint64_t s = 0; s < 512; ++s) {
        if (p.set_index(a, seed_of(s * 104729)) ==
            p.set_index(b, seed_of(s * 104729))) {
          collide = true;
        } else {
          split = true;
        }
      }
      ++checked;
      if (collide && split) ++with_both;
    }
  }
  // With 128 sets and 512 seeds, P(no collision observed) per pair is tiny;
  // allow a few unlucky pairs.
  EXPECT_GT(with_both, checked * 9 / 10);
}

TEST(HashRpPlacementTest, PlacementUniformAcrossSeeds) {
  HashRpPlacement p(kL1);
  const Addr line = 0xCAFE5;
  std::vector<std::size_t> counts(kL1.sets(), 0);
  constexpr int kSeeds = 128 * 200;
  for (int s = 0; s < kSeeds; ++s) {
    ++counts[p.set_index(line, seed_of(0xABC000 + s))];
  }
  EXPECT_TRUE(stats::chi2_uniform(counts).passed(0.001));
}

TEST(HashRpPlacementTest, WorksOnL2Geometry) {
  // hashRP is the design for L2/L3 caches whose way size exceeds the page
  // size (section 4).
  HashRpPlacement p(kL2);
  std::set<std::uint32_t> sets_seen;
  for (std::uint64_t s = 0; s < 256; ++s) {
    sets_seen.insert(p.set_index(0x77777, seed_of(s * 31)));
  }
  EXPECT_GT(sets_seen.size(), 128u);
}

// ---------- Random Modulo: Partial APOP-fixed Randomness (mbpta-p3) ----------

TEST(RandomModuloPlacementTest, SamePageNeverCollides) {
  // mbpta-p3 (1): two lines in the same page (same tag when way size == page
  // size) must never share a set, under any seed.
  RandomModuloPlacement p(kL1);
  const Addr page_line0 = 0x40 << 7;  // tag 0x40, index 0
  for (std::uint64_t s = 0; s < 128; ++s) {
    std::set<std::uint32_t> sets_in_page;
    for (Addr i = 0; i < 128; ++i) {
      sets_in_page.insert(p.set_index(page_line0 + i, seed_of(s * 2654435761)));
    }
    ASSERT_EQ(sets_in_page.size(), 128u)
        << "seed " << s << ": same-page lines collided (mbpta-p3 violated)";
  }
}

TEST(RandomModuloPlacementTest, CrossPageCollisionsSeedDependent) {
  // mbpta-p3 (2): across pages, full-randomness principles apply.
  RandomModuloPlacement p(kL1);
  const Addr a = (0x10 << 7) | 5;  // page 0x10, index 5
  const Addr b = (0x33 << 7) | 5;  // page 0x33, same index
  bool collide = false;
  bool split = false;
  for (std::uint64_t s = 0; s < 2048 && !(collide && split); ++s) {
    if (p.set_index(a, seed_of(s * 48271)) ==
        p.set_index(b, seed_of(s * 48271))) {
      collide = true;
    } else {
      split = true;
    }
  }
  EXPECT_TRUE(collide) << "same-index cross-page lines never collide: "
                          "conflicts are not randomized";
  EXPECT_TRUE(split);
}

TEST(RandomModuloPlacementTest, PlacementUniformAcrossSeeds) {
  // Section 4: "With RM each address is placed in a random set with uniform
  // probability".
  RandomModuloPlacement p(kL1);
  const Addr line = (0x7A << 7) | 19;
  std::vector<std::size_t> counts(kL1.sets(), 0);
  constexpr int kSeeds = 128 * 200;
  for (int s = 0; s < kSeeds; ++s) {
    ++counts[p.set_index(line, seed_of(0x1234560 + s))];
  }
  EXPECT_TRUE(stats::chi2_uniform(counts).passed(0.001));
}

TEST(RandomModuloPlacementTest, BijectionWithinPageExhaustive) {
  // For a fixed seed, the page's 128 lines must occupy all 128 sets.
  RandomModuloPlacement p(kL1);
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xFFFFFFFFULL}) {
    std::vector<bool> used(kL1.sets(), false);
    for (Addr i = 0; i < 128; ++i) {
      const std::uint32_t s = p.set_index((0x5 << 7) | i, seed_of(seed));
      EXPECT_FALSE(used[s]);
      used[s] = true;
    }
  }
}

TEST(RandomModuloPlacementTest, MemoizationTransparent) {
  // Re-querying mixed (seed, tag) pairs must return identical results:
  // the permutation memo may only accelerate, never change, placements.
  RandomModuloPlacement p(kL1);
  std::vector<std::uint32_t> first;
  for (std::uint64_t i = 0; i < 512; ++i) {
    first.push_back(p.set_index(0x9000 + i * 7, seed_of(i % 13)));
  }
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 512; ++i) {
      EXPECT_EQ(p.set_index(0x9000 + i * 7, seed_of(i % 13)), first[i]);
    }
  }
}

// ---------- offset independence (mbpta-p2 preamble) ---------------------------

TEST(PlacementOffsets, OffsetBitsNeverChangeTheSet) {
  // "two different addresses A and B, i.e. they differ at least in one bit
  // (excluding offset bits within the cache line)" - placement operates on
  // line addresses; bytes within a line share the set by construction.
  for (const MapperKind kind :
       {MapperKind::kModulo, MapperKind::kXorIndex,
        MapperKind::kHashRp, MapperKind::kRandomModulo}) {
    const auto p = make_placement(kind, kL1);
    const Addr byte_addr = 0x4567A0;
    const Addr line = kL1.line_addr(byte_addr);
    for (Addr off = 0; off < kL1.line_bytes(); ++off) {
      EXPECT_EQ(kL1.line_addr(byte_addr + off), line) << to_string(kind);
    }
  }
}

TEST(PlacementFactory, RpCacheHasNoPurePlacement) {
  // RPCache is a per-process table plus a contention rule (RpCacheMapper),
  // not a function of (address, seed).
  EXPECT_THROW((void)make_placement(MapperKind::kRpCache, kL1),
               std::invalid_argument);
}

}  // namespace
}  // namespace tsc::cache
