// Resolved mapping contexts: the devirtualized per-(cache, process) fast
// path of the set-index computation.
//
// The original hot path paid two virtual calls (IndexMapper::map ->
// Placement::set_index) plus a hash-map seed lookup for EVERY simulated
// access.  But a process's placement is fully determined the moment its seed
// is installed - exactly like the paper's Fig. 3 hardware, where the OS
// writes the seed register once per context switch and the access path is
// pure combinational logic.  A ResolvedMapping is the software analogue of
// that register file: everything seed-derived (XOR masks, hashRP rotator
// constants, the RPCache permutation table pointer) is computed once at
// set_seed/registration time, and Cache::access dispatches over a plain
// enum with no indirection.
//
// Equivalence guarantee: the per-kind map functions here are the SAME code
// the virtual Placement::set_index implementations execute (they resolve a
// context and call these helpers), so the fast path cannot drift from the
// reference semantics.  tests/fastpath_test.cc additionally pins both
// against an independently written reference implementation.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <string>

#include "cache/geometry.h"
#include "common/bitops.h"
#include "common/types.h"

namespace tsc::cache {

class RandomModuloPlacement;  // owns the Benes memo consulted by the RM path

/// The mapping designs evaluated in the paper: the four pure placement
/// functions (placement.h) plus the stateful RPCache table design.  One
/// value names a cache level's design everywhere: in a CacheSpec, in a
/// Placement, and in a resolved context.
enum class MapperKind : std::uint8_t {
  kModulo,        ///< deterministic baseline
  kXorIndex,      ///< Aciiçmez [2]
  kHashRp,        ///< hash-based parametric random placement [16]
  kRandomModulo,  ///< RM [15][24]
  kRpCache,       ///< RPCache permutation-table design [27]
};

/// Name of a MapperKind (for reports).
[[nodiscard]] std::string to_string(MapperKind kind);

/// One strong 64->64 mixing round (SplitMix64 finalizer): the shared seed
/// conditioner in front of every placement's XOR/rotator logic.
[[nodiscard]] constexpr std::uint64_t seed_mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Seed-resolved constants of the hashRP placement (paper Fig. 2a).  The
/// per-access loop XORs address fields with seed fields and rotates by a
/// seed/address-derived amount; every seed-only term is precomputed here so
/// the access path touches the seed zero times.
struct HashRpContext {
  /// ceil(62/1) fields is the worst case (1 index bit, 62 line-address
  /// bits); 64 covers every constructible geometry.
  static constexpr unsigned kMaxFields = 64;

  std::uint64_t la_mask = 0;   ///< low line_addr_bits mask
  std::uint64_t acc0 = 0;      ///< seed chunk seeding the accumulator
  std::uint64_t lane_mask = 0; ///< low_mask(lane)
  std::uint32_t sets_mask = 0;
  std::uint32_t wmask = 0;     ///< low_mask(w): rotated lanes truncate to w
  std::uint8_t w = 0;          ///< index bits (1 when the cache has one set)
  std::uint8_t lane = 0;       ///< rotator lane width, w + 1
  std::uint8_t field_count = 0;
  /// amt_mod[a] = a % lane: rotation amounts are 4-bit, so a 16-entry table
  /// replaces the per-access integer division the generic rotl_field pays.
  std::array<std::uint8_t, 16> amt_mod{};
  std::array<std::uint64_t, kMaxFields> seed_field{};  ///< per-field seed XOR
  std::array<std::uint64_t, kMaxFields> field_mask{};  ///< per-field width
  std::array<std::uint8_t, kMaxFields> seed_amt{};     ///< seed rotation nibble
  std::array<std::uint8_t, kMaxFields> neigh_lo{};     ///< neighbour bit base
};

/// Fill a HashRpContext for (geometry-derived widths, seed).
inline void hashrp_resolve(const Geometry& geo, unsigned line_addr_bits,
                           Seed seed, HashRpContext& out) {
  const unsigned w = geo.index_bits() == 0 ? 1 : geo.index_bits();
  const std::uint64_t s = seed_mix64(seed.value);
  const unsigned lane = w + 1;
  const unsigned field_count = (line_addr_bits + w - 1) / w;
  assert(field_count <= HashRpContext::kMaxFields);

  out.la_mask = low_mask(line_addr_bits);
  out.acc0 = bits(s, 48, w);
  out.lane_mask = low_mask(lane);
  out.sets_mask = geo.sets() - 1;
  out.wmask = static_cast<std::uint32_t>(low_mask(w));
  out.w = static_cast<std::uint8_t>(w);
  out.lane = static_cast<std::uint8_t>(lane);
  out.field_count = static_cast<std::uint8_t>(field_count);
  for (unsigned a = 0; a < 16; ++a) {
    out.amt_mod[a] = static_cast<std::uint8_t>(a % lane);
  }
  for (unsigned i = 0; i < field_count; ++i) {
    const unsigned lo = i * w;
    const unsigned width =
        lane < line_addr_bits - lo ? lane : line_addr_bits - lo;
    out.seed_field[i] = bits(s, (7 * i) % 40, lane);
    out.field_mask[i] = low_mask(width);
    out.seed_amt[i] = static_cast<std::uint8_t>(bits(s, w + 4 * i, 4));
    out.neigh_lo[i] =
        static_cast<std::uint8_t>(((i + 1) % field_count) * w);
  }
}

/// The hashRP access path over a resolved context.  Bit-for-bit the Fig. 2a
/// computation of HashRpPlacement (see placement.cc for the hardware
/// rationale of each term); only the seed-derived factors are table reads.
[[nodiscard]] inline std::uint32_t hashrp_map(const HashRpContext& c,
                                              Addr line_addr) {
  const std::uint64_t la = line_addr & c.la_mask;
  const unsigned lane = c.lane;
  // One rotator block.  Fields carry at most `lane` bits (both XOR terms
  // do), so the rotate skips rotl_field's input masking; the amount comes
  // pre-reduced from the mod table instead of a per-access division, and
  // the expression is branchless even for amt == 0 (field < 2^lane makes
  // field >> lane vanish).
  const auto block = [&](unsigned i) -> std::uint64_t {
    const std::uint64_t field =
        ((la >> (i * c.w)) & c.field_mask[i]) ^ c.seed_field[i];
    const auto raw = static_cast<unsigned>(
        (c.seed_amt[i] ^ (la >> c.neigh_lo[i])) & 0xF);
    const unsigned amt = c.amt_mod[raw];
    return ((field << amt) | (field >> (lane - amt))) & c.lane_mask;
  };
  std::uint64_t acc = c.acc0;
  // The paper-platform shapes resolve to four fields (L1: w=7) or three
  // (L2: w=11); unrolling those lets the blocks' independent loads and
  // shifts overlap instead of serializing behind the loop counter.
  switch (c.field_count) {
    case 3:
      acc ^= (block(0) ^ block(1) ^ block(2)) & c.wmask;
      break;
    case 4:
      acc ^= (block(0) ^ block(1) ^ block(2) ^ block(3)) & c.wmask;
      break;
    default:
      for (unsigned i = 0, n = c.field_count; i < n; ++i) {
        acc ^= block(i) & c.wmask;
      }
      break;
  }
  return static_cast<std::uint32_t>(acc & c.sets_mask);
}

/// A fully resolved (cache, process) mapping: tagged union over the five
/// designs.  Built by IndexMapper::resolve, cached per process by the Cache,
/// refreshed on set_seed.
struct ResolvedMapping {
  MapperKind kind = MapperKind::kModulo;
  bool valid = false;  ///< resolved for the current seed epoch?
  Seed seed{};

  // kXorIndex: set = index ^ xor_mask.
  std::uint32_t xor_mask = 0;

  // kRandomModulo: premixed seed + the placement instance owning the shared
  // per-cache Benes memo (mutable through a const placement; see
  // RandomModuloPlacement).
  std::uint64_t rm_mix = 0;
  const RandomModuloPlacement* rm = nullptr;

  // kRpCache: the process's permutation table (owned by the mapper; the
  // buffer is stable - reseeds regenerate it in place).
  const std::uint32_t* rp_table = nullptr;

  // kHashRp.
  HashRpContext hashrp;
};

}  // namespace tsc::cache
