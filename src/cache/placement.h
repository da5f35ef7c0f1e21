// Placement policies: (line address, seed) -> cache set.
//
// The four designs the paper analyses (sections 3-4):
//
//  * Modulo        - the deterministic baseline: low index bits of the line
//                    address.  Fully layout-dependent.
//  * XorIndex      - Aciiçmez's secure-I-cache scheme [2]: index XOR random
//                    number.  Permutes set *names* but preserves the conflict
//                    structure: A and B collide for one seed iff they collide
//                    for all seeds.  This is the mbpta-p2 violation the paper
//                    proves; we keep the design around so the flaw is a unit
//                    test rather than prose.
//  * HashRp        - hash-based parametric random placement [16] (Fig. 2a):
//                    rotator blocks + XOR gates over tag+index bits and the
//                    seed.  Full Randomness (mbpta-p2); works for any cache
//                    whose way size exceeds the page size (L2/L3).
//  * RandomModulo  - RM [15][24] (Fig. 2b): seed-XORed index bits permuted by
//                    a Benes network driven by seed-XORed tag bits.  Partial
//                    APOP-fixed randomness (mbpta-p3): same-page lines never
//                    collide; cross-page conflicts are random per seed.
//
// All placements are pure: same (address, seed) -> same set, which is what
// lets caches retain their contents while a task runs (paper section 5:
// "HashRP and RM preserve the same seed during the execution of a task, so
// that cache contents can be retrieved").
//
// Every placement can additionally `resolve` a seed into a ResolvedMapping
// (mapping.h): the seed-only factors of its function, computed once.  The
// virtual set_index path and the cache's devirtualized fast path both run
// the resolved form, so they cannot diverge.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "cache/mapping.h"
#include "common/bitperm.h"
#include "common/types.h"

namespace tsc::cache {

/// Pure placement function interface.
class Placement {
 public:
  virtual ~Placement() = default;

  /// Set index for a line address under the given seed.
  [[nodiscard]] virtual std::uint32_t set_index(Addr line_addr,
                                                Seed seed) const = 0;

  /// Resolve the seed-only factors into `out` for the devirtualized access
  /// path (sets `out.kind` and the kind's parameters; leaves bookkeeping
  /// fields to the caller).
  virtual void resolve(Seed seed, ResolvedMapping& out) const = 0;

  /// Which design this is (drives the resolved-context dispatch).
  [[nodiscard]] virtual MapperKind kind() const = 0;

  /// Identifier for logs and reports.
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when the function actually uses the seed (modulo does not).
  [[nodiscard]] virtual bool randomized() const = 0;
};

/// Deterministic modulo placement (baseline "deterministic" setup, 6.1.2a).
class ModuloPlacement final : public Placement {
 public:
  explicit ModuloPlacement(const Geometry& g) : geo_(g) {}
  [[nodiscard]] std::uint32_t set_index(Addr line_addr, Seed) const override {
    return geo_.index_of_line(line_addr);
  }
  void resolve(Seed, ResolvedMapping& out) const override {
    out.kind = MapperKind::kModulo;
  }
  [[nodiscard]] MapperKind kind() const override {
    return MapperKind::kModulo;
  }
  [[nodiscard]] std::string name() const override { return "modulo"; }
  [[nodiscard]] bool randomized() const override { return false; }

 private:
  Geometry geo_;
};

/// Aciiçmez XOR-index placement [2]: set = index XOR f(seed).
class XorIndexPlacement final : public Placement {
 public:
  explicit XorIndexPlacement(const Geometry& g) : geo_(g) {}
  [[nodiscard]] std::uint32_t set_index(Addr line_addr,
                                        Seed seed) const override;
  void resolve(Seed seed, ResolvedMapping& out) const override;
  [[nodiscard]] MapperKind kind() const override {
    return MapperKind::kXorIndex;
  }
  [[nodiscard]] std::string name() const override { return "xor-index"; }
  [[nodiscard]] bool randomized() const override { return true; }

 private:
  Geometry geo_;
};

/// Hash-based parametric random placement [16] (paper Fig. 2a).
///
/// set_index resolves the seed's rotator/XOR constants into a HashRpContext
/// and runs hashrp_map (mapping.h).  A one-entry context memo keeps repeated
/// same-seed calls (the overwhelmingly common pattern: seeds change once per
/// hyperperiod, addresses every access) at resolved-path speed.  Like the RM
/// Benes memo, the memo is invisible to callers and single-threaded by
/// design (one Machine per worker thread).
class HashRpPlacement final : public Placement {
 public:
  /// `addr_bits` bounds the meaningful line-address width (32-bit machine:
  /// 32 - offset bits).
  explicit HashRpPlacement(const Geometry& g, unsigned addr_bits = 32);
  [[nodiscard]] std::uint32_t set_index(Addr line_addr,
                                        Seed seed) const override;
  void resolve(Seed seed, ResolvedMapping& out) const override;
  [[nodiscard]] MapperKind kind() const override {
    return MapperKind::kHashRp;
  }
  [[nodiscard]] std::string name() const override { return "hashRP"; }
  [[nodiscard]] bool randomized() const override { return true; }

 private:
  Geometry geo_;
  unsigned line_addr_bits_;
  mutable HashRpContext memo_ctx_;
  mutable Seed memo_seed_{};
  mutable bool memo_valid_ = false;
};

/// Releases a memo table mapped by map_zeroed.
struct MemoUnmapper {
  std::size_t bytes = 0;
  void operator()(void* p) const;
};
template <class T>
using MappedMemo = std::unique_ptr<T[], MemoUnmapper>;

/// `bytes` of zeroed memory in an anonymous mapping of its own (throws
/// std::bad_alloc when mapping fails).  The kernel zero-fills only the
/// pages that are touched, so a memo whose slots a run uses sparsely costs
/// resident memory only for those; a zeroed heap block is resident whole.
[[nodiscard]] void* map_zeroed_bytes(std::size_t bytes);

/// `count` zero-valued Ts (an all-zero T must be a valid, empty entry).
/// The placement memos map their table on the first store and read a
/// shared all-zero table until then, so building a machine costs no
/// system call: mapping at construction made BM_MachineFresh/rm about
/// 1.3x slower, zero-filling a heap table there about 1.7x.
template <class T>
[[nodiscard]] MappedMemo<T> map_zeroed(std::size_t count) {
  const std::size_t bytes = count * sizeof(T);
  return MappedMemo<T>(static_cast<T*>(map_zeroed_bytes(bytes)),
                       MemoUnmapper{bytes});
}

/// Random Modulo placement [15][24] (paper Fig. 2b).
///
/// Hardware evaluates the Benes network combinationally in the cache access
/// path; simulating the network per access would dominate simulation time, so
/// the realized bit permutation is memoized per driver value (tag XOR seed)
/// in a small direct-mapped table.  The memo is invisible to callers: results
/// are identical to recomputing the network.  Supports up to 16 index bits
/// (65536 sets), far beyond the paper's 2048-set L2.
///
/// The memo is sized to one seed epoch.  MBPTA deploys a fresh seed per run,
/// so every driver is dead one run later, and a run touches a few hundred
/// tags at most.  A slot is therefore picked by the tag plus a per-seed
/// offset (memo_slot): under one seed, up to kMemoSlots consecutive tags
/// never collide, and two seeds' tags land at unrelated offsets.
class RandomModuloPlacement final : public Placement {
 public:
  explicit RandomModuloPlacement(const Geometry& g);
  [[nodiscard]] std::uint32_t set_index(Addr line_addr,
                                        Seed seed) const override {
    return set_index_mixed(line_addr, seed_mix64(seed.value));
  }
  void resolve(Seed seed, ResolvedMapping& out) const override {
    out.kind = MapperKind::kRandomModulo;
    out.rm_mix = seed_mix64(seed.value);
    out.rm = this;
  }
  [[nodiscard]] MapperKind kind() const override {
    return MapperKind::kRandomModulo;
  }
  [[nodiscard]] std::string name() const override { return "random-modulo"; }
  [[nodiscard]] bool randomized() const override { return true; }

  /// The access path over a premixed seed (mix64 resolved once per seed
  /// epoch).  Inline: this IS the simulator's hottest placement.
  ///
  /// Two memo layouts, picked by index width at construction: up to 8 index
  /// bits (every L1 in the paper's platform), a slot holds the permutation
  /// *applied to every possible input* - the access is one table load.
  /// Above 8 bits, a slot holds the 16 source indices and the access runs
  /// the byte-shuffle permute (bitperm.h).  Both are rebuilt from the same
  /// Benes realization, so results are identical by construction.
  [[nodiscard]] std::uint32_t set_index_mixed(Addr line_addr,
                                              std::uint64_t mixed) const {
    const unsigned k = k_;
    if (k == 0) return 0;  // fully associative: single set
    const auto idx = static_cast<std::uint32_t>(line_addr) & idx_mask_;
    const Addr tag = line_addr >> k;

    // Fig. 2b: index bits XOR seed -> data inputs of the Benes network;
    // tag bits XOR seed -> drive the network switches.
    const auto xored_idx =
        static_cast<std::uint32_t>(idx ^ mixed) & idx_mask_;
    const std::uint64_t driver = tag ^ (mixed >> k);
    const std::size_t at = memo_slot(tag, mixed);

    if (k <= 8) {
      // Slots are (8-byte driver tag + 1-byte occupancy + padding +
      // 2^k-entry table), packed at runtime stride so the active footprint
      // stays as small as the geometry allows.
      const std::uint8_t* slot = lut_view_ + at * lut_stride_;
      std::uint64_t slot_tag;
      std::memcpy(&slot_tag, slot, 8);
      if (slot_tag != driver || slot[8] == 0) [[unlikely]] {
        slot = rebuild_lut_slot(at, driver);
      }
      return slot[kLutHeader + xored_idx];
    }

    Memo& slot = memo_[at];
    if (slot.driver != driver || slot.occupied == 0) [[unlikely]] {
      rebuild_slot(slot, driver);
    }
    return permute_bits16(xored_idx, slot.srcs, k);
  }

 private:
  /// Bytes before a packed LUT slot's table: 8 tag + 1 occupancy + 7 pad.
  /// Occupancy is explicit in both layouts - a tag sentinel cannot work,
  /// every 64-bit value is a legal driver.
  static constexpr std::uint32_t kLutHeader = 16;
  /// Slots per memo: 256 consecutive tags of one seed (the paper L1's 4 KB
  /// pages: 1 MB of address space) never collide.
  static constexpr std::size_t kMemoSlots = 256;

  /// The memo slot of `tag` under the premixed seed `mixed`.  Any index
  /// would be exact (a slot is checked against its driver); this one keeps
  /// a seed's contiguous tags in distinct slots.
  [[nodiscard]] static std::size_t memo_slot(Addr tag, std::uint64_t mixed) {
    return static_cast<std::size_t>(tag + (mixed >> 40)) & (kMemoSlots - 1);
  }

  struct Memo {
    std::uint64_t driver = 0;
    std::uint8_t occupied = 0;
    std::uint8_t srcs[16] = {};       // out bit i = input bit srcs[i]
  };

  /// Simulate the Benes network for `driver` and pack the realized bit
  /// permutation into the slot (the memo-miss slow path, kept out of line).
  void rebuild_slot(Memo& slot, std::uint64_t driver) const;
  /// Returns the rebuilt slot `at`, allocating the table on first use.
  const std::uint8_t* rebuild_lut_slot(std::size_t at,
                                       std::uint64_t driver) const;

  Geometry geo_;
  unsigned k_;             ///< index_bits, flattened for the access path
  std::uint32_t idx_mask_; ///< sets - 1
  // Exactly one of the two memo tables is populated (by k_); both are
  // direct-mapped and single-threaded by design (one Machine per worker).
  mutable std::vector<Memo> memo_;
  /// Packed LUT slots (36 KB on the paper L1), mapped when the first slot
  /// is built (map_zeroed); until then lut_view_ reads a shared all-zero
  /// table, in which every slot is unoccupied.
  static const std::uint8_t kUnbuiltLuts[];
  mutable MappedMemo<std::uint8_t> lut_memo_;
  mutable const std::uint8_t* lut_view_ = nullptr;  ///< lut_memo_ or zeros
  std::uint32_t lut_stride_ = 0;                ///< 8 + 2^k bytes per slot
};

/// Factory.  Throws std::invalid_argument for kRpCache, which has no pure
/// placement function (RpCacheMapper implements it).
[[nodiscard]] std::unique_ptr<Placement> make_placement(MapperKind kind,
                                                        const Geometry& g);

}  // namespace tsc::cache
