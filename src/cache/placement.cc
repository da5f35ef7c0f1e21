#include "cache/placement.h"

#include <sys/mman.h>

#include <cassert>
#include <new>
#include <stdexcept>

#include "cache/benes.h"
#include "common/bitops.h"

namespace tsc::cache {

std::uint32_t XorIndexPlacement::set_index(Addr line_addr, Seed seed) const {
  // The scheme of [2]: XOR the index bits with a (seed-derived) random
  // number.  Deliberately *not* address-dependent beyond the index bits:
  // that is the design being modeled, flaw included.  Same formula as
  // resolve() - kept direct so the virtual path does not build a full
  // context per call.
  const auto mask =
      static_cast<std::uint32_t>(seed_mix64(seed.value) & (geo_.sets() - 1));
  return geo_.index_of_line(line_addr) ^ mask;
}

void XorIndexPlacement::resolve(Seed seed, ResolvedMapping& out) const {
  out.kind = MapperKind::kXorIndex;
  out.xor_mask =
      static_cast<std::uint32_t>(seed_mix64(seed.value) & (geo_.sets() - 1));
}

HashRpPlacement::HashRpPlacement(const Geometry& g, unsigned addr_bits)
    : geo_(g), line_addr_bits_(addr_bits - g.offset_bits()) {
  assert(addr_bits > g.offset_bits());
}

std::uint32_t HashRpPlacement::set_index(Addr line_addr, Seed seed) const {
  // Fig. 2a: the line address (tag+index bits) is split into w-bit fields;
  // each field passes through a rotator block and the rotated fields are
  // XORed with a seed field into the set index.
  //
  // The rotation amount of each block mixes seed bits with bits of the
  // *neighbouring* address field.  The address-dependence is essential: a
  // rotation is linear over XOR (rot(a)^rot(b) == rot(a^b)), so if amounts
  // came from the seed alone, whether two addresses collide would be decided
  // by their XOR-difference and at most a handful of seed bits - some pairs
  // would then collide under no seed at all, violating mbpta-p2(2).  Driving
  // the rotator from other address bits (the same trick RM plays with its
  // tag-driven Benes network) makes the permutation applied to each address
  // pair-specific, so cross-seed conflicts behave randomly.
  // Each rotator works on a (w+1)-bit lane and the result is truncated to
  // w bits.  The truncation matters: rotation and XOR both preserve bit
  // parity, so a pure rotate/XOR tree on w-bit lanes maps every address pair
  // with odd XOR-difference to *unequal* sets under every seed - again an
  // mbpta-p2(2) violation.  Dropping one rotated bit breaks the parity
  // invariant.  The accumulator's seed chunk lives in bits the field-mixing
  // chunks (offsets 0..39) never touch: if they overlapped, a zero rotation
  // amount would cancel the seed out of the final XOR and pin one seed class
  // of every address to a fixed set, breaking placement uniformity.
  //
  // The seed-only terms of all of the above live in a HashRpContext
  // (mapping.h); re-resolve only when the seed actually changed.
  if (!memo_valid_ || memo_seed_ != seed) {
    hashrp_resolve(geo_, line_addr_bits_, seed, memo_ctx_);
    memo_seed_ = seed;
    memo_valid_ = true;
  }
  return hashrp_map(memo_ctx_, line_addr);
}

void HashRpPlacement::resolve(Seed seed, ResolvedMapping& out) const {
  out.kind = MapperKind::kHashRp;
  hashrp_resolve(geo_, line_addr_bits_, seed, out.hashrp);
}

// An unbuilt LUT memo of any geometry: the widest slot (k = 8) times the
// slot count, all unoccupied.
alignas(16) const std::uint8_t RandomModuloPlacement::kUnbuiltLuts
    [kMemoSlots * (kLutHeader + 256)] = {};

RandomModuloPlacement::RandomModuloPlacement(const Geometry& g)
    : geo_(g), k_(g.index_bits()), idx_mask_(g.sets() - 1) {
  assert(g.index_bits() <= 16 &&
         "packed-permutation memo supports up to 16 index bits");
  if (k_ > 8) {
    memo_.resize(kMemoSlots);
  } else if (k_ > 0) {
    lut_stride_ = kLutHeader + (1u << k_);
    lut_view_ = kUnbuiltLuts;
  }
}

void RandomModuloPlacement::rebuild_slot(Memo& slot,
                                         std::uint64_t driver) const {
  const unsigned k = k_;
  const std::vector<std::uint32_t> perm = benes_permutation(k, driver);
  slot = Memo{};
  slot.driver = driver;
  slot.occupied = 1;
  for (unsigned i = 0; i < k; ++i) {
    slot.srcs[i] = static_cast<std::uint8_t>(perm[i] & 0xF);
  }
}

void* map_zeroed_bytes(std::size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void MemoUnmapper::operator()(void* p) const { munmap(p, bytes); }

const std::uint8_t* RandomModuloPlacement::rebuild_lut_slot(
    std::size_t at, std::uint64_t driver) const {
  if (!lut_memo_) {
    lut_memo_ = map_zeroed<std::uint8_t>(kMemoSlots * lut_stride_);
    lut_view_ = lut_memo_.get();
  }
  const unsigned k = k_;
  const std::vector<std::uint32_t> perm = benes_permutation(k, driver);
  std::uint8_t srcs[16] = {};
  for (unsigned i = 0; i < k; ++i) {
    srcs[i] = static_cast<std::uint8_t>(perm[i] & 0xF);
  }
  std::uint8_t* slot = lut_memo_.get() + at * lut_stride_;
  std::memcpy(slot, &driver, 8);
  slot[8] = 1;  // occupied
  for (std::uint32_t x = 0; x < (1u << k); ++x) {
    slot[kLutHeader + x] = static_cast<std::uint8_t>(permute_bits16(x, srcs, k));
  }
  return slot;
}

std::unique_ptr<Placement> make_placement(MapperKind kind,
                                          const Geometry& g) {
  switch (kind) {
    case MapperKind::kModulo:
      return std::make_unique<ModuloPlacement>(g);
    case MapperKind::kXorIndex:
      return std::make_unique<XorIndexPlacement>(g);
    case MapperKind::kHashRp:
      return std::make_unique<HashRpPlacement>(g);
    case MapperKind::kRandomModulo:
      return std::make_unique<RandomModuloPlacement>(g);
    case MapperKind::kRpCache:
      break;
  }
  throw std::invalid_argument("make_placement: " + to_string(kind) +
                              " has no pure placement function");
}

std::string to_string(MapperKind kind) {
  switch (kind) {
    case MapperKind::kModulo:
      return "modulo";
    case MapperKind::kXorIndex:
      return "xor-index";
    case MapperKind::kHashRp:
      return "hashRP";
    case MapperKind::kRandomModulo:
      return "random-modulo";
    case MapperKind::kRpCache:
      return "rpcache";
  }
  return "?";
}

}  // namespace tsc::cache
