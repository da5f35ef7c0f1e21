#include "cache/mapper.h"

#include <cassert>
#include <utility>

#include "rng/rng.h"

namespace tsc::cache {

SeededMapper::SeededMapper(std::unique_ptr<Placement> placement)
    : placement_(std::move(placement)) {
  assert(placement_ != nullptr);
}

std::uint32_t SeededMapper::map(Addr line_addr, ProcId proc) const {
  return placement_->set_index(line_addr, seed(proc));
}

void SeededMapper::set_seed(ProcId proc, Seed seed) {
  seeds_.set(proc, seed);
}

Seed SeededMapper::seed(ProcId proc) const {
  return seeds_.get_or(proc, Seed{});
}

void SeededMapper::resolve(ProcId proc, ResolvedMapping& out) const {
  out.seed = seed(proc);
  placement_->resolve(out.seed, out);
}

std::string SeededMapper::name() const {
  return "seeded-" + placement_->name();
}

RpCacheMapper::RpCacheMapper(const Geometry& geometry) : geo_(geometry) {
  regenerate(default_table_, Seed{});
}

std::uint32_t RpCacheMapper::map(Addr line_addr, ProcId proc) const {
  return table_for(proc)[geo_.index_of_line(line_addr)];
}

void RpCacheMapper::set_seed(ProcId proc, Seed seed) {
  seeds_.set(proc, seed);
  if (proc.value >= tables_.size()) tables_.resize(proc.value + 1);
  regenerate(tables_[proc.value], seed);
}

Seed RpCacheMapper::seed(ProcId proc) const {
  return seeds_.get_or(proc, Seed{});
}

void RpCacheMapper::reset() {
  seeds_.clear();
  // A logically empty per-process table means "use the default table";
  // clear() keeps each buffer's capacity, so the next set_seed for the same
  // process regenerates in place without allocating.
  for (std::vector<std::uint32_t>& table : tables_) table.clear();
}

void RpCacheMapper::resolve(ProcId proc, ResolvedMapping& out) const {
  out.kind = MapperKind::kRpCache;
  out.seed = seed(proc);
  out.rp_table = table_for(proc).data();
}

void RpCacheMapper::regenerate(std::vector<std::uint32_t>& table, Seed seed) {
  if (table.empty()) {
    // A cleared table (mapper reset) keeps its capacity: resizing it back
    // touches no heap, so only count the genuinely fresh allocation.
    if (table.capacity() < geo_.sets()) ++table_allocations_;
    table.resize(geo_.sets());
  }
  assert(table.size() == geo_.sets());
  for (std::uint32_t i = 0; i < geo_.sets(); ++i) table[i] = i;
  rng::SplitMix64 rng(seed.value ^ 0xC2B2AE3D27D4EB4FULL);
  for (std::uint32_t i = geo_.sets() - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
    std::swap(table[i], table[j]);
  }
}

const std::vector<std::uint32_t>& RpCacheMapper::table_for(
    ProcId proc) const {
  if (proc.value < tables_.size() && !tables_[proc.value].empty()) {
    return tables_[proc.value];
  }
  return default_table_;
}

}  // namespace tsc::cache
