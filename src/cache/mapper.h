// Index mappers: how a concrete cache instance turns (line address, process)
// into a set index.
//
// Pure placement functions (placement.h) know nothing about processes.  The
// mapper layer adds the paper's key security ingredient: *per-process seeds*
// (section 5, "Implementing per-process unique seeds").  It also hosts the
// stateful RPCache design [27], whose mapping is a per-process permutation
// table plus a randomize-on-contention rule rather than a pure function.
//
// All per-process state (seeds, RPCache tables) is materialized eagerly at
// set_seed time and stored in dense ProcId-indexed arrays, so the mapping
// interface is const and the cache can resolve a process's mapping into a
// flat ResolvedMapping (mapping.h) consulted without virtual dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.h"
#include "cache/mapping.h"
#include "cache/placement.h"
#include "common/proc_map.h"
#include "common/types.h"

namespace tsc::cache {

/// Maps (line address, process) to a set; owns per-process seed state.
class IndexMapper {
 public:
  virtual ~IndexMapper() = default;

  /// Set index for this access.
  [[nodiscard]] virtual std::uint32_t map(Addr line_addr,
                                          ProcId proc) const = 0;

  /// Install/replace the placement seed of a process.  For RPCache this
  /// re-derives the process's permutation table (in place, eagerly).
  virtual void set_seed(ProcId proc, Seed seed) = 0;

  /// Current seed of a process (the default, Seed{}, if never set).
  [[nodiscard]] virtual Seed seed(ProcId proc) const = 0;

  /// Forget every explicitly installed per-process seed (and any state
  /// derived from it, e.g. RPCache tables), returning to the default-seed
  /// semantics of a freshly constructed mapper - without releasing storage,
  /// so pooled machines reseed with zero allocation churn.
  virtual void reset() = 0;

  /// Resolve the process's mapping into a flat context for the cache's
  /// devirtualized access path.  Kind-specific pointers (RPCache table,
  /// RM memo owner) alias this mapper's storage and stay valid until the
  /// next set_seed for the same process - after which the cache re-resolves.
  virtual void resolve(ProcId proc, ResolvedMapping& out) const = 0;

  /// Which mapping design this is (drives the cache's specialization of the
  /// access path; constant for the mapper's lifetime).  kRpCache also
  /// demands the secure contention policy: on a miss whose replacement
  /// victim belongs to another process, do not allocate and evict a random
  /// line from a random set instead.
  [[nodiscard]] virtual MapperKind mapping_kind() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Mapper over a pure placement function with one seed register per process.
/// This is how hashRP/RM/XOR-index/modulo caches are deployed: the hardware
/// holds the seed of the currently running software unit; the OS saves and
/// restores it on context switches (paper Fig. 3).
class SeededMapper final : public IndexMapper {
 public:
  explicit SeededMapper(std::unique_ptr<Placement> placement);

  [[nodiscard]] std::uint32_t map(Addr line_addr, ProcId proc) const override;
  void set_seed(ProcId proc, Seed seed) override;
  [[nodiscard]] Seed seed(ProcId proc) const override;
  void reset() override { seeds_.clear(); }
  void resolve(ProcId proc, ResolvedMapping& out) const override;
  [[nodiscard]] MapperKind mapping_kind() const override {
    return placement_->kind();
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const Placement& placement() const { return *placement_; }

 private:
  std::unique_ptr<Placement> placement_;
  ProcIndexed<Seed> seeds_;
};

/// RPCache mapper [27]: per-process random permutation table over sets.
/// The table is derived deterministically from the process seed; contention
/// randomization follows from mapping_kind() and is executed by the cache
/// (which owns the line array).
///
/// Tables are built eagerly: the default-seed table at construction, a
/// process's table at set_seed.  Reseeding regenerates the existing buffer
/// in place (Fisher-Yates re-initializes every entry), so a hyperperiod
/// reseed costs zero allocations and table pointers handed out via resolve()
/// stay stable.
class RpCacheMapper final : public IndexMapper {
 public:
  explicit RpCacheMapper(const Geometry& geometry);

  [[nodiscard]] std::uint32_t map(Addr line_addr, ProcId proc) const override;
  void set_seed(ProcId proc, Seed seed) override;
  [[nodiscard]] Seed seed(ProcId proc) const override;
  void reset() override;
  void resolve(ProcId proc, ResolvedMapping& out) const override;
  [[nodiscard]] MapperKind mapping_kind() const override {
    return MapperKind::kRpCache;
  }
  [[nodiscard]] std::string name() const override { return "rpcache"; }

  /// Heap allocations performed by table (re)builds so far - the satellite
  /// guarantee that reseeding does not churn (tests assert it stays flat
  /// across hyperperiods).
  [[nodiscard]] std::uint64_t table_allocations() const {
    return table_allocations_;
  }

 private:
  /// Fisher-Yates permutation of {0..sets-1} from a seed, regenerated into
  /// `table` without reallocation (unless it is empty and must be sized).
  void regenerate(std::vector<std::uint32_t>& table, Seed seed);

  [[nodiscard]] const std::vector<std::uint32_t>& table_for(ProcId proc) const;

  Geometry geo_;
  ProcIndexed<Seed> seeds_;
  std::vector<std::uint32_t> default_table_;
  /// Dense per-process tables; an empty inner vector means "never explicitly
  /// seeded: use the default table".
  std::vector<std::vector<std::uint32_t>> tables_;
  std::uint64_t table_allocations_ = 0;
};

}  // namespace tsc::cache
