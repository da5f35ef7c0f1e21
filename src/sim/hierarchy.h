// Two-level memory hierarchy: split L1 (instruction + data) over a unified
// L2 over flat memory, matching the paper's platform (section 6.1.2):
// "16KB, 128 sets, 4-way first level instruction and data caches; and a
// 256KB, 2048 sets, 4-way L2 cache".
//
// For the MBPTACache and TSCache setups the L1s implement Random Modulo and
// the shared L2 implements hashRP, exactly as in the paper.
//
// access() is defined inline: it sits between the Machine's instruction
// loop and Cache::access on the hottest path of the simulator, and is
// little more than latency bookkeeping around the cache calls.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "cache/builder.h"
#include "common/types.h"
#include "sim/latency.h"

namespace tsc::sim {

/// Which L1 a request enters through.
enum class Port { kInstruction, kData };

/// Outcome of a hierarchy access: the total latency and where it was served.
struct HierarchyResult {
  Cycles latency = 0;
  bool l1_hit = false;
  bool l2_hit = false;  ///< only meaningful when !l1_hit and an L2 exists
  std::uint32_t l1_set = 0;  ///< the L1 set consulted (the fetch latch's key)
};

/// Configuration: cache specs per level.  `l2` may be disabled for
/// single-level experiments.
struct HierarchyConfig {
  cache::CacheSpec l1i;
  cache::CacheSpec l1d;
  std::optional<cache::CacheSpec> l2;
  LatencyConfig latency;
};

/// The hierarchy.  Owns the three cache models and derives per-cache seeds
/// from one per-process master seed, so the OS layer manages a single seed
/// per software component as in the paper's Fig. 3.
class Hierarchy {
 public:
  Hierarchy(HierarchyConfig config, std::shared_ptr<rng::Rng> rng);

  /// One memory access through the hierarchy.  Deterministic given the
  /// cache states: the same (port, proc, addr, write) sequence against the
  /// same seeds and rng stream reproduces the same latencies - the contract
  /// every golden fixture and the MBPTA protocols rest on.  When
  /// latency.quantum > 0 (the TimeCache-style platform) the returned
  /// latency is rounded up to the next quantum multiple, masking the
  /// hit/miss delta the attacker times.
  HierarchyResult access(Port port, ProcId proc, Addr addr, bool write) {
    const LatencyConfig& lat = config_.latency;
    HierarchyResult result;
    cache::Cache& l1 = port == Port::kInstruction ? *l1i_ : *l1d_;

    const cache::AccessResult r1 = l1.access(proc, addr, write);
    result.latency = lat.l1_hit;
    result.l1_hit = r1.hit;
    result.l1_set = r1.set;
    if (!r1.hit) {
      bool served = false;
      if (l2_ != nullptr) {
        const cache::AccessResult r2 = l2_->access(proc, addr, write);
        result.latency += lat.l2_hit;
        result.l2_hit = r2.hit;
        served = r2.hit;
      }
      if (!served) result.latency += lat.memory;
    }
    if (lat.quantum > 0) [[unlikely]] {
      result.latency = lat.quantized(result.latency);
    }
    return result;
  }

  /// Reset all levels to their just-constructed state (lines, replacement
  /// metadata, per-process seeds, partitions, stats) without reallocating.
  /// Part of the Machine::reset pooling contract.
  void reset();

  /// Install a process's master seed; each cache level receives an
  /// independently derived seed.  Returns nothing; timing cost is accounted
  /// by the Machine.
  void set_seed(ProcId proc, Seed master);

  /// Flush all levels; returns the number of valid lines invalidated
  /// (drives the flush timing cost).
  std::uint64_t flush_all();

  /// Outcome of a per-line flush across the hierarchy.
  struct FlushResult {
    Cycles latency = 0;
    bool present = false;    ///< resident in at least one level
    bool writeback = false;  ///< a dirty copy was written back
  };

  /// Flush the line containing `addr` from every level, probing each
  /// through `proc`'s resolved mapping (Cache::flush_line).  The latency is
  /// flush_base plus flush_hit per level that held the line plus
  /// flush_writeback per dirty copy - so a flush of a PRESENT line
  /// observably costs more than a flush of an absent one.  That delta IS
  /// the Flush+Flush channel; under latency quantization (TimeCache) the
  /// total is rounded up to the quantum like every access, masking it.
  FlushResult flush_line(ProcId proc, Addr addr) {
    const LatencyConfig& lat = config_.latency;
    FlushResult result;
    result.latency = lat.flush_base;
    cache::Cache* levels[3] = {l1i_.get(), l1d_.get(), l2_.get()};
    for (cache::Cache* level : levels) {
      if (level == nullptr) continue;
      const cache::Cache::FlushLineResult f = level->flush_line(proc, addr);
      if (f.present) {
        result.present = true;
        result.latency += lat.flush_hit;
      }
      if (f.writeback) {
        result.writeback = true;
        result.latency += lat.flush_writeback;
      }
    }
    if (lat.quantum > 0) [[unlikely]] {
      result.latency = lat.quantized(result.latency);
    }
    return result;
  }

  /// Cache::seed_invariant() on every level: a run in which ONE process
  /// touches the hierarchy after reset() takes the same latencies whatever
  /// the seeds and the rng.  (Latency quantization reads no seed.)
  [[nodiscard]] bool seed_invariant() const {
    return l1i_->seed_invariant() && l1d_->seed_invariant() &&
           (l2_ == nullptr || l2_->seed_invariant());
  }

  [[nodiscard]] cache::Cache& l1i() { return *l1i_; }
  [[nodiscard]] cache::Cache& l1d() { return *l1d_; }
  [[nodiscard]] bool has_l2() const { return l2_ != nullptr; }
  [[nodiscard]] cache::Cache& l2() { return *l2_; }
  [[nodiscard]] const LatencyConfig& latency() const {
    return config_.latency;
  }
  [[nodiscard]] std::string describe() const;

  void reset_stats();

 private:
  HierarchyConfig config_;
  std::unique_ptr<cache::Cache> l1i_;
  std::unique_ptr<cache::Cache> l1d_;
  std::unique_ptr<cache::Cache> l2_;  // may be null
};

}  // namespace tsc::sim
