// Execution-driven machine model: a 5-stage in-order core in front of the
// cache hierarchy.
//
// Workloads drive the machine through an instruction-level interface
// (instr/load/store/branch); the machine accounts cycles with a simple
// in-order pipeline model:
//
//   * one cycle per instruction (CPI 1 when everything hits),
//   * instruction-fetch latency beyond an L1I hit stalls the front-end,
//   * data latency beyond an L1D hit stalls the memory stage,
//   * taken branches pay a fixed resolve bubble,
//   * seed changes drain the pipeline (paper section 5: "empty the pipeline
//     and restore the seed of the incoming SWC"),
//   * cache flushes cost a fixed issue cost plus per invalidated line;
//     per-line flushes (the `flush` instruction) cost more when the line
//     was present - the flush-timing observable.
//
// Fetch is modeled per instruction against the real PC, so instruction-cache
// conflicts (the target of Aciiçmez-style attacks) are simulated, not
// approximated.
//
// The fetch latch: the machine remembers the L1I lines it fetched last -
// one per latch slot, the slot chosen by the line address's low bits, so a
// loop body spanning a few consecutive lines stays latched whole - each
// with its process, set and way and the L1I's mutation epoch at the time.
// A fetch of a latched line by the same process while the epoch is
// unchanged is a guaranteed hit in that way, so it is served through
// Cache::latched_hits (exact statistics, replacement touch, TTL clock)
// without a lookup.  Anything that could move a line (a miss anywhere in
// the L1I, a flush, a reseed, a reset; also through the public
// hierarchy()) changes the epoch and disarms every slot at once.
//
// Recorded streams (sim::FetchTrace) replay through the same latch with
// replay(), a segment at a time: a segment whose lines are all latched
// cannot miss - on a TTL cache, once Cache::latched_segment has checked
// that no line dies before its last fetch - so its fetches are served as
// one counted batch per line.  Its loads and stores then reach only the
// L1D, and when every one of its data lines is resident (and, on a TTL
// L1D, outlives its last reference) they are served the same way: one
// counted batch per data line, found by one Cache::find each.
// Other replayed data references go through a one-line L1D latch on the
// same epoch guard: consecutive references to one line are the common
// case, and a stretch of them is served as one counted batch.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "common/types.h"
#include "sim/fetch_trace.h"
#include "sim/hierarchy.h"

namespace tsc::sim {

/// Per-machine event counters.
struct MachineStats {
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;
  std::uint64_t drains = 0;
  std::uint64_t seed_changes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t line_flushes = 0;  ///< per-line flush instructions executed
};

/// The machine.  Single core, single outstanding access - deliberately the
/// simple automotive profile the paper targets.
class Machine {
 public:
  Machine(HierarchyConfig config, std::shared_ptr<rng::Rng> rng);

  /// Select the software context for subsequent accesses (cache-line
  /// ownership + placement seed selection).  Timing cost of the context
  /// switch itself is modeled by the OS layer via drain().
  void set_process(ProcId proc) { proc_ = proc; }
  [[nodiscard]] ProcId process() const { return proc_; }

  /// Non-memory instruction at `pc`.
  void instr(Addr pc) {
    if (latched_fetches(pc >> fetch_shift_, 1) == 0) fetch_full(pc);
  }

  /// `n` sequential non-memory instructions starting at `pc`, 4 bytes each.
  /// Exactly equivalent to n instr() calls: per L1I line, one fetch, then
  /// the rest of the line as one latched batch (fetch by fetch while the
  /// latch cannot serve the line: a declined fill, or a TTL line that dies
  /// at the next tick).
  void instr_block(Addr pc, unsigned n) {
    const Addr line_mask = (Addr{1} << fetch_shift_) - 1;
    while (n > 0) {
      const unsigned in_line =
          1 + static_cast<unsigned>((line_mask - (pc & line_mask)) >> 2);
      const unsigned k = n < in_line ? n : in_line;
      fetch(pc, k);
      pc += 4 * static_cast<Addr>(k);
      n -= k;
    }
  }

  /// Load instruction at `pc` reading `ea`.
  void load(Addr pc, Addr ea) {
    instr(pc);
    ++stats_.loads;
    data_access(ea, false);
  }

  /// Store instruction at `pc` writing `ea`.
  void store(Addr pc, Addr ea) {
    instr(pc);
    ++stats_.stores;
    data_access(ea, true);
  }

  /// Per-line flush instruction at `pc` targeting `ea` (TSISA `flush rs`):
  /// fetch like any instruction, then flush the line from every cache level
  /// through the CURRENT process's mapping context.  The flush latency
  /// observably differs for present vs absent lines (Hierarchy::flush_line)
  /// - the Flush+Flush timing channel.
  void flush_line(Addr pc, Addr ea) {
    instr(pc);
    line_flush(ea);
  }

  /// Branch instruction at `pc`; taken branches pay the resolve bubble.
  void branch(Addr pc, bool taken) {
    instr(pc);
    ++stats_.branches;
    if (taken) {
      ++stats_.taken_branches;
      now_ += latency().branch_penalty;
    }
  }

  /// Issue a recorded stream under the current process: exactly equivalent
  /// to the instr/load/store/branch/flush_line calls it was written with,
  /// in order.  Segment by segment: when every line of a segment is
  /// latched, and on a TTL L1I every line outlives its last fetch, none of
  /// its fetches can miss and its data references reach only the L1D and
  /// L2 (its one flush, if any, is its last reference), so the fetch side
  /// is one Cache::latched_segment over its lines in last-touch order plus
  /// the summed counters.  Its data side follows.  When the segment is
  /// batched (no flush, at most FetchTrace::kSegmentDataLines data lines)
  /// and every data line is resident in the L1D, every load and store
  /// hits: nothing reaches the L2 and no random number is drawn, so they
  /// are one Cache::latched_segment over the data lines in last-touch
  /// order (stores marking their lines dirty; on a TTL L1D decided by the
  /// same survival rule as the fetches) plus the summed counters.
  /// Otherwise the data references follow in order.  A segment that is not
  /// latched replays run by run: each run's repeat fetches go through the
  /// latch as one batch ahead of the run's later data references (they
  /// commute: a latched hit touches only the L1I and draws no random
  /// number), fetch by fetch when the run's first fetch left the line
  /// non-resident.  Data references in order take the L1D latch when on
  /// the line of the reference before them, a stretch of them as one
  /// batch.  Throws std::invalid_argument when the trace was cut for
  /// another L1I or L1D line size.
  void replay(const FetchTrace& trace);

  /// Pipeline drain (seed change / context switch / barrier).
  void drain();

  /// Install a new master seed for `proc` in all cache levels.  Models the
  /// hardware cost: drain + seed register updates.
  void set_seed(ProcId proc, Seed master);

  /// Flush all caches, paying the per-line invalidation cost.
  void flush_caches();

  /// Advance time without executing (idle / external delay).
  void advance(Cycles cycles) { now_ += cycles; }

  /// Return the machine to its just-constructed state with the rng reseeded
  /// to `rng_seed`: empty caches, default-seed mappings, time zero, zero
  /// stats, process 1.  Bit-exact with constructing a fresh Machine from
  /// the same config and a fresh rng(rng_seed), but reusing every
  /// allocation - the MachinePool contract behind the MBPTA fresh-machine
  /// protocols.
  void reset(std::uint64_t rng_seed);

  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] const MachineStats& stats() const { return stats_; }
  [[nodiscard]] Hierarchy& hierarchy() { return hierarchy_; }
  [[nodiscard]] const LatencyConfig& latency() const {
    return hierarchy_.latency();
  }

  void reset_stats();

 private:
  /// One latch slot: the line last used through this slot and where it
  /// sits; `line == kNoLine` when disarmed, `way == kUnresolved` until its
  /// first use.  Valid while the cache's epoch equals `epoch`.
  struct Latch {
    static constexpr Addr kNoLine = ~Addr{0};
    static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};
    Addr line = kNoLine;
    ProcId proc{};
    std::uint32_t set = 0;
    std::uint32_t way = 0;
    std::uint64_t epoch = 0;
  };

  /// Does `latch` hold `line` (of `shift` offset bits) of `cache` in a
  /// resolved way for the current process, at the cache's current epoch?
  /// Resolves the way at first use: the epoch has not moved, so the line is
  /// where the arming access left it - or nowhere, when the cache declined
  /// the fill (RPCache contention, random fill, write-no-allocate), which
  /// disarms the latch.
  bool latched(Latch& latch, cache::Cache& cache, Addr line, unsigned shift) {
    if (line != latch.line || proc_ != latch.proc ||
        cache.epoch() != latch.epoch) {
      return false;
    }
    if (latch.way == Latch::kUnresolved) [[unlikely]] {
      const auto way = cache.resident_way(latch.set, line << shift);
      if (!way) {
        latch.line = Latch::kNoLine;
        return false;
      }
      latch.way = *way;
    }
    return true;
  }

  /// Serve up to `count` fetches of L1I line `line` from its latch slot;
  /// returns how many were served (0 when the slot does not hold the line).
  std::uint64_t latched_fetches(Addr line, std::uint64_t count) {
    Latch& latch = latches_[line % kLatchSlots];
    cache::Cache& l1i = hierarchy_.l1i();
    if (!latched(latch, l1i, line, fetch_shift_)) return 0;
    const std::uint64_t served =
        l1i.latched_hits(latch.set, latch.way, count, false);
    stats_.instructions += served;
    now_ += served * latched_fetch_cycles_;
    return served;
  }

  /// One fetch through the hierarchy, then arm the line's latch slot (its
  /// way is looked up at the slot's first use: most slots of scattered
  /// code are overwritten unused).
  void fetch_full(Addr pc) {
    ++stats_.instructions;
    const HierarchyResult f =
        hierarchy_.access(Port::kInstruction, proc_, pc, false);
    // 1 issue cycle; fetch latency beyond an L1 hit stalls the front-end.
    now_ += 1 + (f.latency - latency().l1_hit);
    const Addr line = pc >> fetch_shift_;
    latches_[line % kLatchSlots] = Latch{line, proc_, f.l1_set,
                                         Latch::kUnresolved,
                                         hierarchy_.l1i().epoch()};
  }

  /// `count` fetches from the L1I line holding `pc`.
  void fetch(Addr pc, std::uint64_t count) {
    while (count > 0) {
      std::uint64_t served = latched_fetches(pc >> fetch_shift_, count);
      if (served == 0) {
        fetch_full(pc);
        served = 1;
      }
      count -= served;
    }
  }

  /// The data half of a load (write=false) or store.
  HierarchyResult data_access(Addr ea, bool write) {
    const HierarchyResult d = hierarchy_.access(Port::kData, proc_, ea, write);
    now_ += d.latency - latency().l1_hit;
    return d;
  }

  /// Replay the data references from `ref` issued by the first `issued`
  /// fetches of the trace; returns the first reference not replayed.  A
  /// load or store on the line of the L1D latch is served through it,
  /// together with every load and store right after it on that line;
  /// any other goes through the hierarchy, and arms the latch when the next
  /// reference is on its line.
  const FetchTrace::DataRef* replay_refs(const FetchTrace::DataRef* ref,
                                         const FetchTrace::DataRef* end,
                                         std::uint64_t issued);

  /// Serve the `fetches` fetches of a segment over the `n` lines from
  /// `lines` through one Cache::latched_segment, when every line is latched
  /// (ways resolved) and the L1I accepts the segment; false, with nothing
  /// served, otherwise.
  bool latched_segment(const FetchTrace::LineFetches* lines, unsigned n,
                       std::uint64_t fetches);

  /// Serve the loads and stores of a batched segment `seg` whose fetches
  /// were just served, over its data lines from `lines`, through one
  /// Cache::latched_segment on the L1D, when every line is resident and
  /// the L1D accepts the segment; false, with nothing served, otherwise.
  bool resident_data_segment(const FetchTrace::LineRefs* lines,
                             const FetchTrace::Segment& seg);

  /// The flush half of flush_line.
  void line_flush(Addr ea) {
    ++stats_.line_flushes;
    now_ += hierarchy_.flush_line(proc_, ea).latency;
  }

  Hierarchy hierarchy_;
  std::shared_ptr<rng::Rng> rng_;  ///< shared with the caches; reset() reseeds
  ProcId proc_{1};
  Cycles now_ = 0;
  MachineStats stats_;
  /// Eight slots cover the kernels' loop bodies (one to five lines); one
  /// slot would refetch through the hierarchy on every line change.
  static constexpr std::size_t kLatchSlots = FetchTrace::kLatchSlots;
  std::array<Latch, kLatchSlots> latches_{};
  Latch data_latch_;                 ///< replay's L1D latch
  unsigned fetch_shift_ = 0;         ///< L1I line offset bits
  unsigned data_shift_ = 0;          ///< L1D line offset bits
  Cycles latched_fetch_cycles_ = 1;  ///< issue + quantized L1I hit stall
  Cycles latched_data_cycles_ = 0;   ///< quantized L1D hit stall
};

/// The paper's platform (section 6.1.2) parameterized by cache design:
/// builds the HierarchyConfig for 16KB/128x4 L1s + 256KB/2048x4 L2.
[[nodiscard]] HierarchyConfig arm920t_config(cache::MapperKind l1_mapper,
                                             cache::MapperKind l2_mapper,
                                             cache::ReplacementKind repl);

}  // namespace tsc::sim
