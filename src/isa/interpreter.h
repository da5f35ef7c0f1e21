// TSISA interpreter: functional execution + cycle accounting on a Machine.
//
// Every instruction fetch goes through the simulated L1I at the program
// counter's real address; loads and stores go through the L1D; taken
// branches pay the pipeline bubble.  Data lives in a sparse paged memory so
// programs can use the full 32-bit address space without preallocating it.
//
// Hot-path layout (this drives every MBPTA run of the campaign layer):
//
//  * load_program() pre-decodes the program image into a PC-indexed
//    instruction vector; the fetch/dispatch loop consults it with one
//    bounds check per step and falls back to decoding from memory only for
//    PCs outside the image (or unaligned ones).  Stores and pokes that
//    land inside the image re-decode the overwritten words, so
//    self-modifying code behaves exactly like the memory-decode path;
//  * data memory is word-granular: 4KB pages of 32-bit words reached
//    through a direct-mapped page-pointer table (one tag compare per
//    aligned word access, the hash map only on slot misses).  Unaligned
//    and cross-page accesses take the byte path, which is bit-compatible;
//  * reset() returns registers, memory and the decode cache to a fresh
//    state while keeping every allocation, so pooled per-run machines
//    (runner::MachinePool) stop paying construction per MBPTA run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "isa/assembler.h"
#include "sim/machine.h"

namespace tsc::isa {

/// Sparse byte-addressable memory (4KB zero-initialized pages of words).
class SparseMemory {
 public:
  [[nodiscard]] std::uint8_t load8(Addr a) const;
  void store8(Addr a, std::uint8_t v);

  /// Little-endian word access.  Aligned accesses resolve the page with a
  /// single direct-mapped table probe; unaligned ones assemble bytes (and
  /// may cross pages).
  [[nodiscard]] std::uint32_t load32(Addr a) const {
    if ((a & 3u) == 0) [[likely]] {
      const std::uint32_t* w = word_of(a);
      return w == nullptr ? 0 : *w;
    }
    return load32_unaligned(a);
  }
  void store32(Addr a, std::uint32_t v) {
    if ((a & 3u) == 0) [[likely]] {
      word_for(a) = v;
      return;
    }
    store32_unaligned(a, v);
  }

  /// Zero every byte while keeping page allocations and the slot table:
  /// observationally a fresh zero-filled memory, but repeated runs touching
  /// the same addresses never allocate again (pool reuse).
  void clear();

 private:
  static constexpr Addr kPageBytes = 4096;
  static constexpr Addr kPageWords = kPageBytes / 4;
  static constexpr std::size_t kSlots = 256;  ///< direct-mapped page table
  using Page = std::array<std::uint32_t, kPageWords>;

  /// One entry of the direct-mapped page-pointer table.  `tag` is the page
  /// number + 1 so the zero-initialized table is empty; `words` aliases the
  /// page owned by `pages_` (stable: pages are unique_ptr-held).
  struct Slot {
    Addr tag = 0;
    std::uint32_t* words = nullptr;
  };

  /// Word pointer for an aligned address, nullptr when the page does not
  /// exist (reads as zero).  Slot installs are observationally pure.
  [[nodiscard]] const std::uint32_t* word_of(Addr a) const {
    const Addr page_no = a / kPageBytes;
    const Slot& slot = slots_[page_no % kSlots];
    if (slot.tag == page_no + 1) [[likely]] {
      return slot.words + (a % kPageBytes) / 4;
    }
    return word_of_slow(a);
  }
  /// Word reference for an aligned address, creating the page on demand.
  [[nodiscard]] std::uint32_t& word_for(Addr a) {
    const Addr page_no = a / kPageBytes;
    const Slot& slot = slots_[page_no % kSlots];
    if (slot.tag == page_no + 1) [[likely]] {
      return slot.words[(a % kPageBytes) / 4];
    }
    return word_for_slow(a);
  }
  [[nodiscard]] const std::uint32_t* word_of_slow(Addr a) const;
  [[nodiscard]] std::uint32_t& word_for_slow(Addr a);
  [[nodiscard]] std::uint32_t load32_unaligned(Addr a) const;
  void store32_unaligned(Addr a, std::uint32_t v);

  std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
  mutable std::array<Slot, kSlots> slots_{};
};

/// Observation hook for the reference execution path.  run_reference()
/// invokes step() once per executed instruction, BEFORE its side effects;
/// `ea` is the effective address for loads/stores (rs1 + imm) and the rs1
/// value for flush and jalr, 0 otherwise.  The pre-decoded fast path
/// (run()) never consults the sink - the hook is compiled out of it - so
/// attaching an observer cannot perturb the golden-pinned campaigns.  Used
/// by the dynamic taint oracle (analysis/dyntaint.h).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void step(Addr pc, const Instr& in, Addr ea) = 0;
};

/// Why execution stopped.
enum class StopReason { kHalt, kStepLimit, kBadInstruction };

/// The step limit of a run when the caller names none.
inline constexpr std::uint64_t kDefaultMaxSteps = 10'000'000;

/// Result of a run.
struct RunResult {
  StopReason reason = StopReason::kHalt;
  std::uint64_t steps = 0;   ///< instructions executed
  Cycles cycles = 0;         ///< machine cycles consumed by the run
};

/// The interpreter.  One instance owns registers and data memory; the
/// Machine provides timing and is shared with whatever else runs on it.
class Interpreter {
 public:
  explicit Interpreter(sim::Machine& machine) : machine_(machine) {}

  /// Copy a program image into memory (words become little-endian bytes)
  /// and pre-decode it into the PC-indexed decode cache consulted by run().
  /// A second load_program replaces the decode cache; the previous image
  /// stays in memory and executes through the memory-decode fallback.
  void load_program(const Program& program);

  /// Write a data block into simulated memory (no timing cost: models
  /// initialized data sections present at boot).  Writes that overlap the
  /// pre-decoded image update the decode cache.
  void poke_bytes(Addr a, const std::uint8_t* data, std::size_t n);
  void poke32(Addr a, std::uint32_t v);
  [[nodiscard]] std::uint32_t peek32(Addr a) const { return memory_.load32(a); }

  /// Run from `entry` until HALT, a bad instruction, or `max_steps`,
  /// fetching through the decode cache (bit-exact with run_reference).
  RunResult run(Addr entry, std::uint64_t max_steps = kDefaultMaxSteps);

  /// Reference semantics: decode every instruction from memory, one fetch
  /// per step - the pre-overhaul execution path, kept as the equivalence
  /// oracle for the decode cache (tests) and for debugging.
  RunResult run_reference(Addr entry,
                          std::uint64_t max_steps = kDefaultMaxSteps);

  /// run_reference() from `entry`, returning what the run asked of the
  /// machine as a FetchTrace cut for the machine's L1I line size (the
  /// machine executes the run as usual; an attached sink is detached for
  /// its duration).  TSISA has no instruction that reads time or cache
  /// state, so the trace depends only on the program and the interpreter's
  /// registers and memory - Machine::replay of it on ANY platform with that
  /// line size is exactly the run, cycles and statistics included.  The
  /// run's result is stored to `*result` when given (a run cut short by the
  /// step limit or a bad instruction records what executed).  The attached
  /// sink is restored even when recording throws.
  sim::FetchTrace record(Addr entry,
                         std::uint64_t max_steps = kDefaultMaxSteps,
                         RunResult* result = nullptr);

  /// Zero registers, data memory and the decode cache - a fresh interpreter
  /// over the same machine, with every allocation retained (pool reuse).
  void reset();

  [[nodiscard]] std::uint32_t reg(unsigned index) const {
    return regs_.at(index);
  }
  void set_reg(unsigned index, std::uint32_t value);

  [[nodiscard]] sim::Machine& machine() { return machine_; }

  /// Attach (or detach, with nullptr) the reference-path observer.  Only
  /// run_reference() consults it; reset() leaves it in place.
  void set_trace_sink(TraceSink* sink) { trace_sink_ = sink; }

 private:
  /// A pre-decoded instruction; `ok` is false for undecodable words (the
  /// fast path reports kBadInstruction exactly like the reference decode).
  struct CachedInstr {
    Instr in;
    bool ok = false;
  };

  /// The shared fetch/dispatch loop; the template parameter selects the
  /// decode-cache fetch or the reference memory decode.
  template <bool kUseDecodeCache>
  RunResult run_loop(Addr entry, std::uint64_t max_steps);

  /// The one memory-decode fallback both loops share: decode the word at
  /// `pc` into `out`; false means an undecodable instruction.
  [[nodiscard]] bool fetch_decode(Addr pc, Instr& out) const {
    const auto decoded = decode(memory_.load32(pc));
    if (!decoded.has_value()) return false;
    out = *decoded;
    return true;
  }

  /// Re-decode the cached words overlapping [a, a + n) after a memory
  /// write into the program image.
  void refresh_code(Addr a, std::size_t n);
  /// Every functional single-word/byte memory write funnels through these,
  /// which keep the decode cache coherent with memory (poke_bytes batches
  /// the same guard over its whole range).
  void store32_sync(Addr a, std::uint32_t v) {
    memory_.store32(a, v);
    if (touches_code(a, 4)) [[unlikely]] refresh_code(a, 4);
  }
  void store8_sync(Addr a, std::uint8_t v) {
    memory_.store8(a, v);
    if (touches_code(a, 1)) [[unlikely]] refresh_code(a, 1);
  }
  /// Does [a, a + n) overlap the pre-decoded image?
  [[nodiscard]] bool touches_code(Addr a, std::size_t n) const {
    return code_span_ != 0 && a < code_base_ + code_span_ &&
           a + n > code_base_;
  }

  sim::Machine& machine_;
  SparseMemory memory_;
  TraceSink* trace_sink_ = nullptr;
  std::array<std::uint32_t, 16> regs_{};
  Addr code_base_ = 0;
  Addr code_span_ = 0;  ///< bytes covered by the decode cache
  std::vector<CachedInstr> code_;
};

/// The MBPTA protocol's two passes over one kernel: a warm pass (compulsory
/// misses), then the timed pass whose duration depends on which lines
/// survived placement.  The timed pass runs on the warm pass's registers and
/// memory, exactly as two back-to-back run() calls would.
struct KernelPasses {
  sim::FetchTrace warm;
  sim::FetchTrace timed;

  /// Replay both passes on `machine` under its current process and return
  /// the timed pass's cycles: one MBPTA run's measurement.
  [[nodiscard]] Cycles time(sim::Machine& machine) const;
};

/// Record `program`'s two passes from `entry` once, on a private paper-
/// platform machine (32-byte L1I lines).  Platform-invariant: the result
/// replays on every policy of the platform axis.  Throws std::runtime_error,
/// naming the pass and why it stopped, when a pass does not halt within
/// kDefaultMaxSteps steps or meets a bad instruction.
[[nodiscard]] KernelPasses record_passes(const Program& program, Addr entry);

/// Record only the first (warm) pass of `program` from `entry`, on the same
/// private machine as record_passes: for callers that replay the warm pass
/// alone.  Equal to record_passes(program, entry).warm; throws likewise.
[[nodiscard]] sim::FetchTrace record_pass(const Program& program, Addr entry);

}  // namespace tsc::isa
