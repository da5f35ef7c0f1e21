// A recorded instruction stream, compacted for Machine::replay.
//
// A FetchTrace holds what a program asked of the machine - instruction
// fetches, data references and branch outcomes, in program order - with
// consecutive fetches from one L1I line folded into one run.  It is written
// through the Machine's own verbs (instr/load/store/branch/flush_line), so a
// trace built by hand replays exactly like the calls it lists, and one
// recorded from the interpreter (isa::Interpreter::record) replays exactly
// like the execution it observed.
//
// Layout: 8 bytes per run (first pc, fetch count, branch and taken counts)
// plus 8 bytes per data reference (address, and the index of the fetch that
// issued it).  A run never outlives its line, a per-line flush, or its
// counters' range; splitting a run is harmless, because replay serves every
// fetch after the first through the machine's fetch latch either way.
//
// Runs are folded into segments as they are written: at most kSegmentRuns
// consecutive runs over L1I lines that each own a latch slot (so at most
// kLatchSlots lines), closed by a per-line flush.  A segment stores, per
// line, 20 bytes in last-touch order - its fetch count and three fetch
// offsets from the segment's start (first fetch, last fetch, largest gap
// between two of its consecutive fetches) - and its summed fetch, branch
// and taken-branch counts: what Machine::replay needs to serve a steady-
// state loop's fetches in O(lines) when every line is already latched.
// Every fetch ticks an L1I's TTL clock once, so the offsets are also the
// clock ticks at which the line is probed, which is what lets a TTL cache
// decide the whole segment at its entry (Cache::latched_segment).
//
// The data side folds the same way: a segment also stores, per data line
// (cut at the same line size) in last-touch order, 24 bytes - its load and
// store count, whether any of them is a store, and the same three offsets,
// counted in the segment's loads and stores (its L1D probes) - and its
// summed load/store and store counts: what lets replay serve the loads and
// stores of a segment whose data lines are all resident in O(data lines).
// A segment that touches more than kSegmentDataLines data lines, or that a
// flush closes, keeps no data lines and is not batched: its references
// replay one by one.
//
// Addresses are TSISA addresses: pcs and effective addresses must fit in 32
// bits (the recorder and every hand-built trace in the repository do).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/types.h"

namespace tsc::sim {

class FetchTrace {
 public:
  /// Fetch latch slots of the machines that replay a trace: L1I line `l`
  /// is latched in slot `l % kLatchSlots`.
  static constexpr std::uint32_t kLatchSlots = 8;
  /// Runs per segment at most: the range of Segment::runs.
  static constexpr std::uint32_t kSegmentRuns = 255;
  /// Distinct data lines of a segment whose references are batched.
  static constexpr std::uint32_t kSegmentDataLines = 64;

  /// Runs fold the fetches of one `line_bytes` line, and segments the data
  /// references of one: the L1I and L1D line size of the machines that will
  /// replay the trace (a power of two >= 4).
  explicit FetchTrace(std::uint32_t line_bytes = 32);

  /// One instruction of each kind, as the Machine verb of the same name.
  void instr(Addr pc) { fetch(pc); }
  void load(Addr pc, Addr ea) {
    fetch(pc);
    data(ea, Ref::kLoad);
  }
  void store(Addr pc, Addr ea) {
    fetch(pc);
    data(ea, Ref::kStore);
  }
  void branch(Addr pc, bool taken) {
    fetch(pc);
    ++runs_.back().branches;
    ++segments_.back().branches;
    if (taken) {
      ++runs_.back().taken;
      ++segments_.back().taken;
    }
  }
  /// A flush also touches the L1I, so it ends its run and its segment.
  void flush_line(Addr pc, Addr ea) {
    fetch(pc);
    data(ea, Ref::kFlush);
    open_ = false;
    segment_open_ = false;
  }

  [[nodiscard]] std::uint32_t line_bytes() const { return 1u << line_shift_; }
  /// Instructions recorded (= fetches).
  [[nodiscard]] std::uint64_t instructions() const { return fetches_; }
  /// Segments written so far.
  [[nodiscard]] std::size_t segments() const { return segments_.size(); }

  /// One L1I line of a segment (line address, not pc), its fetches, and
  /// where they fall: offsets counted in fetches from the segment's first.
  struct LineFetches {
    std::uint32_t line = 0;
    std::uint32_t fetches = 0;
    std::uint32_t first = 0;  ///< offset of its first fetch
    std::uint32_t last = 0;   ///< offset of its last fetch
    std::uint32_t gap = 0;    ///< largest offset step between its fetches
    friend bool operator==(const LineFetches&, const LineFetches&) = default;
  };
  /// The line entries of every segment so far, segment after segment, each
  /// segment's in last-touch order.
  [[nodiscard]] const std::vector<LineFetches>& line_fetches() const {
    return lines_;
  }

  /// One data line of a segment (line address), its loads and stores, and
  /// where they fall: offsets counted in the segment's loads and stores
  /// from its first.
  struct LineRefs {
    std::uint32_t line = 0;
    std::uint32_t refs = 0;
    std::uint32_t first = 0;  ///< offset of its first reference
    std::uint32_t last = 0;   ///< offset of its last reference
    std::uint32_t gap = 0;    ///< largest offset step between its references
    bool store = false;       ///< any of its references is a store
    friend bool operator==(const LineRefs&, const LineRefs&) = default;
  };
  /// The data line entries of every batched segment so far, segment after
  /// segment, each segment's in last-touch order.
  [[nodiscard]] const std::vector<LineRefs>& line_refs() const {
    return data_lines_;
  }

  /// Release spare capacity once recording is done.
  void shrink_to_fit() {
    runs_.shrink_to_fit();
    data_.shrink_to_fit();
    segments_.shrink_to_fit();
    lines_.shrink_to_fit();
    data_lines_.shrink_to_fit();
  }

  friend bool operator==(const FetchTrace&, const FetchTrace&) = default;

 private:
  friend class Machine;

  enum class Ref : std::uint32_t { kLoad, kStore, kFlush };

  /// Consecutive fetches from the line of `pc`.
  struct Run {
    std::uint32_t pc = 0;
    std::uint16_t fetches = 0;
    std::uint8_t branches = 0;
    std::uint8_t taken = 0;
    friend bool operator==(const Run&, const Run&) = default;
  };
  /// A data reference issued by fetch number `slot >> 2` (counted over the
  /// whole trace), of kind `slot & 3`.
  struct DataRef {
    std::uint32_t ea = 0;
    std::uint32_t slot = 0;
    friend bool operator==(const DataRef&, const DataRef&) = default;
  };
  /// Consecutive runs whose lines own distinct latch slots; its `lines`
  /// entries of lines_ follow the previous segment's, in last-touch order,
  /// and so do its `data_lines` entries of data_lines_ (none when not
  /// `batched`).
  struct Segment {
    std::uint32_t fetches = 0;  ///< <= kSegmentRuns * 65535
    std::uint32_t refs = 0;     ///< loads and stores
    std::uint32_t stores = 0;
    std::uint16_t branches = 0;  ///< <= kSegmentRuns * 255
    std::uint16_t taken = 0;
    std::uint8_t runs = 0;
    std::uint8_t lines = 0;
    std::uint8_t data_lines = 0;  ///< <= kSegmentDataLines
    bool batched = true;  ///< no flush, at most kSegmentDataLines data lines
    friend bool operator==(const Segment&, const Segment&) = default;
  };
  template <typename T>
  static constexpr std::uint64_t kMax = std::numeric_limits<T>::max();
  static_assert(kSegmentRuns <= kMax<decltype(Segment::runs)>);
  static_assert(kSegmentRuns * kMax<decltype(Run::branches)> <=
                kMax<decltype(Segment::branches)>);
  static_assert(kSegmentRuns * kMax<decltype(Run::fetches)> <=
                kMax<decltype(Segment::fetches)>);
  static_assert(kSegmentDataLines <= kMax<decltype(Segment::data_lines)>);

  void fetch(Addr pc);
  /// Open a run of `line` at `pc32`, in the open segment when it fits.
  void start_run(std::uint32_t pc32, std::uint32_t line);
  /// Count one more fetch of `lf`, the open segment's line touched last.
  void line_fetch(LineFetches& lf) {
    Segment& seg = segments_.back();
    lf.gap = std::max(lf.gap, seg.fetches - lf.last);
    lf.last = seg.fetches;
    ++lf.fetches;
    ++seg.fetches;
  }
  void data(Addr ea, Ref kind);
  /// Stop batching the open segment's references, dropping its data lines.
  void unbatch(Segment& seg) {
    data_lines_.resize(data_lines_.size() - seg.data_lines);
    seg.data_lines = 0;
    seg.batched = false;
  }

  std::vector<Run> runs_;
  std::vector<DataRef> data_;
  std::vector<Segment> segments_;
  std::vector<LineFetches> lines_;
  std::vector<LineRefs> data_lines_;
  std::uint64_t fetches_ = 0;
  unsigned line_shift_ = 5;
  bool open_ = false;  ///< the last run may take more fetches of its line
  bool segment_open_ = false;  ///< the last segment may take more runs
};

}  // namespace tsc::sim
