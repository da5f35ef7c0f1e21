#include "sim/fetch_trace.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

namespace tsc::sim {
namespace {

std::uint32_t narrow_address(Addr a) {
  if (a > std::numeric_limits<std::uint32_t>::max()) [[unlikely]] {
    throw std::out_of_range("FetchTrace: address beyond 32 bits");
  }
  return static_cast<std::uint32_t>(a);
}

}  // namespace

FetchTrace::FetchTrace(std::uint32_t line_bytes) {
  if (line_bytes < 4 || !std::has_single_bit(line_bytes)) {
    throw std::invalid_argument("FetchTrace: line size must be a power of 2");
  }
  line_shift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
}

void FetchTrace::fetch(Addr pc) {
  const std::uint32_t pc32 = narrow_address(pc);
  const std::uint32_t line = pc32 >> line_shift_;
  ++fetches_;
  if (open_) {
    Run& run = runs_.back();
    if ((run.pc >> line_shift_) == line &&
        run.fetches < std::numeric_limits<std::uint16_t>::max() &&
        run.branches < std::numeric_limits<std::uint8_t>::max()) {
      ++run.fetches;
      line_fetch(lines_.back());  // the open run's line was touched last
      return;
    }
  }
  start_run(pc32, line);
}

void FetchTrace::start_run(std::uint32_t pc32, std::uint32_t line) {
  runs_.push_back(Run{pc32, 1, 0, 0});
  open_ = true;
  if (segment_open_ && segments_.back().runs < kSegmentRuns) {
    Segment& seg = segments_.back();
    const auto first = lines_.end() - seg.lines;
    const auto owner =
        std::find_if(first, lines_.end(), [line](const LineFetches& lf) {
          return lf.line % kLatchSlots == line % kLatchSlots;
        });
    if (owner == lines_.end() || owner->line == line) {
      if (owner == lines_.end()) {
        lines_.push_back(LineFetches{line, 0, seg.fetches, seg.fetches, 0});
        ++seg.lines;
      } else {
        std::rotate(owner, owner + 1, lines_.end());  // last touch moves last
      }
      line_fetch(lines_.back());
      ++seg.runs;
      return;
    }
    // Another line owns the slot: both cannot stay latched, so cut here.
  }
  segments_.push_back(Segment{.fetches = 1, .runs = 1, .lines = 1});
  lines_.push_back(LineFetches{line, 1, 0, 0, 0});
  segment_open_ = true;
}

void FetchTrace::data(Addr ea, Ref kind) {
  const std::uint64_t issuer = fetches_ - 1;
  if (issuer >= (std::uint64_t{1} << 30)) [[unlikely]] {
    throw std::length_error("FetchTrace: more than 2^30 instructions");
  }
  const std::uint32_t ea32 = narrow_address(ea);
  data_.push_back(DataRef{ea32, static_cast<std::uint32_t>(issuer << 2) |
                                    static_cast<std::uint32_t>(kind)});
  // The issuing fetch was just written, so the open segment is the last.
  Segment& seg = segments_.back();
  if (kind == Ref::kFlush) {
    unbatch(seg);
    return;
  }
  const std::uint32_t at = seg.refs++;
  if (kind == Ref::kStore) ++seg.stores;
  if (!seg.batched) return;
  const std::uint32_t line = ea32 >> line_shift_;
  const auto first = data_lines_.end() - seg.data_lines;
  // From the last touched back: a reference mostly repeats a recent line.
  const auto hit = std::find_if(
      data_lines_.rbegin(), std::make_reverse_iterator(first),
      [line](const LineRefs& lr) { return lr.line == line; });
  if (hit.base() != first) {
    // Last touch moves last: one memmove of the trivially copyable entries
    // (std::rotate swaps them one by one, which doubled recording time).
    const auto owner = hit.base() - 1;
    const LineRefs touched = *owner;
    std::copy(owner + 1, data_lines_.end(), owner);
    data_lines_.back() = touched;
  } else if (seg.data_lines == kSegmentDataLines) {
    unbatch(seg);
    return;
  } else {
    data_lines_.push_back(LineRefs{line, 0, at, at, 0, false});
    ++seg.data_lines;
  }
  LineRefs& lr = data_lines_.back();
  lr.gap = std::max(lr.gap, at - lr.last);
  lr.last = at;
  ++lr.refs;
  lr.store = lr.store || kind == Ref::kStore;
}

}  // namespace tsc::sim
