#include "sim/machine.h"

#include <stdexcept>
#include <utility>

namespace tsc::sim {

Machine::Machine(HierarchyConfig config, std::shared_ptr<rng::Rng> rng)
    : hierarchy_(std::move(config), rng), rng_(std::move(rng)) {
  fetch_shift_ = hierarchy_.l1i().geometry().offset_bits();
  data_shift_ = hierarchy_.l1d().geometry().offset_bits();
  // A latched fetch or data reference is an L1 hit: what access() would
  // charge for one.
  const LatencyConfig& lat = latency();
  latched_data_cycles_ = lat.quantized(lat.l1_hit) - lat.l1_hit;
  latched_fetch_cycles_ = 1 + latched_data_cycles_;
}

void Machine::reset(std::uint64_t rng_seed) {
  if (rng_ != nullptr) rng_->reseed(rng_seed);
  hierarchy_.reset();
  proc_ = ProcId{1};
  now_ = 0;
  stats_ = MachineStats{};
  latches_.fill(Latch{});
  data_latch_ = Latch{};
}

const FetchTrace::DataRef* Machine::replay_refs(
    const FetchTrace::DataRef* ref, const FetchTrace::DataRef* end,
    std::uint64_t issued) {
  constexpr auto kStore = static_cast<std::uint32_t>(FetchTrace::Ref::kStore);
  constexpr auto kFlush = static_cast<std::uint32_t>(FetchTrace::Ref::kFlush);
  cache::Cache& l1d = hierarchy_.l1d();
  while (ref != end && (ref->slot >> 2) < issued) {
    const std::uint32_t kind = ref->slot & 3;
    if (kind == kFlush) {
      line_flush(ref->ea);
      ++ref;
      continue;
    }
    const Addr line = ref->ea >> data_shift_;
    if (latched(data_latch_, l1d, line, data_shift_)) {
      // The loads and stores up to the next flush or other line all hit
      // the latched line, with no other L1D access between them: serve
      // them as one batch (a store among them leaves the line dirty).
      const FetchTrace::DataRef* last = ref;
      std::uint64_t stores = 0;
      for (; last != end && (last->slot >> 2) < issued &&
             (last->ea >> data_shift_) == line && (last->slot & 3) != kFlush;
           ++last) {
        stores += (last->slot & 3) == kStore ? 1 : 0;
      }
      const auto n = static_cast<std::uint64_t>(last - ref);
      if (l1d.latched_hits(data_latch_.set, data_latch_.way, n,
                           stores != 0) != 0) {
        stats_.loads += n - stores;
        stats_.stores += stores;
        now_ += n * latched_data_cycles_;
        ref = last;
        continue;
      }
    }
    // Through the hierarchy.  Arm the latch only on a line the next
    // reference repeats: a stream that never repeats a line (the attack
    // campaign's OS and noise traces) then pays one compare for it, and
    // the armed line stays latched across hits on other lines.
    const bool write = kind == kStore;
    ++(write ? stats_.stores : stats_.loads);
    const std::uint32_t set = data_access(ref->ea, write).l1_set;
    ++ref;
    if (ref != end && (ref->ea >> data_shift_) == line) {
      data_latch_ = Latch{line, proc_, set, Latch::kUnresolved, l1d.epoch()};
    }
  }
  return ref;
}

bool Machine::latched_segment(const FetchTrace::LineFetches* lines,
                              unsigned n, std::uint64_t fetches) {
  cache::Cache& l1i = hierarchy_.l1i();
  cache::Cache::SegmentLine hits[kLatchSlots];
  for (unsigned k = 0; k < n; ++k) {
    const FetchTrace::LineFetches& lf = lines[k];
    Latch& latch = latches_[lf.line % kLatchSlots];
    if (!latched(latch, l1i, lf.line, fetch_shift_)) return false;
    hits[k] = {latch.set, latch.way, lf.fetches, lf.first, lf.last, lf.gap,
               false};
  }
  return l1i.latched_segment(hits, n, fetches);
}

bool Machine::resident_data_segment(const FetchTrace::LineRefs* lines,
                                    const FetchTrace::Segment& seg) {
  cache::Cache& l1d = hierarchy_.l1d();
  cache::Cache::SegmentLine hits[FetchTrace::kSegmentDataLines];
  for (unsigned k = 0; k < seg.data_lines; ++k) {
    const FetchTrace::LineRefs& lr = lines[k];
    const auto at = l1d.find(proc_, Addr{lr.line} << data_shift_);
    if (!at) return false;
    hits[k] = {at->set, at->way, lr.refs, lr.first, lr.last, lr.gap,
               lr.store};
  }
  if (!l1d.latched_segment(hits, seg.data_lines, seg.refs)) return false;
  stats_.loads += seg.refs - seg.stores;
  stats_.stores += seg.stores;
  now_ += seg.refs * latched_data_cycles_;
  return true;
}

void Machine::replay(const FetchTrace& trace) {
  if (trace.line_bytes() != hierarchy_.l1i().geometry().line_bytes()) {
    throw std::invalid_argument(
        "Machine::replay: trace line size differs from the L1I's");
  }
  if (trace.line_bytes() != hierarchy_.l1d().geometry().line_bytes()) {
    throw std::invalid_argument(
        "Machine::replay: trace line size differs from the L1D's");
  }
  const Cycles branch_penalty = latency().branch_penalty;
  const FetchTrace::Run* run = trace.runs_.data();
  const FetchTrace::LineFetches* lines = trace.lines_.data();
  const FetchTrace::LineRefs* data_lines = trace.data_lines_.data();
  const FetchTrace::DataRef* ref = trace.data_.data();
  const FetchTrace::DataRef* const refs_end = ref + trace.data_.size();
  std::uint64_t issued = 0;  // fetches issued so far, over the whole trace
  for (const FetchTrace::Segment& seg : trace.segments_) {
    if (latched_segment(lines, seg.lines, seg.fetches)) {
      // No fetch of the segment missed, and nothing in it but a final
      // flush reaches the L1I: its fetches are served, then its data
      // references, as one batch when all of its data lines are resident.
      stats_.instructions += seg.fetches;
      stats_.branches += seg.branches;
      stats_.taken_branches += seg.taken;
      now_ += seg.fetches * latched_fetch_cycles_ + seg.taken * branch_penalty;
      issued += seg.fetches;
      if (seg.batched && resident_data_segment(data_lines, seg)) {
        ref += seg.refs;
      } else {
        ref = replay_refs(ref, refs_end, issued);
      }
      run += seg.runs;
    } else {
      for (const FetchTrace::Run* const seg_end = run + seg.runs;
           run != seg_end; ++run) {
        const Addr line = run->pc >> fetch_shift_;
        std::uint64_t left = run->fetches;  // >= 1
        do {
          std::uint64_t served = latched_fetches(line, left);
          if (served == 0) {
            fetch_full(run->pc);  // any pc of the line: the L1I sees the line
            served = 1;
          }
          left -= served;
          issued += served;
          // The data references of the fetches just issued, in order.
          if (ref != refs_end && (ref->slot >> 2) < issued) {
            ref = replay_refs(ref, refs_end, issued);
          }
        } while (left > 0);
        if (run->branches != 0) {
          stats_.branches += run->branches;
          stats_.taken_branches += run->taken;
          now_ += run->taken * branch_penalty;
        }
      }
    }
    lines += seg.lines;
    data_lines += seg.data_lines;
  }
}

void Machine::drain() {
  ++stats_.drains;
  now_ += latency().drain_cost();
}

void Machine::set_seed(ProcId proc, Seed master) {
  ++stats_.seed_changes;
  drain();
  hierarchy_.set_seed(proc, master);
  // One register write per cache level.
  const Cycles levels = hierarchy_.has_l2() ? 3 : 2;
  now_ += levels * latency().seed_update;
}

void Machine::flush_caches() {
  ++stats_.flushes;
  const std::uint64_t lines = hierarchy_.flush_all();
  // flush_base is paid unconditionally: issuing the flush costs the
  // pipeline slot and a tag sweep even when every line is already invalid.
  // (Charging only per invalidated line made an empty-hierarchy flush free,
  // which is both an unrealistic timing model and a degenerate observable
  // for flush-timing channels.)
  now_ += latency().flush_base + lines * latency().flush_per_line;
}

void Machine::reset_stats() {
  stats_ = MachineStats{};
  hierarchy_.reset_stats();
}

HierarchyConfig arm920t_config(cache::MapperKind l1_mapper,
                               cache::MapperKind l2_mapper,
                               cache::ReplacementKind repl) {
  HierarchyConfig config;
  config.l1i.config.geometry = cache::l1_geometry_arm920t();
  config.l1i.mapper = l1_mapper;
  config.l1i.replacement = repl;
  config.l1d = config.l1i;
  cache::CacheSpec l2;
  l2.config.geometry = cache::l2_geometry_arm920t();
  l2.mapper = l2_mapper;
  l2.replacement = repl;
  config.l2 = l2;
  return config;
}

}  // namespace tsc::sim
