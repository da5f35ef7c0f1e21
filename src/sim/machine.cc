#include "sim/machine.h"

#include <stdexcept>
#include <utility>

namespace tsc::sim {

Machine::Machine(HierarchyConfig config, std::shared_ptr<rng::Rng> rng)
    : hierarchy_(std::move(config), rng), rng_(std::move(rng)) {
  fetch_shift_ = hierarchy_.l1i().geometry().offset_bits();
  // A latched fetch is an L1I hit: what access() would charge for one.
  const LatencyConfig& lat = latency();
  latched_fetch_cycles_ = 1 + (lat.quantized(lat.l1_hit) - lat.l1_hit);
}

void Machine::reset(std::uint64_t rng_seed) {
  if (rng_ != nullptr) rng_->reseed(rng_seed);
  hierarchy_.reset();
  proc_ = ProcId{1};
  now_ = 0;
  stats_ = MachineStats{};
  latches_.fill(FetchLatch{});
}

void Machine::replay(const FetchTrace& trace) {
  if (trace.line_bytes() != hierarchy_.l1i().geometry().line_bytes()) {
    throw std::invalid_argument(
        "Machine::replay: trace line size differs from the L1I's");
  }
  const Cycles branch_penalty = latency().branch_penalty;
  const FetchTrace::DataRef* ref = trace.data_.data();
  const FetchTrace::DataRef* const refs_end = ref + trace.data_.size();
  std::uint64_t issued = 0;  // fetches issued so far, over the whole trace
  for (const FetchTrace::Run& run : trace.runs_) {
    const Addr line = run.pc >> fetch_shift_;
    std::uint64_t left = run.fetches;  // >= 1
    do {
      std::uint64_t served = latched_fetches(line, left);
      if (served == 0) {
        fetch_full(run.pc);  // any pc of the line: the L1I sees the line
        served = 1;
      }
      left -= served;
      issued += served;
      // The data references of the fetches just issued, in order.
      for (; ref != refs_end && (ref->slot >> 2) < issued; ++ref) {
        switch (static_cast<FetchTrace::Ref>(ref->slot & 3)) {
          case FetchTrace::Ref::kLoad:
            ++stats_.loads;
            data_access(ref->ea, false);
            break;
          case FetchTrace::Ref::kStore:
            ++stats_.stores;
            data_access(ref->ea, true);
            break;
          case FetchTrace::Ref::kFlush:
            line_flush(ref->ea);
            break;
        }
      }
    } while (left > 0);
    if (run.branches != 0) {
      stats_.branches += run.branches;
      stats_.taken_branches += run.taken;
      now_ += run.taken * branch_penalty;
    }
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
