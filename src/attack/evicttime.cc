#include "attack/evicttime.h"

#include <cassert>

namespace tsc::attack {

EvictTime::EvictTime(sim::Machine& machine, ProcId attacker,
                     EvictTimeConfig config)
    : machine_(machine),
      attacker_(attacker),
      config_(config),
      sets_(machine.hierarchy().l1d().geometry().sets()),
      ways_(machine.hierarchy().l1d().geometry().ways()),
      line_bytes_(machine.hierarchy().l1d().geometry().line_bytes()) {
  assert(config_.evict_base %
             machine.hierarchy().l1d().geometry().way_bytes() ==
         0 &&
         "eviction array must be way-size aligned so line i has modulo "
         "index i mod sets");
}

void EvictTime::evict_group(std::uint32_t target) {
  machine_.set_process(attacker_);
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const Addr line_index = static_cast<Addr>(w) * sets_ + target;
    machine_.load(config_.evict_code,
                  config_.evict_base + line_index * line_bytes_);
  }
}

void EvictTimeLog::merge(const EvictTimeLog& other) {
  assert(other.sets_ == sets_);
  trials_.insert(trials_.end(), other.trials_.begin(), other.trials_.end());
}

EvictTimeOutcome::EvictTimeOutcome(std::uint32_t sets,
                                   std::size_t line_classes)
    : profile(sets), channel(line_classes, 2) {}

void EvictTimeOutcome::merge(const EvictTimeOutcome& other) {
  profile.merge(other.profile);
  channel.merge(other.channel);
}

EvictTimeOutcome run_aes_evict_time(sim::Machine& machine, ProcId victim,
                                    ProcId attacker, crypto::SimAes& aes,
                                    std::size_t samples,
                                    std::uint64_t trial_offset,
                                    rng::Rng& pt_rng,
                                    const EvictTimeConfig& config) {
  EvictTime et(machine, attacker, config);
  const cache::Geometry& geo = machine.hierarchy().l1d().geometry();
  const std::uint32_t entries_per_line = geo.line_bytes() / 4;
  const std::size_t line_classes = 256 / entries_per_line;
  EvictTimeOutcome out(et.sets(), line_classes);
  out.profile.reserve(samples);

  // All-hit baseline: the second encryption of a fixed block runs entirely
  // from cache, so any re-run strictly above it missed somewhere.
  machine.set_process(victim);
  (void)aes.encrypt(crypto::Block{});
  (void)aes.encrypt(crypto::Block{});
  const Cycles baseline = aes.last_duration();

  // Channel diagnostic bookkeeping (see EvictTimeOutcome::channel).
  const Addr table2_line =
      (aes.layout().tables + 2 * crypto::SimAesLayout::kTableBytes) >>
      geo.offset_bits();
  const std::uint8_t key2 = aes.key()[2];
  const std::uint32_t sets_mask = et.sets() - 1;
  const auto window_base =
      static_cast<std::uint32_t>(table2_line & sets_mask);

  for (std::size_t trial = 0; trial < samples; ++trial) {
    const auto target = static_cast<std::uint32_t>(
        (trial_offset + trial) % et.sets());
    const crypto::Block pt = crypto::random_block(pt_rng);

    machine.set_process(victim);
    (void)aes.encrypt(pt);  // warm: the working set for pt is now resident

    et.evict_group(target);

    machine.set_process(victim);
    (void)aes.encrypt(pt);  // time the re-run
    const Cycles duration = aes.last_duration();
    out.profile.add(pt, target, duration);

    const std::uint32_t window_pos =
        (target + et.sets() - window_base) & sets_mask;
    if (window_pos < line_classes) {
      const std::uint32_t line_class =
          static_cast<std::uint32_t>(pt[2] ^ key2) / entries_per_line;
      const std::size_t distance =
          (line_class + line_classes - window_pos) % line_classes;
      out.channel.add(distance, duration > baseline ? 1 : 0);
    }
  }
  return out;
}

}  // namespace tsc::attack
