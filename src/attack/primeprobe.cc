#include "attack/primeprobe.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace tsc::attack {

PrimeProbe::PrimeProbe(sim::Machine& machine, ProcId attacker,
                       PrimeProbeConfig config)
    : machine_(machine),
      attacker_(attacker),
      config_(config),
      sets_(machine.hierarchy().l1d().geometry().sets()),
      lines_(machine.hierarchy().l1d().geometry().sets() *
             machine.hierarchy().l1d().geometry().ways()),
      line_bytes_(machine.hierarchy().l1d().geometry().line_bytes()) {
  assert(config_.attacker_base %
             machine.hierarchy().l1d().geometry().way_bytes() ==
         0 &&
         "prime buffer must be way-size aligned so line i has modulo index "
         "i mod sets");
}

void PrimeProbe::prime() {
  machine_.set_process(attacker_);
  for (std::uint32_t i = 0; i < lines_; ++i) {
    machine_.load(config_.attacker_code,
                  config_.attacker_base + static_cast<Addr>(i) * line_bytes_);
  }
}

unsigned PrimeProbe::probe(std::span<std::uint32_t> per_set_misses,
                           std::uint32_t* first_miss_set) {
  assert(per_set_misses.size() >= sets_);
  machine_.set_process(attacker_);
  // Warm the probe-loop code line so a stale instruction fetch is not
  // charged to the first probed data line.
  machine_.instr(config_.attacker_code);
  unsigned total = 0;
  std::uint32_t first = sets_;
  for (std::uint32_t i = 0; i < lines_; ++i) {
    const Cycles t0 = machine_.now();
    machine_.load(config_.attacker_code,
                  config_.attacker_base + static_cast<Addr>(i) * line_bytes_);
    // An all-hit load costs exactly 1 cycle (issue only); anything beyond
    // means some level missed - the attacker's timing observable.
    if (machine_.now() - t0 > 1) {
      const std::uint32_t set = i & (sets_ - 1);
      ++per_set_misses[set];
      ++total;
      if (first == sets_) first = set;
    }
  }
  if (first_miss_set != nullptr) *first_miss_set = first;
  return total;
}

ProbeOutcome run_aes_prime_probe(sim::Machine& machine, ProcId victim,
                                 ProcId attacker, crypto::SimAes& aes,
                                 std::size_t samples, rng::Rng& pt_rng,
                                 const PrimeProbeConfig& config) {
  PrimeProbe pp(machine, attacker, config);
  const cache::Geometry& geo = machine.hierarchy().l1d().geometry();
  const std::uint32_t entries_per_line = geo.line_bytes() / 4;
  const std::size_t line_classes = 256 / entries_per_line;
  ProbeOutcome out(pp.sets(), line_classes);
  out.profile.reserve(samples);

  // Ground-truth channel diagnostic: byte 2's round-1 lookup hits table 2
  // at line (pt[2] ^ key[2]) / entries_per_line; under the attacker's
  // modulo frame, line c's set is (table2_line + c) mod sets.  Table 2 is
  // the diagnostic table because its sets hold nothing but table-2 lines
  // under the paper layout (tables 0/1 share sets with the victim's code
  // and key schedule), keeping the witness clean.
  const Addr table2_line =
      (aes.layout().tables + 2 * crypto::SimAesLayout::kTableBytes) >>
      geo.offset_bits();
  const std::uint8_t key2 = aes.key()[2];
  std::vector<std::uint32_t> predicted_set(line_classes);
  for (std::size_t c = 0; c < line_classes; ++c) {
    predicted_set[c] =
        static_cast<std::uint32_t>((table2_line + c) & (pp.sets() - 1));
  }

  std::vector<std::uint32_t> misses(pp.sets());
  for (std::size_t trial = 0; trial < samples; ++trial) {
    pp.prime();

    const crypto::Block pt = crypto::random_block(pt_rng);
    machine.set_process(victim);
    (void)aes.encrypt(pt);

    std::fill(misses.begin(), misses.end(), 0u);
    (void)pp.probe(misses);
    out.profile.add(pt, misses);

    const std::uint32_t line_class =
        static_cast<std::uint32_t>(pt[2] ^ key2) / entries_per_line;
    std::size_t witness = line_classes;  // "no cold predicted set"
    for (std::size_t c = 0; c < line_classes; ++c) {
      if (misses[predicted_set[c]] == 0) {
        witness = c;
        break;
      }
    }
    out.channel.add(line_class, witness);
  }
  return out;
}

}  // namespace tsc::attack
