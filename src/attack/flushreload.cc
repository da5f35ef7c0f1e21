#include "attack/flushreload.h"

#include <vector>

namespace tsc::attack {

namespace {

/// The shared flush-channel campaign.  `time_flush` selects the probe
/// primitive: false = Flush+Reload (time a load, fast = touched), true =
/// Flush+Flush (time the flush, slow = touched).
ProbeOutcome run_aes_flush_channel(sim::Machine& machine, ProcId victim,
                                   crypto::SimAes& aes, std::size_t samples,
                                   rng::Rng& pt_rng, const FlushConfig& config,
                                   bool time_flush) {
  const cache::Geometry& geo = machine.hierarchy().l1d().geometry();
  const std::uint32_t line_bytes = geo.line_bytes();
  const std::uint32_t entries_per_line = line_bytes / 4;
  const std::uint32_t lines_per_table =
      crypto::SimAesLayout::kTableBytes / line_bytes;
  const std::uint32_t monitored = 4 * lines_per_table;
  const std::size_t line_classes = lines_per_table;
  ProbeOutcome out(monitored, line_classes);
  out.profile.reserve(samples);

  // Monitored line m covers table (m / lines_per_table), line offset
  // (m % lines_per_table) - the victim's own table addresses (shared
  // memory; the whole point of the flush channel).
  std::vector<Addr> addr(monitored);
  for (std::uint32_t m = 0; m < monitored; ++m) {
    addr[m] = aes.layout().tables +
              static_cast<Addr>(m / lines_per_table) *
                  crypto::SimAesLayout::kTableBytes +
              static_cast<Addr>(m % lines_per_table) * line_bytes;
  }

  // Everything - flushes, reloads, the victim's encryptions - runs under
  // the victim's process context: placement randomization is in frame.
  machine.set_process(victim);
  machine.instr(config.attacker_code);

  // Calibrate the two baselines against lines whose state the attacker
  // controls: a flush of a just-flushed line is the absent-flush cost, a
  // reload of a just-loaded line is the hit cost.  Timing defenses that
  // quantize these into the touched-line costs erase the thresholds - and
  // with them the channel.
  machine.flush_line(config.attacker_code, addr[0]);
  Cycles t0 = machine.now();
  machine.flush_line(config.attacker_code, addr[0]);
  const Cycles absent_flush = machine.now() - t0;
  machine.load(config.attacker_code, addr[0]);
  machine.load(config.attacker_code, addr[0]);
  t0 = machine.now();
  machine.load(config.attacker_code, addr[0]);
  const Cycles hit_load = machine.now() - t0;
  machine.flush_line(config.attacker_code, addr[0]);

  // Ground-truth diagnostic (mirrors Prime+Probe's): byte 2's round-1
  // lookup touches table 2 at line (pt[2] ^ key[2]) / entries_per_line.
  const std::uint8_t key2 = aes.key()[2];
  const std::uint32_t table2_base = 2 * lines_per_table;

  std::vector<std::uint32_t> touched(monitored);
  for (std::size_t trial = 0; trial < samples; ++trial) {
    // Flush phase: evict every monitored line (state reset - both probe
    // variants leave the lines absent, so trials start identical).
    for (std::uint32_t m = 0; m < monitored; ++m) {
      machine.flush_line(config.attacker_code, addr[m]);
    }

    const crypto::Block pt = crypto::random_block(pt_rng);
    (void)aes.encrypt(pt);

    // Probe phase.  Re-warm the probe-loop code line first so a stale
    // fetch is never charged to the first timed operation.
    machine.instr(config.attacker_code);
    for (std::uint32_t m = 0; m < monitored; ++m) {
      t0 = machine.now();
      if (time_flush) {
        machine.flush_line(config.attacker_code, addr[m]);
        touched[m] = machine.now() - t0 > absent_flush ? 1 : 0;
      } else {
        machine.load(config.attacker_code, addr[m]);
        touched[m] = machine.now() - t0 <= hit_load ? 1 : 0;
      }
    }
    out.profile.add(pt, touched);

    const std::uint32_t line_class =
        static_cast<std::uint32_t>(pt[2] ^ key2) / entries_per_line;
    std::size_t witness = line_classes;  // "no table-2 line seen touched"
    for (std::uint32_t c = 0; c < lines_per_table; ++c) {
      if (touched[table2_base + c] != 0) {
        witness = c;
        break;
      }
    }
    out.channel.add(line_class, witness);
  }
  return out;
}

}  // namespace

ProbeOutcome run_aes_flush_reload(sim::Machine& machine, ProcId victim,
                                  crypto::SimAes& aes, std::size_t samples,
                                  rng::Rng& pt_rng,
                                  const FlushConfig& config) {
  return run_aes_flush_channel(machine, victim, aes, samples, pt_rng, config,
                               /*time_flush=*/false);
}

ProbeOutcome run_aes_flush_flush(sim::Machine& machine, ProcId victim,
                                 crypto::SimAes& aes, std::size_t samples,
                                 rng::Rng& pt_rng, const FlushConfig& config) {
  return run_aes_flush_channel(machine, victim, aes, samples, pt_rng, config,
                               /*time_flush=*/true);
}

}  // namespace tsc::attack
