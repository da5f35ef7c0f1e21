// A compact Bernstein attack, end to end: profile a victim with a secret
// key, profile an attacker copy with a known key, correlate, and see how
// much of the key leaks - then watch TSCache shut it down.
//
//   $ ./examples/attack_demo
#include <cstdio>

#include "core/campaign.h"

int main() {
  using namespace tsc;

  std::printf("Bernstein attack demo (40k samples/side - the full-scale\n"
              "experiment is tsc_run --experiment fig5)\n\n");

  core::CampaignConfig cfg;
  cfg.samples = 40'000;
  cfg.hyperperiod_jobs = std::uint64_t{1} << 30;  // one epoch at this scale

  for (const core::SetupKind kind :
       {core::SetupKind::kDeterministic, core::SetupKind::kTsCache}) {
    // A paper setup is a point of the platform axis: placement policy x
    // seed policy (TSCache = random-modulo + per-process reseeding).
    const core::CampaignResult r =
        core::run_bernstein_campaign(core::paper_platform(kind), cfg);
    std::printf("--- %s ---\n", core::to_string(kind).c_str());
    std::printf("victim key     : ");
    for (int i = 0; i < 16; ++i) std::printf("%02x ", r.victim.key[i]);
    std::printf("\nbest guesses   : ");
    for (int i = 0; i < 16; ++i) {
      std::printf("%02x ", r.attack.bytes[i].ranking[0]);
    }
    std::printf("\ntrue-byte rank : ");
    for (int i = 0; i < 16; ++i) {
      std::printf("%4d", r.attack.bytes[i].true_rank);
    }
    std::printf("\nkey bits determined: %.1f   remaining search space: 2^%.1f\n"
                "practical effective strength: 2^%.1f\n\n",
                r.attack.bits_determined(), r.attack.log2_remaining_keyspace(),
                r.attack.effective_log2_keyspace());
  }

  std::printf("Ranks near 0 mean the attack pinned the byte's cache line\n"
              "(the low 3 bits inside a 32B line are never observable).\n"
              "On TSCache the ranks are uniform noise and the effective\n"
              "strength stays at 2^128.\n");
  return 0;
}
