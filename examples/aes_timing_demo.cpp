// AES timing histograms: watch the side channel appear and disappear.
//
// Runs the instrumented AES-128 on the deterministic cache and on TSCache,
// prints the encryption-time histogram of each, and shows the per-input-byte
// timing spread that Bernstein's attack feeds on.
//
//   $ ./examples/aes_timing_demo
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/campaign.h"
#include "stats/descriptive.h"
#include "stats/histogram.h"

int main() {
  using namespace tsc;

  std::printf("AES-128 on the simulated hierarchy: timing distributions\n\n");

  core::CampaignConfig cfg;
  cfg.samples = 30'000;
  crypto::Key key{};
  for (int i = 0; i < 16; ++i) key[i] = static_cast<std::uint8_t>(17 * i + 3);

  for (const core::SetupKind kind :
       {core::SetupKind::kDeterministic, core::SetupKind::kTsCache}) {
    const core::SideResult side =
        core::run_victim_side(core::paper_platform(kind), cfg, 1, key);

    const double lo = stats::quantile(side.timings, 0.001);
    const double hi = stats::quantile(side.timings, 0.999);
    stats::Histogram hist(lo, hi + 1, 12);
    hist.add_all(side.timings);

    std::printf("--- %s ---\n", core::to_string(kind).c_str());
    std::printf("%s", hist.render(40).c_str());

    // The attacker's view: how much the mean time moves with one input byte.
    double worst = 0;
    int worst_pos = 0;
    for (int pos = 0; pos < 16; ++pos) {
      for (int v = 0; v < 256; ++v) {
        const double d = std::fabs(side.profile.deviation(pos, v));
        if (d > worst) {
          worst = d;
          worst_pos = pos;
        }
      }
    }
    std::printf("largest per-value mean shift: %.2f cycles (input byte %d)\n\n",
                worst, worst_pos);
  }

  std::printf(
      "The deterministic histogram is narrow but its per-value shifts are\n"
      "stable and exploitable; TSCache's distribution is wider (randomized\n"
      "layouts) yet carries no reproducible per-value structure - exactly\n"
      "the trade the paper formalizes.\n");
  return 0;
}
