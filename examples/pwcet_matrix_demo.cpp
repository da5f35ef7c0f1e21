// The pWCET matrix in miniature: run the MBPTA protocol (fresh machine with
// a fresh random layout per run) for one kernel on the deterministic
// (modulo) platform and on the random-modulo platform, and watch what the
// paper's thesis is made of:
//
//   * modulo        - every run takes exactly the same time.  There is no
//                     distribution to analyze; the "WCET" is hostage to the
//                     one memory layout (mbpta-p1).
//   * random-modulo - per-run times are i.i.d. draws; the tail is fitted
//                     with EVT, checked with Cramér-von Mises / Q-Q, and
//                     the 1e-10 pWCET bound stabilizes as runs accumulate.
//
//   $ ./examples/pwcet_matrix_demo
//
// The full 5 x 4 x 2 matrix plus the security/predictability tradeoff
// table lives in `tsc_run --experiment pwcet_matrix`.
#include <cstdio>
#include <vector>

#include "core/policy.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"

int main() {
  using namespace tsc;

  constexpr int kRuns = 250;
  std::printf("MBPTA on a 20KB vector sum, %d runs per platform\n"
              "(fresh machine + fresh random layout per run, timing the\n"
              " second pass - paper section 2.1)\n\n",
              kRuns);

  // The kernel's warm and timed passes are recorded once; each run replays
  // them on its own machine, as tsc_run's pWCET campaigns do.
  const isa::KernelPasses passes = isa::record_passes(
      isa::assemble(isa::vector_sum_source(0x40000, 5120), 0x1000), 0x1000);

  for (const core::PlacementPolicy policy :
       {core::PlacementPolicy::kModulo, core::PlacementPolicy::kRandomModulo}) {
    std::vector<double> times;
    times.reserve(kRuns);
    for (int r = 0; r < kRuns; ++r) {
      const auto machine = core::build_policy_machine(
          policy, rng::derive_seed(0xD0C5, static_cast<std::uint64_t>(r)),
          /*partitioned=*/false);
      machine->set_process(core::kMatrixVictim);
      times.push_back(static_cast<double>(passes.time(*machine)));
    }

    std::printf("--- %s ---\n", core::to_string(policy).c_str());
    const stats::Summary summary = stats::summarize(times);
    if (summary.stddev == 0) {
      std::printf("every run took exactly %.0f cycles: layout-locked,\n"
                  "nothing to model - MBPTA NOT APPLICABLE\n\n",
                  summary.mean);
      continue;
    }

    mbpta::AnalysisConfig cfg;
    cfg.min_runs = 100;
    cfg.block = 10;
    const mbpta::AnalysisReport report = mbpta::analyze(times, cfg);
    std::printf("%s", mbpta::render_report(report).c_str());

    const mbpta::ConvergenceCurve curve =
        mbpta::pwcet_convergence(times, cfg, 1e-10, 6, 0.10);
    std::printf("pWCET@1e-10 vs sample prefix:");
    for (const mbpta::ConvergencePoint& pt : curve.points) {
      std::printf("  %zu:%.0f", pt.runs, pt.bound);
    }
    std::printf("\nconverged (last 3 within %.0f%% of final): %s\n\n",
                curve.tolerance * 100, curve.converged ? "yes" : "NO");
  }
  return 0;
}
