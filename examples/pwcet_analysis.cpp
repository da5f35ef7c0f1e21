// MBPTA from measurement to pWCET, end to end, on a real program: a TSISA
// buffer-scan kernel whose working set exceeds the L1, run once per random
// cache layout.  (A kernel that fits L1 costs only compulsory misses, has
// literally constant timing, and gives MBPTA nothing to model - run the
// experiment with a small kernel and the i.i.d. gate will tell you so.)
//
//   $ ./examples/pwcet_analysis
#include <cstdio>
#include <vector>

#include "core/policy.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"

int main() {
  using namespace tsc;

  std::printf("MBPTA walkthrough: pWCET of a 32KB sensor-buffer scan\n\n");

  // The kernel is recorded once; a run replays its first pass on a fresh
  // machine, the same cycles as interpreting it there.
  const isa::KernelPasses passes = isa::record_passes(
      isa::assemble(isa::stride_walk_source(0x40000, 8192, 64, 32 * 1024),
                    0x1000),
      0x1000);

  constexpr unsigned kRuns = 500;
  std::vector<double> times;
  times.reserve(kRuns);

  for (unsigned r = 0; r < kRuns; ++r) {
    // MBPTA protocol (paper section 2.1): every run observes a fresh random
    // cache layout, making analysis-time measurements probabilistically
    // representative of any deployment-time memory placement.
    const auto machine = core::build_machine(
        {core::paper_platform(core::SetupKind::kTsCache),
         rng::derive_seed(99, r)},
        {ProcId{1}});
    machine->set_process(ProcId{1});
    const Cycles start = machine->now();
    machine->replay(passes.warm);
    times.push_back(static_cast<double>(machine->now() - start));
  }

  const mbpta::AnalysisReport report = mbpta::analyze(times);
  std::printf("%s\n", mbpta::render_report(report).c_str());

  if (report.mbpta_applicable()) {
    std::printf("Timing budget suggestion: with a budget of %.0f cycles the\n"
                "per-run overrun probability is below 1e-10 - the evidence\n"
                "level safety arguments (ISO-26262) build on.\n",
                report.pwcet(1e-10));
  }
  return 0;
}
