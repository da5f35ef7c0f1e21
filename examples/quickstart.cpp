// Quickstart: build the paper's platform, run a workload under each cache
// design, and look at the numbers that drive the whole paper - hit rates,
// timing, and what a seed change does.
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

#include "core/policy.h"

int main() {
  using namespace tsc;

  std::printf("TSCache quickstart: the four setups of the DAC'18 paper\n");
  std::printf("platform: 16KB/128x4 L1I+L1D, 256KB/2048x4 L2 (ARM920T-like)\n\n");

  constexpr ProcId kTask{1};

  std::printf("%-14s %12s %12s %14s\n", "setup", "cycles", "L1D-miss%",
              "cycles-after-reseed");
  for (const core::SetupKind kind : core::all_setups()) {
    // Each setup is a platform - placement policy x seed policy - built
    // with the task's initial seed installed.
    const auto machine =
        core::build_machine({core::paper_platform(kind), /*seed=*/42}, {kTask});
    sim::Machine& m = *machine;
    m.set_process(kTask);

    // A toy task: walk 24KB of data three times (capacity pressure in L1),
    // with some compute in between.
    const auto run_task = [&m] {
      const Cycles start = m.now();
      for (int pass = 0; pass < 3; ++pass) {
        for (Addr a = 0; a < 24 * 1024; a += 32) {
          m.load(0x1000, 0x100000 + a);
        }
        m.instr_block(0x2000, 64);
      }
      return m.now() - start;
    };

    (void)run_task();  // warm-up
    const Cycles warm = run_task();
    const double miss_rate = m.hierarchy().l1d().stats().miss_rate();

    // Change the placement seed (what TSCache's OS does at hyperperiod
    // boundaries) and flush - then measure again: the layout is new, the
    // timing is re-randomized, and nothing about the task had to change.
    m.set_seed(kTask, Seed{0xFEED});
    m.flush_caches();
    const Cycles reseeded = run_task();

    std::printf("%-14s %12llu %11.1f%% %14llu\n",
                core::to_string(kind).c_str(),
                static_cast<unsigned long long>(warm), 100.0 * miss_rate,
                static_cast<unsigned long long>(reseeded));
  }

  std::printf(
      "\nReading the table: the deterministic cache's timing is a fixed\n"
      "function of the memory layout; the randomized designs (MBPTACache,\n"
      "TSCache) draw a fresh layout from the seed, so timing varies across\n"
      "reseeds but stays statistically well-behaved - that is what MBPTA\n"
      "needs, and per-process seeds are what the attacker cannot cross.\n");
  return 0;
}
