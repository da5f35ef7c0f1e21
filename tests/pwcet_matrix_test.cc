// Tests for the pWCET building blocks: the fixed MBPTA slice plan
// (shard-size invariance of the per-run protocols), the policy-machine
// timing behaviour the matrix verdicts rest on - the deterministic platform
// must be layout-locked (constant per-run times) while the MBPTA-style
// randomized platforms produce analyzable variation - and the committed
// pwcet_exceedance plotting artifact.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"
#include "runner/experiment.h"
#include "stats/tests.h"

namespace tsc::runner {
namespace {

/// The matrix's per-run protocol: fresh machine, fresh layout, timed second
/// pass of a 20KB vector sum.
double kernel_time(core::PlacementPolicy policy, std::uint64_t cell_seed,
                   std::size_t run) {
  const auto machine = core::build_policy_machine(
      policy, rng::derive_seed(cell_seed, run), /*partitioned=*/false);
  machine->set_process(core::kMatrixVictim);
  isa::Interpreter interp(*machine);
  interp.load_program(
      isa::assemble(isa::vector_sum_source(0x40000, 5120), 0x1000));
  (void)interp.run(0x1000);
  return static_cast<double>(interp.run(0x1000).cycles);
}

std::string run_json(const std::string& name, std::size_t samples,
                     std::size_t shard_size, unsigned workers) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr) << name;
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = workers;
  return run_experiment(*experiment, options).json;
}

std::string read_fixture(const std::string& relative) {
  std::ifstream in(std::string(TSC_SOURCE_DIR) + "/" + relative,
                   std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_FALSE(buf.str().empty()) << "missing fixture " << relative;
  return buf.str();
}

TEST(MbptaSlicePlan, FixedPlanIsInvariantToShardSize) {
  // Run r of the MBPTA protocol measures under a seed derived from r
  // alone, so every slice plan must concatenate to the same sample, bit
  // for bit: fig1's 400 runs in slices of 1, 7, 64 and 400, and in one
  // slice far larger than the budget, all print the committed fixture.
  const std::string expected =
      read_fixture("tests/golden/paper/fig1_s200_ss100.json");
  for (const std::size_t shard_size : {1u, 7u, 64u, 400u, 25'000u}) {
    EXPECT_EQ(run_json("fig1", 200, shard_size, 3), expected)
        << "shard_size=" << shard_size;
  }
}

TEST(MbptaSlicePlan, ZeroShardSizeClampsToOneRunPerSlice) {
  // sec622's four setups at a tiny budget: the zero shard size clamps to
  // one-run slices, which must merge to the single-slice sample.
  EXPECT_EQ(run_json("sec622", 60, 0, 2), run_json("sec622", 60, 60, 2));
}

TEST(PwcetMatrixProtocol, ModuloPlatformIsLayoutLocked) {
  // Same binary, deterministic placement: every run of the protocol takes
  // exactly the same time regardless of the per-run seed - the
  // "degenerate" verdict of the matrix, and the paper's composability
  // argument against deterministic caches.
  const double first = kernel_time(core::PlacementPolicy::kModulo, 99, 0);
  for (std::size_t r = 1; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(kernel_time(core::PlacementPolicy::kModulo, 99, r),
                     first);
  }
}

TEST(PwcetMatrixProtocol, RpCachePermutationPreservesConflicts) {
  // RPCache permutes SET LABELS per process; lines that conflicted under
  // modulo still conflict after relabelling, so single-process timing stays
  // constant run to run.  (Its security value is against a co-located
  // attacker, not timing variability - exactly what the tradeoff table
  // records.)
  const double first = kernel_time(core::PlacementPolicy::kRpCache, 17, 0);
  for (std::size_t r = 1; r < 6; ++r) {
    EXPECT_DOUBLE_EQ(kernel_time(core::PlacementPolicy::kRpCache, 17, r),
                     first);
  }
}

TEST(PwcetMatrixProtocol, RandomizedPlatformsPassTheIidGate) {
  for (const core::PlacementPolicy policy :
       {core::PlacementPolicy::kHashRp, core::PlacementPolicy::kRandomModulo}) {
    ASSERT_TRUE(core::randomized(policy));
    std::vector<double> times;
    for (std::size_t r = 0; r < 120; ++r) {
      times.push_back(kernel_time(policy, 7, r));
    }
    bool varies = false;
    for (const double t : times) varies = varies || t != times.front();
    ASSERT_TRUE(varies) << core::to_string(policy);
    const stats::IidVerdict v = stats::iid_check(times, 20);
    EXPECT_TRUE(v.independence.passed(0.01))
        << core::to_string(policy) << " p=" << v.independence.p_value;
    EXPECT_TRUE(v.identical.passed(0.01))
        << core::to_string(policy) << " p=" << v.identical.p_value;
  }
}

TEST(PwcetMatrixProtocol, RandomizedBoundIsStableAcrossPrefixes) {
  std::vector<double> times;
  for (std::size_t r = 0; r < 200; ++r) {
    times.push_back(kernel_time(core::PlacementPolicy::kHashRp, 7, r));
  }
  mbpta::AnalysisConfig cfg;
  cfg.min_runs = 100;
  cfg.block = 10;
  cfg.tail = stats::TailModel::kGumbelBlockMaxima;
  const mbpta::ConvergenceCurve curve =
      mbpta::pwcet_convergence(times, cfg, 1e-10, 6, 0.10);
  ASSERT_GE(curve.points.size(), 3u);
  EXPECT_GT(curve.final_bound(), *std::max_element(times.begin(), times.end()));
}

TEST(PwcetExceedance, MatchesFixtureAndIsWellFormed) {
#ifndef NDEBUG
  // The floor is 120 runs x 70 cells; minutes under Debug/ASan.  The
  // Release CI jobs carry this contract.
  GTEST_SKIP() << "pwcet_exceedance runs in Release builds only";
#endif
  // One run against the fixture; worker-count invariance is CI's --shards
  // 1 vs --shards 8 step, which compares both against the same fixture.
  const std::string json = run_json("pwcet_exceedance", 120, 40, 0);
  EXPECT_EQ(json, read_fixture("tests/golden/pwcet_exceedance_s120_ss40.json"));
  // The plotting contract: empirical tails everywhere, fitted + extrapolated
  // curves on at least one applicable cell, both tail models present.
  EXPECT_NE(json.find("\"empirical\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"applicable\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"degenerate\""), std::string::npos);
  EXPECT_NE(json.find("\"fitted\""), std::string::npos);
  EXPECT_NE(json.find("\"extrapolated\""), std::string::npos);
  EXPECT_NE(json.find("\"gumbel_block_maxima\""), std::string::npos);
  EXPECT_NE(json.find("\"gpd_pot\""), std::string::npos);
}

TEST(PolicyHelpers, RandomizedClassifiesDeterministicPlatforms) {
  // The two platforms with no timing randomness to model: modulo (one
  // fixed layout) and timecache (quantization, layout-independent cost).
  EXPECT_FALSE(core::randomized(core::PlacementPolicy::kModulo));
  EXPECT_FALSE(core::randomized(core::PlacementPolicy::kTimeCache));
  EXPECT_TRUE(core::randomized(core::PlacementPolicy::kHashRp));
  EXPECT_TRUE(core::randomized(core::PlacementPolicy::kRpCache));
  EXPECT_TRUE(core::randomized(core::PlacementPolicy::kRandomModulo));
  EXPECT_TRUE(core::randomized(core::PlacementPolicy::kClepsydra));
  EXPECT_TRUE(core::randomized(core::PlacementPolicy::kRandomAndSafe));
}

}  // namespace
}  // namespace tsc::runner
