// Golden bit-identity tests.
//
// tests/golden/fig5_s3000_ss1000.json is the fig5 campaign JSON produced by
// the PRE-refactor implementation (virtual mapper dispatch, hash-map seeds,
// AoS line array) at samples=3000, shard_size=1000.  The optimized hierarchy
// must reproduce it byte for byte, for any worker count: placement results,
// replacement decisions, RNG draw order, timing accounting and JSON
// serialization all have to be exactly preserved.
//
// tests/golden/attack_matrix_s1200_ss400.json pins the attack-matrix
// experiment the same way: the (cell, shard) decomposition, the exact
// integer profile merges and the scoring must yield byte-identical JSON for
// every --shards worker count, and the fixture's headline ordering (modulo
// strictly the most leaky under Prime+Probe) is part of the contract.
//
// tests/golden/pwcet_matrix_s240_ss80.json pins the time-predictability
// dual: the sharded MBPTA sample collection, the i.i.d./fit/convergence
// verdicts and the tradeoff table must be byte-identical for every worker
// count, and the fixture must embed the paper's qualitative claim - the
// deterministic platform never MBPTA-applicable, the randomized platforms
// passing with converged pWCET curves.
//
// If an intentional semantic change ever invalidates a fixture, regenerate
// it with:
//   tsc_run --experiment fig5 --samples 3000 --shard-size 1000 --json
//       > tests/golden/fig5_s3000_ss1000.json
//   tsc_run --experiment attack_matrix --samples 1200 --shard-size 400 --json
//       > tests/golden/attack_matrix_s1200_ss400.json
//   tsc_run --experiment pwcet_matrix --samples 240 --shard-size 80 --json
//       > tests/golden/pwcet_matrix_s240_ss80.json
//   tsc_run --experiment flush_matrix --samples 600 --shard-size 200 --json
//       > tests/golden/flush_matrix_s600_ss200.json
//   tsc_run --experiment ct_audit --samples 1 --shard-size 1 --json
//       > tests/golden/ct_audit.json
//   tsc_run --experiment pwcet_exceedance --samples 120 --shard-size 40 --json
//       > tests/golden/pwcet_exceedance_s120_ss40.json
// (the pwcet_exceedance fixture is compared in pwcet_matrix_test.cc.)
// (each command on one line) and say so loudly in the commit message - this
// file is the contract that performance work does not move simulation
// results.
//
// tests/golden/paper/ pins, at a CI-sized scale, the paper experiments that
// have no golden of their own: every row built from the paper's four setups
// (deterministic, RPCache, MBPTACache, TSCache), including TSCache's
// per-trial reseeds (sec621) and the mid-hyperperiod reseed replay of
// shards that start inside a hyperperiod (ablation_seedpolicy at
// hyperperiods 1 and 64 with 100-run shards), plus the placement-function
// properties (fig2) and the AUTOSAR seed schedule (fig3).  Each fixture is
// checked on 1 and 4 workers.  Regenerate them with, for each EXP in fig1
// fig2 fig3 fig4 sec621 sec622 sec623 ablation_samples ablation_seedpolicy
// ablation_partitioning:
//   tsc_run --experiment EXP --samples 200 --shard-size 100 --json
//       > tests/golden/paper/EXP_s200_ss100.json
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "runner/experiment.h"

namespace tsc::runner {
namespace {

#ifndef TSC_SOURCE_DIR
#error "TSC_SOURCE_DIR must point at the repository root"
#endif

std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(TSC_SOURCE_DIR) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Render an experiment through the same entry point as `tsc_run --json`
/// (compact dump plus trailing newline), so the fixture can be regenerated
/// with the CLI.
std::string run_experiment_json(const std::string& name, std::size_t samples,
                                std::size_t shard_size, unsigned workers) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr);
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = workers;
  const ExperimentRun run = run_experiment(*experiment, options);
  EXPECT_EQ(run.exit_code, kExitOk) << name;
  return run.json;
}

std::string run_fig5_json(unsigned workers) {
  return run_experiment_json("fig5", 3000, 1000, workers);
}

std::string run_attack_matrix_json(unsigned workers) {
  return run_experiment_json("attack_matrix", 1200, 400, workers);
}

TEST(GoldenFig5, MatchesPreRefactorOutputByteForByte) {
  const std::string expected = read_fixture("tests/golden/fig5_s3000_ss1000.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_fig5_json(/*workers=*/2), expected)
      << "optimized hierarchy diverged from the seed implementation";
}

TEST(GoldenFig5, WorkerCountDoesNotChangeOutput) {
  const std::string expected = read_fixture("tests/golden/fig5_s3000_ss1000.json");
  ASSERT_FALSE(expected.empty());
  // The Bernstein stage merges exact integer-cycle sums in shard order, so
  // the worker count changes wall-clock only.
  for (const unsigned workers : {1u, 5u, 8u}) {
    EXPECT_EQ(run_fig5_json(workers), expected)
        << "sharded campaign output must be worker-count invariant ("
        << workers << " workers)";
  }
}

TEST(GoldenAttackMatrix, MatchesCommittedFixtureByteForByte) {
  const std::string expected =
      read_fixture("tests/golden/attack_matrix_s1200_ss400.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_attack_matrix_json(/*workers=*/2), expected)
      << "attack_matrix diverged from the committed fixture";
  // The fixture itself must certify the paper's qualitative ordering.
  EXPECT_NE(expected.find("\"modulo_strictly_most_leaky\":true"),
            std::string::npos)
      << "fixture lost the modulo-most-leaky ordering";
}

TEST(GoldenAttackMatrix, WorkerCountDoesNotChangeOutput) {
  const std::string expected =
      read_fixture("tests/golden/attack_matrix_s1200_ss400.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_attack_matrix_json(/*workers=*/5), expected)
      << "attack_matrix output must be worker-count invariant";
}

TEST(GoldenFlushMatrix, MatchesCommittedFixtureByteForByte) {
  const std::string expected =
      read_fixture("tests/golden/flush_matrix_s600_ss200.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_experiment_json("flush_matrix", 600, 200, /*workers=*/2),
            expected)
      << "flush_matrix diverged from the committed fixture";
  // The fixture itself must certify the flush-channel claims: shared-memory
  // flushes defeat placement randomization AND partitioning, while the
  // observable-side defenses (quantization, random fill) blind the channel
  // and Clepsydra's TTLs are too long to matter.
  for (const char* claim :
       {"\"flush_reload_defeats_placement_randomization\":true",
        "\"partitioning_does_not_stop_flush_reload\":true",
        "\"flush_flush_line_resolves_modulo\":true",
        "\"clepsydra_ttls_outlive_flush_window\":true",
        "\"random_fill_blinds_flush_reload\":true",
        "\"quantization_blinds_flush_channel\":true"}) {
    EXPECT_NE(expected.find(claim), std::string::npos)
        << "fixture lost claim " << claim;
  }
}

TEST(GoldenFlushMatrix, WorkerCountDoesNotChangeOutput) {
  const std::string expected =
      read_fixture("tests/golden/flush_matrix_s600_ss200.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_experiment_json("flush_matrix", 600, 200, /*workers=*/5),
            expected)
      << "flush_matrix output must be worker-count invariant";
}

TEST(GoldenCtAudit, MatchesCommittedFixtureAndCertifiesTheKernels) {
  // The constant-time audit is a pure function of the kernel sources and
  // the secret spec - samples, seed and workers play no role - so any
  // worker count must reproduce the fixture bytes.
  const std::string expected = read_fixture("tests/golden/ct_audit.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_experiment_json("ct_audit", 1, 1, /*workers=*/2), expected)
      << "ct_audit diverged from the committed fixture";
  EXPECT_EQ(run_experiment_json("ct_audit", 1, 1, /*workers=*/5), expected)
      << "ct_audit output must be worker-count invariant";
  // The fixture itself must certify the audit's three claims: the
  // leaky-by-construction kernels are flagged, the clean kernels are
  // certified, and the dynamic oracle never saw a violation the static
  // analyzer missed.
  for (const char* claim : {"\"leaky_kernels_flagged\":true",
                            "\"clean_kernels_certified\":true",
                            "\"static_covers_dynamic\":true"}) {
    EXPECT_NE(expected.find(claim), std::string::npos)
        << "fixture lost claim " << claim;
  }
  // The exact violating instructions are part of the contract: the
  // T-table kernel's secret-indexed lw and the secret-branch kernel's beq.
  EXPECT_NE(expected.find("\"kind\":\"memory_address\""), std::string::npos);
  EXPECT_NE(expected.find("\"kind\":\"branch_condition\""), std::string::npos);
}

TEST(GoldenPwcetMatrix, MatchesFixtureAndAssertsThePapersClaim) {
  // One heavyweight run covers both contracts: byte-identity against the
  // committed fixture at workers=2 (a worker count the fixture was NOT
  // generated with - tsc_run defaults to hardware concurrency - so this is
  // already a worker-invariance check), and the embedded claim booleans.
  // CI's bench-smoke job additionally diffs --shards 1 vs 8.
#ifndef NDEBUG
  // About 11 CPU-seconds (6 s wall on 2 workers) at -O3 on a shared
  // 4-vCPU Xeon; an order of magnitude more under Debug/ASan.
  // The Release jobs (including the explicit -O2/NDEBUG one) carry this
  // contract; the sanitizer job still covers the underlying code paths via
  // the pwcet_matrix/mbpta/gof/evt unit tests.
  GTEST_SKIP() << "pwcet_matrix golden runs in NDEBUG (Release) builds only";
#endif
  const std::string expected =
      read_fixture("tests/golden/pwcet_matrix_s240_ss80.json");
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run_experiment_json("pwcet_matrix", 240, 80, /*workers=*/2),
            expected)
      << "pwcet_matrix diverged from the committed fixture";
  // The fixture itself must certify the paper's qualitative thesis.
  EXPECT_NE(
      expected.find("\"deterministic_modulo_never_mbpta_applicable\":true"),
      std::string::npos)
      << "fixture lost the deterministic-not-applicable verdict";
  EXPECT_NE(
      expected.find("\"randomized_platforms_pass_with_converged_pwcet\":true"),
      std::string::npos)
      << "fixture lost the randomized-converged verdict";
}

class GoldenPaperRow : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenPaperRow, MatchesCommittedFixtureOnOneAndFourWorkers) {
  const std::string name = GetParam();
  const std::string expected =
      read_fixture("tests/golden/paper/" + name + "_s200_ss100.json");
  ASSERT_FALSE(expected.empty());
  for (const unsigned workers : {1u, 4u}) {
    EXPECT_EQ(run_experiment_json(name, 200, 100, workers), expected)
        << name << " diverged from its fixture on " << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSetups, GoldenPaperRow,
    ::testing::Values("fig1", "fig2", "fig3", "fig4", "sec621", "sec622",
                      "sec623", "ablation_samples", "ablation_seedpolicy",
                      "ablation_partitioning"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace tsc::runner
