// Unit tests for the Prime+Probe and Evict+Time primitives
// (attack/contention.h) on small, hand-checkable platforms.
#include <gtest/gtest.h>

#include <memory>

#include "attack/contention.h"
#include "core/policy.h"

namespace tsc::attack {
namespace {

constexpr ProcId kVictim{1};
constexpr ProcId kAttacker{2};

sim::Machine deterministic_machine(std::uint64_t seed = 1) {
  return sim::Machine(
      sim::arm920t_config(cache::MapperKind::kModulo, cache::MapperKind::kModulo,
                          cache::ReplacementKind::kLru),
      std::make_shared<rng::XorShift64Star>(seed));
}

ContentionConfig small_config() {
  ContentionConfig cfg;
  cfg.candidates = 16;
  cfg.trials = 64;
  cfg.calibration_reps = 3;
  return cfg;
}

TEST(PrimeProbe, PerfectOnDeterministicCache) {
  auto m = deterministic_machine();
  rng::XorShift64Star rng(2);
  const ContentionOutcome outcome =
      run_prime_probe(m, kVictim, kAttacker, small_config(), rng, [] {});
  EXPECT_EQ(outcome.trials, 64u);
  EXPECT_EQ(outcome.correct, outcome.trials)
      << "modulo placement + LRU leaks the victim's set deterministically";
}

TEST(EvictTime, PerfectOnDeterministicCache) {
  auto m = deterministic_machine(3);
  rng::XorShift64Star rng(4);
  const ContentionOutcome outcome =
      run_evict_time(m, kVictim, kAttacker, small_config(), rng, [] {});
  EXPECT_EQ(outcome.correct, outcome.trials);
}

TEST(PrimeProbe, ChanceLevelUnderPerTrialReseed) {
  // The TSCache discipline: fresh seeds + flush before every trial.
  const core::Deployment tscache{
      core::paper_platform(core::SetupKind::kTsCache), 99, 0,
      /*hyperperiod_jobs=*/1};
  const auto machine = core::build_machine(tscache, {kVictim, kAttacker});
  std::uint64_t job = 0;
  const TrialHook hook = [&] {
    tscache.before_job(*machine, kVictim, job);
    tscache.before_job(*machine, kAttacker, job);
    ++job;
  };
  rng::XorShift64Star rng(5);
  ContentionConfig cfg = small_config();
  cfg.trials = 128;
  const ContentionOutcome outcome =
      run_prime_probe(*machine, kVictim, kAttacker, cfg, rng, hook);
  // Chance is 1/16; with 128 trials a binomial 99.9% bound is ~20 hits.
  EXPECT_LT(outcome.correct, 21u)
      << "reseeded TSCache must not beat chance meaningfully";
}

TEST(EvictTime, ChanceLevelUnderPerTrialReseed) {
  const core::Deployment tscache{
      core::paper_platform(core::SetupKind::kTsCache), 98, 0,
      /*hyperperiod_jobs=*/1};
  const auto machine = core::build_machine(tscache, {kVictim, kAttacker});
  std::uint64_t job = 0;
  const TrialHook hook = [&] {
    tscache.before_job(*machine, kVictim, job);
    tscache.before_job(*machine, kAttacker, job);
    ++job;
  };
  rng::XorShift64Star rng(6);
  ContentionConfig cfg = small_config();
  cfg.trials = 128;
  const ContentionOutcome outcome =
      run_evict_time(*machine, kVictim, kAttacker, cfg, rng, hook);
  EXPECT_LT(outcome.correct, 21u);
}

TEST(PrimeProbe, RpCacheContentionRuleDefeatsIt) {
  const auto machine = core::build_machine(
      {core::paper_platform(core::SetupKind::kRpCache), 55},
      {kVictim, kAttacker});
  rng::XorShift64Star rng(7);
  ContentionConfig cfg = small_config();
  cfg.trials = 128;
  const ContentionOutcome outcome =
      run_prime_probe(*machine, kVictim, kAttacker, cfg, rng, [] {});
  EXPECT_LT(outcome.correct, 21u)
      << "RPCache randomizes cross-process evictions by design";
}

TEST(ContentionOutcome, AccuracyMath) {
  ContentionOutcome o;
  EXPECT_DOUBLE_EQ(o.accuracy(), 0.0);
  o.trials = 10;
  o.correct = 4;
  EXPECT_DOUBLE_EQ(o.accuracy(), 0.4);
}

TEST(PrimeProbe, TrialHookRunsOncePerTrialIncludingCalibration) {
  auto m = deterministic_machine(8);
  rng::XorShift64Star rng(9);
  ContentionConfig cfg = small_config();
  unsigned hook_calls = 0;
  (void)run_prime_probe(m, kVictim, kAttacker, cfg, rng,
                        [&] { ++hook_calls; });
  EXPECT_EQ(hook_calls, cfg.trials + cfg.calibration_reps * cfg.candidates);
}

}  // namespace
}  // namespace tsc::attack
