// Tests for the sharded campaign engine: thread-pool semantics (ordering,
// exception propagation), deterministic shard planning, the bit-identity of
// merged campaign results across worker counts, and the JSON writer the CI
// determinism checks depend on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/experiment.h"
#include "runner/json.h"
#include "runner/sharded.h"
#include "runner/thread_pool.h"

namespace tsc::runner {
namespace {

const core::Platform kMbptaCache =
    core::paper_platform(core::SetupKind::kMbptaCache);

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  for (const unsigned workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    const std::vector<int> out =
        parallel_map(pool, 64, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 64u) << "workers=" << workers;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
  }
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  auto ok = pool.submit([] { return 7; });
  EXPECT_EQ(ok.get(), 7);
}

TEST(ThreadPoolTest, ParallelMapRethrowsLowestIndexException) {
  ThreadPool pool(4);
  try {
    (void)parallel_map(pool, 16, [](std::size_t i) -> int {
      if (i == 3) throw std::runtime_error("first");
      if (i == 11) throw std::logic_error("second");
      return static_cast<int>(i);
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolTest, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

// Shutdown semantics under throwing tasks - the fault-tolerant campaign
// runner leans on all three properties: queued tasks still drain, no future
// is left unready (abandoned), and destruction cannot deadlock.
TEST(ThreadPoolTest, DestructorDrainsQueueEvenWhenTasksThrow) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([&ran, i] {
        if (i % 8 == 3) throw std::runtime_error("injected");
        ++ran;
      }));
    }
    // The destructor runs with most tasks still queued; it must execute
    // them all (returning from this scope at all also proves no deadlock).
  }
  int threw = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "destructor abandoned a queued task's future";
    try {
      future.get();
    } catch (const std::runtime_error&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw, 8);
  EXPECT_EQ(ran.load(), 56);
}

TEST(ThreadPoolTest, DestructionSurvivesEveryTaskThrowing) {
  std::vector<std::future<void>> futures;
  {
    ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      futures.push_back(
          pool.submit([]() -> void { throw std::logic_error("all fail"); }));
    }
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_THROW(future.get(), std::logic_error);
  }
}

TEST(ShardPlanTest, SplitsSampleBudgetExactly) {
  core::CampaignConfig base;
  base.samples = 10'500;
  const auto shards = plan_shards(base, 4000);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].samples, 4000u);
  EXPECT_EQ(shards[1].samples, 4000u);
  EXPECT_EQ(shards[2].samples, 2500u);
}

TEST(ShardPlanTest, ShardsShareTheDeploymentAndSplitOnlyInputs) {
  core::CampaignConfig base;
  base.samples = 100'000;
  base.master_seed = 2018;
  const auto a = plan_shards(base, 25'000);
  const auto b = plan_shards(base, 25'000);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The deployment - master seed (hence layouts, per-process cache
    // seeds, the victim key) and the victim binary's noise pattern - is
    // shared by every shard; rewriting it per shard would destroy the
    // stable-layout leaks (MBPTACache/RPCache) fig5 exists to measure.
    EXPECT_EQ(a[i].master_seed, base.master_seed);
    EXPECT_EQ(a[i].noise_pattern_seed, base.noise_pattern_seed);
    // What does vary: the plaintext stream and the job window.
    EXPECT_EQ(a[i].plaintext_stream, b[i].plaintext_stream)
        << "plan must be pure";
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(a[i].plaintext_stream, a[j].plaintext_stream);
    }
    EXPECT_EQ(a[i].job_offset, i * 25'000);
  }
  EXPECT_EQ(a[0].plaintext_stream, base.plaintext_stream)
      << "shard 0 must reproduce the unsharded campaign";
}

TEST(ShardPlanTest, PlaintextStreamSchemeIsSplittable) {
  EXPECT_EQ(shard_plaintext_stream(1, 0), 1u);
  EXPECT_NE(shard_plaintext_stream(1, 1), shard_plaintext_stream(1, 2));
  EXPECT_NE(shard_plaintext_stream(1, 1), shard_plaintext_stream(2, 1));
  EXPECT_EQ(shard_plaintext_stream(42, 7), shard_plaintext_stream(42, 7));
}

// A single-shard run must reproduce core::run_bernstein_campaign exactly -
// the engine adds concurrency, never new semantics.  kMbptaCache exercises
// the shared-layout derivation path, the one a seed-rewriting planner
// would corrupt.
TEST(ShardedCampaignTest, SingleShardMatchesLegacyCampaignBitExactly) {
  core::CampaignConfig legacy_cfg;
  legacy_cfg.samples = 1500;
  legacy_cfg.warmup = 64;
  const core::CampaignResult legacy =
      core::run_bernstein_campaign(kMbptaCache, legacy_cfg);

  ShardedConfig config;
  config.base = legacy_cfg;
  config.shard_size = 1500;  // one shard
  config.workers = 2;
  const ShardedCampaignResult sharded =
      run_sharded_bernstein(kMbptaCache, config);

  ASSERT_EQ(sharded.shard_count, 1u);
  EXPECT_EQ(sharded.victim.key, legacy.victim.key);
  EXPECT_EQ(sharded.victim.profile.samples(), legacy.victim.profile.samples());
  EXPECT_EQ(sharded.victim.profile.global_mean(),
            legacy.victim.profile.global_mean());
  EXPECT_EQ(sharded.attacker.profile.global_mean(),
            legacy.attacker.profile.global_mean());
  for (int pos = 0; pos < 16; ++pos) {
    for (int v = 0; v < 256; ++v) {
      EXPECT_EQ(sharded.victim.profile.cell_mean(pos, v),
                legacy.victim.profile.cell_mean(pos, v));
      EXPECT_EQ(
          sharded.attack.bytes[static_cast<std::size_t>(pos)]
              .correlation[static_cast<std::size_t>(v)],
          legacy.attack.bytes[static_cast<std::size_t>(pos)]
              .correlation[static_cast<std::size_t>(v)]);
    }
  }
}

// The engine's core promise: the merged Bernstein correlation is a pure
// function of (config, shard_size); the worker count (1, 2 or 8) changes
// wall-clock only.  Integer-cycle sums make the merge exact, so we can
// demand full bit-identity, serialized JSON included.
TEST(ShardedCampaignTest, MergedResultBitIdenticalAcrossWorkerCounts) {
  ShardedConfig config;
  config.base.samples = 3000;
  config.base.warmup = 64;
  config.shard_size = 1000;

  std::vector<std::string> dumps;
  std::vector<double> correlations;
  for (const unsigned workers : {1u, 2u, 8u}) {
    config.workers = workers;
    // kMbptaCache: the shared-layout setup, where any worker-dependent or
    // shard-dependent seeding mistake shows up as diverging profiles.
    const ShardedCampaignResult r =
        run_sharded_bernstein(kMbptaCache, config);
    EXPECT_EQ(r.shard_count, 3u);
    EXPECT_EQ(r.victim.profile.samples(), 3000u);
    EXPECT_EQ(r.attacker.profile.samples(), 3000u);

    Json doc = Json::object();
    Json corr = Json::array();
    for (int pos = 0; pos < 16; ++pos) {
      const auto& byte = r.attack.bytes[static_cast<std::size_t>(pos)];
      for (int v = 0; v < 256; ++v) {
        corr.push(byte.correlation[static_cast<std::size_t>(v)]);
      }
    }
    doc.set("victim_mean", r.victim.profile.global_mean())
        .set("victim_time_mean", r.victim.time_stats.mean())
        .set("victim_time_var", r.victim.time_stats.variance())
        .set("bits", r.attack.bits_determined())
        .set("correlations", std::move(corr));
    dumps.push_back(doc.dump());
    correlations.push_back(r.attack.bytes[0].correlation[0]);
  }
  ASSERT_EQ(dumps.size(), 3u);
  EXPECT_EQ(dumps[0], dumps[1]) << "1 vs 2 workers";
  EXPECT_EQ(dumps[0], dumps[2]) << "1 vs 8 workers";
  EXPECT_EQ(correlations[0], correlations[1]);
  EXPECT_EQ(correlations[0], correlations[2]);
}

TEST(ShardedCampaignTest, VictimSideMergeCountsAllSamples) {
  ShardedConfig config;
  config.base.samples = 2200;
  config.base.warmup = 32;
  config.shard_size = 1000;
  config.workers = 2;
  const crypto::Key key{};
  const MergedSide side =
      run_sharded_victim(core::paper_platform(core::SetupKind::kTsCache),
                         config, 1, key);
  EXPECT_EQ(side.profile.samples(), 2200u);
  EXPECT_EQ(side.time_stats.count(), 2200u);
  EXPECT_GT(side.time_stats.mean(), 0.0);
  EXPECT_LE(side.time_stats.min(), side.time_stats.max());
}

TEST(ExperimentRegistryTest, KnownNamesResolve) {
  EXPECT_NE(find_experiment("fig1"), nullptr);
  EXPECT_NE(find_experiment("fig5"), nullptr);
  EXPECT_NE(find_experiment("ablation_seedpolicy"), nullptr);
  EXPECT_EQ(find_experiment("nope"), nullptr);
  EXPECT_GE(all_experiments().size(), 11u);
}

TEST(RunOptionsTest, SampleResolutionPrecedence) {
  RunOptions options;
  options.samples = 123;
  EXPECT_EQ(options.resolve_samples(1000), 123u);
  options.samples = 0;
  options.fast = true;
  // TSC_SAMPLES may be set in the environment of a bench run, but tests run
  // without it; fast mode divides the standard scale by 8.
  if (std::getenv("TSC_SAMPLES") == nullptr) {
    EXPECT_EQ(options.resolve_samples(1000), 125u);
  }
}

TEST(JsonTest, CompactSerializationShapes) {
  Json doc = Json::object();
  doc.set("int", 42)
      .set("neg", -7)
      .set("truth", true)
      .set("name", "tsc\"quote")
      .set("null", Json());
  Json arr = Json::array();
  arr.push(1).push(2.5).push("x");
  doc.set("arr", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"int\":42,\"neg\":-7,\"truth\":true,\"name\":\"tsc\\\"quote\","
            "\"null\":null,\"arr\":[1,2.5,\"x\"]}");
}

TEST(JsonTest, LargeUnsignedValuesStayUnsigned) {
  // Seeds are full-range uint64; they must never serialize as negatives.
  Json doc = Json::object();
  doc.set("seed", std::uint64_t{18'446'744'073'709'551'615ULL})
      .set("cycles", std::uint64_t{1} << 63);
  EXPECT_EQ(doc.dump(),
            "{\"seed\":18446744073709551615,\"cycles\":9223372036854775808}");
}

TEST(JsonTest, DoubleRoundTripIsBitExact) {
  const double values[] = {0.1, 1.0 / 3.0, 123456789.123456789, -0.0, 1e-300};
  for (const double v : values) {
    Json j(v);
    const std::string s = j.dump();
    EXPECT_EQ(std::stod(s), v) << s;
  }
  // Non-finite values serialize as null (JSON has no NaN).
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(JsonTest, PrettyPrintIndents) {
  Json doc = Json::object();
  doc.set("a", 1);
  EXPECT_EQ(doc.dump(2), "{\n  \"a\": 1\n}\n");
}

}  // namespace
}  // namespace tsc::runner
