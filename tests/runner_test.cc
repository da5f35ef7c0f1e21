// Tests for the campaign engine: thread-pool semantics (ordering,
// exception propagation), the Bernstein shard plan, the bit-identity of the
// merged Bernstein stage across worker counts, and the JSON writer the CI
// determinism checks depend on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "runner/experiment.h"
#include "runner/json.h"
#include "runner/thread_pool.h"
#include "stats/descriptive.h"

namespace tsc::runner {
namespace {

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
  const auto shards = core::plan_shards(base, 4000);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].samples, 4000u);
  EXPECT_EQ(shards[1].samples, 4000u);
  EXPECT_EQ(shards[2].samples, 2500u);
}

TEST(ShardPlanTest, ShardsShareTheDeploymentAndSplitOnlyInputs) {
  core::CampaignConfig base;
  base.samples = 100'000;
  base.master_seed = 2018;
  const auto a = core::plan_shards(base, 25'000);
  const auto b = core::plan_shards(base, 25'000);
  ASSERT_EQ(a.size(), 4u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    // The deployment - master seed (hence layouts, per-process cache
    // seeds, the victim key) - is shared by every shard; rewriting it per
    // shard would destroy the stable-layout leaks (MBPTACache/RPCache) fig5
    // exists to measure.  (The victim binary's noise pattern is a constant
    // of the campaign, so no shard can rewrite it.)
    EXPECT_EQ(a[i].master_seed, base.master_seed);
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
  using core::shard_plaintext_stream;
  EXPECT_EQ(shard_plaintext_stream(1, 0), 1u);
  EXPECT_NE(shard_plaintext_stream(1, 1), shard_plaintext_stream(1, 2));
  EXPECT_NE(shard_plaintext_stream(1, 1), shard_plaintext_stream(2, 1));
  EXPECT_EQ(shard_plaintext_stream(42, 7), shard_plaintext_stream(42, 7));
}

// --- the Bernstein stage, through the experiments that declare it ----------

/// Run experiment `name` in process, as `tsc_run --json` does.
std::string run_json(const std::string& name, std::size_t samples,
                     std::size_t shard_size, unsigned workers) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr) << name;
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = workers;
  const ExperimentRun run = run_experiment(*experiment, options);
  EXPECT_EQ(run.exit_code, kExitOk) << name;
  return run.json;
}

/// `"key":value` exactly as the compact JSON writer prints it.
std::string json_field(const std::string& key, const Json& value) {
  return "\"" + key + "\":" + value.dump();
}

// A single-shard stage must reproduce core::run_bernstein_campaign exactly -
// the stage adds concurrency, never new semantics.  Every fig5 row is
// checked, MBPTACache's shared-layout derivation included (the path a
// seed-rewriting planner would corrupt): merged time statistics, keyspace
// and every byte's correlations, bit for bit.
TEST(BernsteinStageTest, SingleShardMatchesLegacyCampaignBitExactly) {
  const std::string json = run_json("fig5", 1500, 1500, /*workers=*/2);
  core::CampaignConfig config;
  config.samples = 1500;
  for (const core::SetupKind kind : core::all_setups()) {
    const core::CampaignResult legacy =
        core::run_bernstein_campaign(core::paper_platform(kind), config);
    stats::Descriptive victim;
    stats::Descriptive attacker;
    for (const double t : legacy.victim.timings) victim.add(t);
    for (const double t : legacy.attacker.timings) attacker.add(t);
    const std::string row =
        json_field("setup", core::to_string(kind)) + "," +
        json_field("samples_per_side", legacy.victim.profile.samples()) +
        "," + json_field("shards", std::uint64_t{1}) + "," +
        json_field("victim_mean_cycles", victim.mean()) + "," +
        json_field("victim_stddev_cycles", victim.stddev()) + "," +
        json_field("attacker_mean_cycles", attacker.mean()) +
        ",\"attack\":{" +
        json_field("bits_determined", legacy.attack.bits_determined()) + "," +
        json_field("log2_remaining_keyspace",
                   legacy.attack.log2_remaining_keyspace());
    const std::size_t at = json.find(row);
    ASSERT_NE(at, std::string::npos) << core::to_string(kind) << ": " << row;
    const std::string rest = json.substr(at);
    for (std::size_t pos = 0; pos < 16; ++pos) {
      const attack::ByteAttackResult& byte = legacy.attack.bytes[pos];
      EXPECT_NE(rest.find(json_field("best_correlation",
                                     byte.correlation[byte.ranking[0]]) +
                          "," +
                          json_field("truth_correlation",
                                     byte.correlation[legacy.attack
                                                          .victim_key[pos]])),
                std::string::npos)
          << core::to_string(kind) << " byte " << pos;
    }
  }
}

// fig4's parties are victim-only halves of 2200 samples in shards of 1000,
// 1000 and 200: the merge must count every one of them, in both setups.
TEST(BernsteinStageTest, VictimSideMergeCountsAllSamples) {
  const std::string json = run_json("fig4", 4400, 1000, 2);
  const std::string field = json_field("samples_per_half", std::uint64_t{2200});
  const std::size_t first = json.find(field);
  ASSERT_NE(first, std::string::npos) << json;
  EXPECT_NE(json.find(field, first + 1), std::string::npos) << json;
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
