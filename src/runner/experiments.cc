// The registered experiments: every tsc_run scenario, expressed once as a
// RunOptions -> Json function.  Every experiment that fans out declares
// its stages on the Campaign and reduces once (runner/campaign.h), so it
// checkpoints, resumes and dispatches; each stage's task count is a pure
// function of (samples, seed, shard_size, fast), and every task a pure
// function of its index.  The JSON is therefore a pure function of
// (options.samples, options.master_seed, options.shard_size) - never of
// the worker count.  fig2, fig3 and ct_audit are serial and declare no
// stage (Experiment::staged is false).
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "analysis/dyntaint.h"
#include "analysis/taint.h"
#include "attack/bernstein.h"
#include "attack/contention.h"
#include "attack/evicttime.h"
#include "attack/flushreload.h"
#include "attack/metrics.h"
#include "attack/primeprobe.h"
#include "attack/profile.h"
#include "cache/placement.h"
#include "core/campaign.h"
#include "core/policy.h"
#include "crypto/sim_aes.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "os/autosar.h"
#include "runner/campaign.h"
#include "runner/codecs.h"
#include "runner/experiment.h"
#include "runner/machine_pool.h"
#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/tests.h"

namespace tsc::runner {
namespace {

// --- shared stage plumbing ---------------------------------------------------

const TaskCodec<double>& double_codec() {
  static const TaskCodec<double> codec{
      [](const double& v, ByteWriter& w) { w.put_f64(v); },
      [](ByteReader& r) { return r.f64(); }};
  return codec;
}

const TaskCodec<std::vector<double>>& doubles_codec() {
  static const TaskCodec<std::vector<double>> codec{
      [](const std::vector<double>& v, ByteWriter& w) { put_doubles(w, v); },
      [](ByteReader& r) { return get_doubles(r); }};
  return codec;
}

/// A per-task scalar, or null for a task that exhausted its retries under
/// --allow-partial.
Json task_json(const std::optional<double>& value) {
  return value ? Json(*value) : Json();
}

/// The fixed shard plan of one cell's budget: shards of `shard_size`
/// samples or runs (clamped to 1, as core::plan_shards does), the last one
/// shorter.  The matrices and the per-run MBPTA protocols all cut their
/// budgets here, so no stage's task count depends on the worker count.
std::vector<std::size_t> matrix_shards(std::size_t samples,
                                       std::size_t shard_size) {
  shard_size = std::max<std::size_t>(1, shard_size);
  std::vector<std::size_t> out;
  for (std::size_t start = 0; start < samples; start += shard_size) {
    out.push_back(std::min(shard_size, samples - start));
  }
  if (out.empty()) out.push_back(samples);
  return out;
}

/// A machine for `platform` deployed under `seed` for core::kMatrixVictim
/// and core::kMatrixAttacker: the calling worker's pooled machine,
/// re-deployed - bit-exact with building a fresh one.
sim::Machine& lease_machine(const core::Platform& platform,
                            std::uint64_t seed) {
  return MachinePool::local()
      .lease({platform, seed}, {core::kMatrixVictim, core::kMatrixAttacker})
      .machine;
}

/// Runs [begin, begin + count) of the MBPTA protocol (paper section 2.1)
/// on `platform`: run r times the second pass of `passes` as the victim on
/// a fresh deployment under derive_seed(seed_base, r) - a new random
/// layout, empty caches, time zero.  Run r's time depends on r alone, so
/// every slicing of a budget concatenates to the same sample.  Only the
/// victim runs, so on a seed-invariant hierarchy
/// (sim::Hierarchy::seed_invariant) every run takes the same time: the
/// slice times its first run and copies it to the rest.
std::vector<double> mbpta_slice(const core::Platform& platform,
                                const isa::KernelPasses& passes,
                                std::uint64_t seed_base, std::size_t begin,
                                std::size_t count) {
  std::vector<double> times;
  times.reserve(count);
  for (std::size_t r = begin; r < begin + count; ++r) {
    sim::Machine& machine =
        lease_machine(platform, rng::derive_seed(seed_base, r));
    machine.set_process(core::kMatrixVictim);
    times.push_back(static_cast<double>(passes.time(machine)));
    if (machine.hierarchy().seed_invariant()) {
      times.resize(count, times.front());
      break;
    }
  }
  return times;
}

/// Merge per-(cell, slice) parts, `part_at(cell * n_shards + s)`, into
/// per-cell run-index-ordered samples - the exact in-order concatenation
/// that makes every per-run protocol decomposition-invariant.  A null part
/// (a slice missing under --allow-partial) contributes nothing.
template <typename PartAt>
std::vector<std::vector<double>> merge_cell_times(std::size_t n_cells,
                                                  std::size_t n_shards,
                                                  std::size_t runs,
                                                  PartAt&& part_at) {
  std::vector<std::vector<double>> merged(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    merged[cell].reserve(runs);
    for (std::size_t s = 0; s < n_shards; ++s) {
      if (const std::vector<double>* part = part_at(cell * n_shards + s)) {
        merged[cell].insert(merged[cell].end(), part->begin(), part->end());
      }
    }
  }
  return merged;
}

// --- the Bernstein stage (fig4, fig5 and the two Bernstein ablations) -------

/// One measured party of a campaign: its base plaintext stream (a fresh
/// stream re-measures the same deployment under independent inputs), the
/// party tag that decorrelates its RNG streams, and its key.
struct Party {
  std::uint64_t plaintext_stream = 0;
  std::uint64_t tag = 1;
  crypto::Key key{};
};

/// One party's shards merged in shard order.
struct MergedSide {
  attack::TimingProfile profile;
  stats::Descriptive time_stats;
};

/// Declare stage `stage`: campaign `config` measured by every party, each
/// party's session cut by core::plan_shards into the same shards, one task
/// per (shard, party) - task shard * parties.size() + party - since every
/// shard of every party is an independent session on `platform`.  Returns
/// the reduce: each party's shards merged in order (a shard that exhausted
/// its retries under --allow-partial contributes nothing).
std::function<std::vector<MergedSide>()> declare_sides(
    Campaign& campaign, const core::Platform& platform,
    const core::CampaignConfig& config, const std::vector<Party>& parties,
    std::size_t shard_size, const std::string& stage) {
  std::vector<std::vector<core::CampaignConfig>> plans;
  for (const Party& party : parties) {
    core::CampaignConfig session = config;
    session.plaintext_stream = party.plaintext_stream;
    plans.push_back(core::plan_shards(session, shard_size));
  }
  const std::size_t n = parties.size();
  // The task owns its plan: a dispatch worker runs it after this returns.
  const auto run_task = [platform, parties, plans, n](std::size_t task) {
    const Party& party = parties[task % n];
    return core::run_victim_side(platform, plans[task % n][task / n],
                                 party.tag, party.key);
  };
  static const TaskCodec<core::SideResult> codec{
      [](const core::SideResult& s, ByteWriter& w) { put_side_result(w, s); },
      [](ByteReader& r) { return get_side_result(r); }};
  StageResults<core::SideResult> results =
      campaign.stage(stage, plans.front().size() * n, run_task, codec);

  return [n, results = std::move(results)] {
    std::vector<MergedSide> merged(n);
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!results[i]) continue;
      MergedSide& side = merged[i % n];
      side.profile.merge(results[i]->profile);
      for (const double t : results[i]->timings) side.time_stats.add(t);
    }
    return merged;
  };
}

/// A merged Bernstein campaign (paper section 6.1.1).
struct BernsteinResult {
  std::size_t shard_count = 0;
  MergedSide victim;
  MergedSide attacker;
  attack::AttackResult attack;
};

/// Declare a Bernstein campaign as stage `stage`: the victim under the
/// campaign key and the attacker under Bernstein's known all-zero key, as
/// the two parties of one declare_sides stage.  A single shard reproduces
/// core::run_bernstein_campaign bit for bit.  Returns the reduce: both
/// sides merged, then one correlation.
std::function<BernsteinResult()> declare_bernstein(
    Campaign& campaign, const core::Platform& platform,
    const core::CampaignConfig& config, std::size_t shard_size,
    const std::string& stage) {
  const crypto::Key victim_key = core::campaign_victim_key(config.master_seed);
  std::function<std::vector<MergedSide>()> sides =
      declare_sides(campaign, platform, config,
                    {{config.plaintext_stream, 1, victim_key},
                     {config.plaintext_stream, 2, {}}},
                    shard_size, stage);
  return [sides = std::move(sides), victim_key,
          shard_count = core::plan_shards(config, shard_size).size()] {
    std::vector<MergedSide> merged = sides();
    BernsteinResult r{shard_count, std::move(merged[0]), std::move(merged[1]),
                      {}};
    r.attack = attack::bernstein_attack(r.victim.profile, r.attacker.profile,
                                        crypto::Key{}, victim_key);
    return r;
  };
}

core::CampaignConfig campaign_config(const RunOptions& options,
                                     std::size_t samples) {
  core::CampaignConfig config;
  config.samples = samples;
  config.master_seed = options.master_seed;
  return config;
}

Json attack_json(const attack::AttackResult& attack) {
  Json bytes = Json::array();
  for (int pos = 0; pos < 16; ++pos) {
    const attack::ByteAttackResult& byte = attack.bytes[static_cast<std::size_t>(pos)];
    Json row = Json::object();
    row.set("pos", pos)
        .set("true_rank", byte.true_rank)
        .set("kept_candidates", byte.kept_candidates())
        .set("significant", byte.significant_count)
        .set("truth_significant", byte.truth_significant)
        .set("best_correlation",
             byte.correlation[byte.ranking[0]])
        .set("truth_correlation",
             byte.correlation[attack.victim_key[static_cast<std::size_t>(pos)]]);
    bytes.push(std::move(row));
  }
  Json j = Json::object();
  j.set("bits_determined", attack.bits_determined())
      .set("log2_remaining_keyspace", attack.log2_remaining_keyspace())
      .set("effective_log2_keyspace", attack.effective_log2_keyspace())
      .set("fully_determined_bytes", attack.fully_determined_bytes())
      .set("misled_bytes", attack.misled_bytes())
      .set("deceived_bytes", attack.deceived_bytes())
      .set("bytes", std::move(bytes));
  return j;
}

Json campaign_json(core::SetupKind kind, const BernsteinResult& r) {
  Json j = Json::object();
  j.set("setup", core::to_string(kind))
      .set("samples_per_side", r.victim.profile.samples())
      .set("shards", r.shard_count)
      .set("victim_mean_cycles", r.victim.time_stats.mean())
      .set("victim_stddev_cycles", r.victim.time_stats.stddev())
      .set("attacker_mean_cycles", r.attacker.time_stats.mean())
      .set("attack", attack_json(r.attack));
  return j;
}

// --- the MBPTA stage (fig1, sec622) -----------------------------------------

/// Declare the per-run MBPTA collection of every setup in `kinds` as stage
/// `stage`: mbpta_slice of the paper platform timing the second pass of a
/// 20KB vector sum, run r under derive_seed(seed_base, r).  One task per
/// (setup, slice) of the fixed matrix_shards plan, so the merged sample is
/// identical for every shard size.  Returns the reduce: per setup, the
/// run-ordered sample.
std::function<std::vector<std::vector<double>>()> declare_mbpta_sample(
    Campaign& campaign, const std::vector<core::SetupKind>& kinds,
    std::size_t runs, std::uint64_t seed_base, std::size_t shard_size,
    const std::string& stage) {
  const std::vector<std::size_t> slices = matrix_shards(runs, shard_size);
  std::vector<core::Platform> platforms;
  for (const core::SetupKind kind : kinds) {
    platforms.push_back(core::paper_platform(kind));
  }
  // Recorded once per campaign (a dispatch worker records its own as it
  // rebuilds the plan), not per run; the task owns it.
  const auto run_task = [platforms, slices, seed_base,
                         passes = std::make_shared<const isa::KernelPasses>(
                             isa::record_passes(
                                 isa::assemble(
                                     isa::vector_sum_source(0x40000, 5120),
                                     0x1000),
                                 0x1000))](std::size_t task) {
    const std::size_t slice = task % slices.size();
    return mbpta_slice(platforms[task / slices.size()], *passes, seed_base,
                       slice * slices.front(), slices[slice]);
  };
  StageResults<std::vector<double>> parts = campaign.stage(
      stage, platforms.size() * slices.size(), run_task, doubles_codec());

  return [parts = std::move(parts), n_setups = platforms.size(),
          n_slices = slices.size(), runs, stage] {
    // The protocol needs every run: a sample with a hole is no i.i.d.
    // evidence, so a partial MBPTA stage fails rather than reporting.
    for (const std::optional<std::vector<double>>& part : parts) {
      if (!part) {
        throw std::runtime_error(stage +
                                 ": MBPTA needs every run; a slice is missing");
      }
    }
    return merge_cell_times(n_setups, n_slices, runs, [&](std::size_t i) {
      return &*parts[i];
    });
  };
}

Json iid_json(const stats::IidVerdict& v, double alpha) {
  Json j = Json::object();
  j.set("ljung_box_q", v.independence.statistic)
      .set("ljung_box_p", v.independence.p_value)
      .set("ks_d", v.identical.statistic)
      .set("ks_p", v.identical.p_value)
      .set("ks_distinct_values",
           static_cast<std::uint64_t>(v.identical.distinct_values))
      .set("ks_ties_suspect", v.identical.ties_suspect)
      .set("passed", v.passed(alpha));
  return j;
}

const char* tail_name(stats::TailModel tail) {
  return tail == stats::TailModel::kGumbelBlockMaxima ? "gumbel_block_maxima"
                                                      : "gpd_pot";
}

/// A pWCET curve: one bound per exceedance probability.
Json curve_json(const std::vector<stats::PwcetPoint>& curve) {
  Json points = Json::array();
  for (const stats::PwcetPoint& point : curve) {
    points.push(Json::object()
                    .set("exceedance_prob", point.exceedance_prob)
                    .set("bound_cycles", point.bound));
  }
  return points;
}

// --- fig1: MBPTA process and pWCET curve -----------------------------------

Json run_fig1(const RunOptions& options, Campaign& campaign) {
  const std::size_t runs =
      std::max<std::size_t>(400, options.resolve_samples(1000));
  const auto sample =
      declare_mbpta_sample(campaign, {core::SetupKind::kTsCache}, runs,
                           options.master_seed, options.shard_size, "fig1");
  return campaign.finish([&] {
    const std::vector<double> times = std::move(sample().front());

    Json tails = Json::array();
    for (const auto tail :
         {stats::TailModel::kGumbelBlockMaxima, stats::TailModel::kGpdPot}) {
      mbpta::AnalysisConfig cfg;
      cfg.tail = tail;
      const mbpta::AnalysisReport report = mbpta::analyze(times, cfg);
      Json t = Json::object();
      t.set("model", tail_name(tail))
          .set("iid", iid_json(report.iid, report.alpha))
          .set("mbpta_applicable", report.mbpta_applicable());
      if (report.mbpta_applicable()) {
        t.set("pwcet_1e-10", report.pwcet(1e-10))
            .set("curve", curve_json(report.curve()));
      }
      tails.push(std::move(t));
    }

    Json j = Json::object();
    j.set("runs", runs)
        .set("task", "second pass over a 20KB vector-sum")
        .set("max_observed_cycles",
             *std::max_element(times.begin(), times.end()))
        .set("tails", std::move(tails));
    return j;
  });
}

// --- fig2: placement-function properties -----------------------------------

Json run_fig2(const RunOptions& options, Campaign&) {
  using cache::MapperKind;
  const cache::Geometry l1 = cache::l1_geometry_arm920t();
  const unsigned kSeeds = 512;
  const auto kPairs =
      static_cast<unsigned>(options.resolve_samples(256));

  Json rows = Json::array();
  for (const MapperKind kind :
       {MapperKind::kModulo, MapperKind::kXorIndex, MapperKind::kHashRp,
        MapperKind::kRandomModulo}) {
    const auto p = cache::make_placement(kind, l1);

    std::vector<std::size_t> counts(l1.sets(), 0);
    for (unsigned s = 0; s < l1.sets() * 100; ++s) {
      ++counts[p->set_index(0x4D5A1, Seed{0xA5A5000 + s})];
    }
    const auto uniform = stats::chi2_uniform(counts);

    std::size_t same_page_conflicts = 0;
    for (unsigned s = 0; s < 64; ++s) {
      std::set<std::uint32_t> sets;
      for (Addr i = 0; i < l1.sets(); ++i) {
        sets.insert(p->set_index((0x77ULL << l1.index_bits()) | i,
                                 Seed{0xBEE0 + s * 7919}));
      }
      same_page_conflicts += l1.sets() - sets.size();
    }

    unsigned sensitive = 0;
    for (unsigned pair = 0; pair < kPairs; ++pair) {
      const Addr a = 0x10000 + pair * 7;
      const Addr b = 0x90000 + pair * 13;
      bool collide = false;
      bool split = false;
      for (unsigned s = 0; s < kSeeds && !(collide && split); ++s) {
        const Seed seed{0xC0FFEE00 + s * 104729};
        if (p->set_index(a, seed) == p->set_index(b, seed)) {
          collide = true;
        } else {
          split = true;
        }
      }
      if (collide && split) ++sensitive;
    }

    Json row = Json::object();
    row.set("placement", cache::to_string(kind))
        .set("uniformity_p", p->randomized() ? uniform.p_value : 0.0)
        .set("same_page_conflicts", same_page_conflicts)
        .set("pair_seed_sensitivity",
             static_cast<double>(sensitive) / kPairs);
    rows.push(std::move(row));
  }

  Json j = Json::object();
  j.set("pairs", kPairs).set("seeds", kSeeds).set("placements", std::move(rows));
  return j;
}

// --- fig3: AUTOSAR app and seed management ---------------------------------

Json run_fig3(const RunOptions& options, Campaign&) {
  sim::Machine machine(
      sim::arm920t_config(cache::MapperKind::kRandomModulo,
                          cache::MapperKind::kHashRp,
                          cache::ReplacementKind::kRandom),
      std::make_shared<rng::XorShift64Star>(42));
  os::CyclicExecutive exec(machine, os::figure3_app(1000),
                           os::SeedPolicy::kPerSwcHyperperiod,
                           options.master_seed);

  constexpr std::uint64_t kHyperperiods = 3;
  Json seed_rows = Json::array();
  for (std::uint64_t h = 0; h < kHyperperiods; ++h) {
    exec.run(1);
    Json row = Json::object();
    row.set("hyperperiod", h)
        .set("swc1_seed", exec.seed_of("SWC1").value & 0xFFFFFFFF)
        .set("swc2_seed", exec.seed_of("SWC2").value & 0xFFFFFFFF)
        .set("swc3_seed", exec.seed_of("SWC3").value & 0xFFFFFFFF);
    seed_rows.push(std::move(row));
  }

  Json j = Json::object();
  j.set("hyperperiod_length", exec.hyperperiod())
      .set("hyperperiods", kHyperperiods)
      .set("jobs", exec.trace().jobs.size())
      .set("context_switches", exec.trace().context_switches)
      .set("seed_changes", exec.trace().seed_changes)
      .set("flushes", exec.trace().flushes)
      .set("seeds_per_hyperperiod", std::move(seed_rows));
  return j;
}

// --- fig4: per-value timing variation --------------------------------------

Json run_fig4(const RunOptions& options, Campaign& campaign) {
  const std::vector<core::SetupKind> kinds{core::SetupKind::kDeterministic,
                                           core::SetupKind::kTsCache};
  // Two independent-plaintext halves on the same platform: replicating
  // structure is signal, non-replicating structure is sampling noise.  One
  // stage per setup ("fig4/<setup>"), the halves its two parties.
  const crypto::Key key = core::campaign_victim_key(options.master_seed);
  const core::CampaignConfig half =
      campaign_config(options, options.resolve_samples(200'000) / 2);
  std::vector<std::function<std::vector<MergedSide>()>> setups;
  for (const core::SetupKind kind : kinds) {
    setups.push_back(declare_sides(
        campaign, core::paper_platform(kind), half, {{1, 1, key}, {2, 1, key}},
        options.shard_size, std::string("fig4/") + core::to_string(kind)));
  }
  return campaign.finish([&] {
    Json rows = Json::array();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const std::vector<MergedSide> halves = setups[i]();
      const attack::TimingProfile& a = halves[0].profile;
      const attack::TimingProfile& b = halves[1].profile;
      Json groups = Json::array();
      double spread = 0;
      for (int g = 0; g < 32; ++g) {
        double acc = 0;
        for (int k = 0; k < 8; ++k) acc += a.deviation(4, g * 8 + k);
        groups.push(acc / 8.0);
      }
      for (int v = 0; v < 256; ++v) {
        spread = std::max(spread, std::fabs(a.deviation(4, v)));
      }
      const double replication =
          stats::pearson(a.deviation_row(4), b.deviation_row(4));

      Json s = Json::object();
      s.set("setup", core::to_string(kinds[i]))
          .set("samples_per_half", a.samples())
          .set("global_mean_cycles", a.global_mean())
          .set("max_abs_deviation", spread)
          .set("split_half_replication_r", replication)
          .set("byte4_group_deviation", std::move(groups));
      rows.push(std::move(s));
    }
    Json j = Json::object();
    j.set("byte", 4).set("setups", std::move(rows));
    return j;
  });
}

// --- fig5: Bernstein attack effectiveness ----------------------------------

Json run_fig5(const RunOptions& options, Campaign& campaign) {
  // One stage per setup ("fig5/<setup>"): each is an independent shard
  // fan-out, checkpointed and resumed separately.
  const std::vector<core::SetupKind>& kinds = core::all_setups();
  std::vector<std::function<BernsteinResult()>> setups;
  for (const core::SetupKind kind : kinds) {
    setups.push_back(declare_bernstein(
        campaign, core::paper_platform(kind),
        campaign_config(options, options.resolve_samples(200'000)),
        options.shard_size, std::string("fig5/") + core::to_string(kind)));
  }
  return campaign.finish([&] {
    Json rows = Json::array();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      rows.push(campaign_json(kinds[i], setups[i]()));
    }
    Json j = Json::object();
    j.set("paper_log2_remaining",
          Json::object()
              .set("deterministic", 80)
              .set("RPCache", 108)
              .set("MBPTACache", 104)
              .set("TSCache", 128))
        .set("setups", std::move(rows));
    return j;
  });
}

// --- sec6.2.1: Prime+Probe / Evict+Time generalization ---------------------

Json run_sec621(const RunOptions& options, Campaign& campaign) {
  attack::ContentionConfig cfg;
  cfg.candidates = 32;
  cfg.trials = static_cast<unsigned>(options.resolve_samples(192));
  cfg.calibration_reps = 4;

  const std::vector<core::SetupKind>& kinds = core::all_setups();
  // One task per (setup, attack) pair; each builds its own platform.
  const auto run_task = [&](std::size_t task) {
    const bool prime_probe = task % 2 == 0;
    // TSCache reseeds every trial (one-job hyperperiods).
    const core::Deployment deployment{
        core::paper_platform(kinds[task / 2]), options.master_seed,
        /*layout_seed=*/4242, /*hyperperiod_jobs=*/1};
    const std::unique_ptr<sim::Machine> machine =
        core::build_machine(deployment,
                            {core::kMatrixVictim, core::kMatrixAttacker});
    std::uint64_t job = 0;
    const attack::TrialHook hook = [&] {
      deployment.before_job(*machine, core::kMatrixVictim, job);
      deployment.before_job(*machine, core::kMatrixAttacker, job);
      ++job;
    };
    rng::XorShift64Star rng(
        rng::derive_seed(options.master_seed, prime_probe ? 1 : 2));
    const attack::ContentionOutcome outcome =
        prime_probe
            ? attack::run_prime_probe(*machine, core::kMatrixVictim,
                                      core::kMatrixAttacker, cfg, rng, hook)
            : attack::run_evict_time(*machine, core::kMatrixVictim,
                                     core::kMatrixAttacker, cfg, rng, hook);
    return outcome.accuracy();
  };
  const StageResults<double> accuracy =
      campaign.stage("sec621", kinds.size() * 2, run_task, double_codec());

  return campaign.finish([&] {
    Json rows = Json::array();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      Json row = Json::object();
      row.set("setup", core::to_string(kinds[i]))
          .set("prime_probe_accuracy", task_json(accuracy[i * 2]))
          .set("evict_time_accuracy", task_json(accuracy[i * 2 + 1]));
      rows.push(std::move(row));
    }
    Json j = Json::object();
    j.set("candidates", cfg.candidates)
        .set("trials", cfg.trials)
        .set("chance", 1.0 / cfg.candidates)
        .set("setups", std::move(rows));
    return j;
  });
}

// --- sec6.2.2: MBPTA compliance --------------------------------------------

Json run_sec622(const RunOptions& options, Campaign& campaign) {
  const std::size_t runs = options.resolve_samples(800);
  const std::vector<core::SetupKind>& kinds = core::all_setups();
  const auto samples = declare_mbpta_sample(
      campaign, kinds, runs, rng::derive_seed(options.master_seed, 622),
      options.shard_size, "sec622");
  return campaign.finish([&] {
    const std::vector<std::vector<double>> per_setup = samples();
    Json rows = Json::array();
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      const std::vector<double>& times = per_setup[i];
      const stats::Summary summary = stats::summarize(times);
      Json row = Json::object();
      row.set("setup", core::to_string(kinds[i]))
          .set("mean_cycles", summary.mean)
          .set("stddev_cycles", summary.stddev);
      if (summary.stddev == 0) {
        row.set("verdict", "constant");
      } else {
        const stats::IidVerdict v = stats::iid_check(times, 20);
        row.set("iid", iid_json(v, 0.05))
            .set("verdict", v.passed(0.05) ? "pass" : "fail");
      }
      rows.push(std::move(row));
    }
    Json j = Json::object();
    j.set("runs", runs).set("alpha", 0.05).set("setups", std::move(rows));
    return j;
  });
}

// --- sec6.2.3: overheads ---------------------------------------------------

struct Kernel {
  std::string name;
  std::string source;
};

std::vector<Kernel> kernel_suite() {
  return {
      {"vecsum-20KB", isa::vector_sum_source(0x40000, 5120)},
      {"memcpy-8KB", isa::memcpy_source(0x40000, 0x60000, 2048)},
      {"sort-1KB", isa::bubble_sort_source(0x40000, 256)},
      {"matmul-24x24", isa::matmul_source(0x40000, 0x50000, 0x60000, 24)},
      {"stride-64B-32KB", isa::stride_walk_source(0x40000, 8192, 64, 32768)},
  };
}

/// The kernel suite assembled at 0x1000 and recorded once: sec623 and the
/// matrix experiments replay each kernel many times (tens of thousands in
/// the matrices), and its two passes are the same on every platform.
std::vector<isa::KernelPasses> recorded_kernels(
    const std::vector<Kernel>& suite) {
  std::vector<isa::KernelPasses> passes;
  passes.reserve(suite.size());
  for (const Kernel& kernel : suite) {
    passes.push_back(
        isa::record_passes(isa::assemble(kernel.source, 0x1000), 0x1000));
  }
  return passes;
}

/// L1D miss rate of one warm pass `warm` (no prior state) on the sec623
/// platform of `mapper` under machine seed `seed`.
double miss_rate_for(cache::MapperKind mapper, const sim::FetchTrace& warm,
                     std::uint64_t seed) {
  sim::Machine machine(
      sim::arm920t_config(mapper, mapper == cache::MapperKind::kModulo
                                      ? cache::MapperKind::kModulo
                                      : cache::MapperKind::kHashRp,
                          mapper == cache::MapperKind::kModulo
                              ? cache::ReplacementKind::kLru
                              : cache::ReplacementKind::kRandom),
      std::make_shared<rng::XorShift64Star>(seed));
  machine.hierarchy().set_seed(core::kMatrixVictim,
                               Seed{rng::derive_seed(seed, 1)});
  machine.set_process(core::kMatrixVictim);
  machine.replay(warm);
  return machine.hierarchy().l1d().stats().miss_rate();
}

Json run_sec623(const RunOptions& options, Campaign& campaign) {
  const std::vector<Kernel> kernels = kernel_suite();
  // Each kernel's warm pass, recorded once: the miss rates replay only it.
  std::vector<sim::FetchTrace> warm;
  warm.reserve(kernels.size());
  for (const Kernel& kernel : kernels) {
    warm.push_back(
        isa::record_pass(isa::assemble(kernel.source, 0x1000), 0x1000));
  }
  const std::vector<cache::MapperKind> mappers{
      cache::MapperKind::kModulo, cache::MapperKind::kXorIndex,
      cache::MapperKind::kHashRp, cache::MapperKind::kRandomModulo};

  // One task per (kernel, mapper) cell; random designs average 8 seeds.
  const auto run_task = [&](std::size_t task) {
    const sim::FetchTrace& kernel = warm[task / mappers.size()];
    const cache::MapperKind mapper = mappers[task % mappers.size()];
    const int reps = mapper == cache::MapperKind::kModulo ? 1 : 8;
    double acc = 0;
    for (int r = 0; r < reps; ++r) {
      acc += miss_rate_for(mapper, kernel, 1000 + r * 77);
    }
    return acc / reps;
  };
  const StageResults<double> rates = campaign.stage(
      "sec623", kernels.size() * mappers.size(), run_task, double_codec());

  // The serial measurements below run once, in the reduce.
  return campaign.finish([&] {
    Json miss_rows = Json::array();
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      Json row = Json::object();
      row.set("kernel", kernels[k].name)
          .set("modulo", task_json(rates[k * mappers.size()]))
          .set("xor_index", task_json(rates[k * mappers.size() + 1]))
          .set("hashRP", task_json(rates[k * mappers.size() + 2]))
          .set("RM", task_json(rates[k * mappers.size() + 3]));
      miss_rows.push(std::move(row));
    }

    // Seed-change cost: pipeline drain + seed-register updates.
    Cycles seed_change_cost = 0;
    {
      sim::Machine machine(
          sim::arm920t_config(cache::MapperKind::kRandomModulo,
                              cache::MapperKind::kHashRp,
                              cache::ReplacementKind::kRandom),
          std::make_shared<rng::XorShift64Star>(7));
      const Cycles before = machine.now();
      machine.set_seed(core::kMatrixVictim, Seed{123});
      seed_change_cost = machine.now() - before;
    }

    // Flush overhead share per hyperperiod length.
    Json flush_rows = Json::array();
    for (const Cycles tick : {Cycles{250}, Cycles{1000}, Cycles{4000}}) {
      sim::Machine machine(
          sim::arm920t_config(cache::MapperKind::kRandomModulo,
                              cache::MapperKind::kHashRp,
                              cache::ReplacementKind::kRandom),
          std::make_shared<rng::XorShift64Star>(9));
      os::CyclicExecutive exec(machine, os::figure3_app(tick),
                               os::SeedPolicy::kPerSwcHyperperiod,
                               options.master_seed);
      const Cycles start = machine.now();
      const std::uint64_t flushes_before = machine.stats().flushes;
      exec.run(8);
      const Cycles total = machine.now() - start;
      const std::uint64_t flushes = machine.stats().flushes - flushes_before;
      const Cycles flush_cost_each = [] {
        sim::Machine probe(
            sim::arm920t_config(cache::MapperKind::kRandomModulo,
                                cache::MapperKind::kHashRp,
                                cache::ReplacementKind::kRandom),
            std::make_shared<rng::XorShift64Star>(10));
        probe.set_process(core::kMatrixVictim);
        for (Addr a = 0; a < 128 * 1024; a += 32) {
          probe.load(0x100, 0x200000 + a);
        }
        const Cycles t0 = probe.now();
        probe.flush_caches();
        return probe.now() - t0;
      }();
      Json row = Json::object();
      row.set("hyperperiod_cycles", exec.hyperperiod())
          .set("total_cycles", total)
          .set("flush_cycles", flushes * flush_cost_each)
          .set("flush_share", static_cast<double>(flushes * flush_cost_each) /
                                  static_cast<double>(total));
      flush_rows.push(std::move(row));
    }

    Json j = Json::object();
    j.set("l1d_miss_rates", std::move(miss_rows))
        .set("seed_change_cycles", seed_change_cost)
        .set("flush_overhead", std::move(flush_rows));
    return j;
  });
}

// --- ablation: attack strength vs sample count -----------------------------

Json run_ablation_samples(const RunOptions& options, Campaign& campaign) {
  const std::size_t top = options.resolve_samples(200'000);
  const std::vector<std::size_t> sweep{top / 8, top / 4, top / 2, top};
  const std::vector<core::SetupKind> kinds{core::SetupKind::kDeterministic,
                                           core::SetupKind::kTsCache};

  // One stage per (sweep point, setup), named by position: tiny scales
  // can repeat a sample count, and stage names must be unique.
  std::vector<std::function<BernsteinResult()>> points;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    for (const core::SetupKind kind : kinds) {
      points.push_back(declare_bernstein(
          campaign, core::paper_platform(kind),
          campaign_config(options, std::max<std::size_t>(1, sweep[i])),
          options.shard_size,
          "ablation_samples/" + std::to_string(i) + "/" +
              core::to_string(kind)));
    }
  }
  return campaign.finish([&] {
    Json rows = Json::array();
    for (std::size_t p = 0; p < points.size(); ++p) {
      const BernsteinResult r = points[p]();
      Json row = Json::object();
      row.set("samples", r.victim.profile.samples())
          .set("setup", core::to_string(kinds[p % kinds.size()]))
          .set("bits_determined", r.attack.bits_determined())
          .set("effective_log2_keyspace", r.attack.effective_log2_keyspace())
          .set("deceived_bytes", r.attack.deceived_bytes());
      rows.push(std::move(row));
    }
    Json j = Json::object();
    j.set("sweep", std::move(rows));
    return j;
  });
}

// --- ablation: seed-change granularity -------------------------------------

Json run_ablation_seedpolicy(const RunOptions& options, Campaign& campaign) {
  const std::vector<std::uint64_t> hyperperiods{
      1, 64, 1024, 8192, std::uint64_t{1} << 40};

  std::vector<std::function<BernsteinResult()>> points;
  for (const std::uint64_t hp : hyperperiods) {
    core::CampaignConfig config =
        campaign_config(options, options.resolve_samples(100'000));
    config.hyperperiod_jobs = hp;
    points.push_back(declare_bernstein(
        campaign, core::paper_platform(core::SetupKind::kTsCache), config,
        options.shard_size, "ablation_seedpolicy/" + std::to_string(hp)));
  }
  return campaign.finish([&] {
    Json rows = Json::array();
    for (std::size_t p = 0; p < points.size(); ++p) {
      const BernsteinResult r = points[p]();
      const std::uint64_t hp = hyperperiods[p];
      int significant = 0;
      for (int i = 0; i < 16; ++i) {
        if (r.attack.bytes[static_cast<std::size_t>(i)].significant_count > 0) {
          ++significant;
        }
      }
      Json row = Json::object();
      row.set("reseed_every_jobs",
              hp >= (std::uint64_t{1} << 40) ? Json("never") : Json(hp))
          .set("bits_determined", r.attack.bits_determined())
          .set("effective_log2_keyspace", r.attack.effective_log2_keyspace())
          .set("mean_cycles", r.victim.profile.global_mean())
          .set("significant_bytes", significant);
      rows.push(std::move(row));
    }
    Json j = Json::object();
    j.set("setup", "TSCache").set("sweep", std::move(rows));
    return j;
  });
}

// --- ablation: way-partitioning vs TSCache ---------------------------------

Json run_ablation_partitioning(const RunOptions& options, Campaign& campaign) {
  struct Config {
    std::string label;
    core::SetupKind kind;
    bool partition;
    bool reseed;
  };
  const std::vector<Config> configs{
      {"deterministic", core::SetupKind::kDeterministic, false, false},
      {"deterministic+partition", core::SetupKind::kDeterministic, true,
       false},
      {"TSCache (no reseed)", core::SetupKind::kTsCache, false, false},
      {"TSCache (reseed per run)", core::SetupKind::kTsCache, false, true},
  };
  const auto trials = static_cast<unsigned>(options.resolve_samples(192));

  // The victim's stride walk, recorded once: every miss-rate task replays
  // its warm pass, and only that pass is recorded.
  const sim::FetchTrace walk = isa::record_pass(
      isa::assemble(isa::stride_walk_source(0x300000, 8192, 32, 16 * 1024),
                    0x310000),
      0x310000);

  // This experiment's own split: L1D only, 2+2 ways (not the platform's
  // L1D+L2 halves).
  const auto apply_partition = [](sim::Machine& machine) {
    machine.hierarchy().l1d().set_way_partition(core::kMatrixVictim, 0, 2);
    machine.hierarchy().l1d().set_way_partition(core::kMatrixAttacker, 2, 2);
  };

  // Two tasks per configuration: attack accuracy and victim miss rate.
  const auto run_task = [&](std::size_t task) {
    const Config& cfg = configs[task / 2];
    const core::Platform platform = core::paper_platform(cfg.kind);
    if (task % 2 == 0) {  // Prime+Probe accuracy
      const core::Deployment deployment{platform, 77, 0,
                                        /*hyperperiod_jobs=*/1};
      const std::unique_ptr<sim::Machine> machine =
          core::build_machine(deployment,
                              {core::kMatrixVictim, core::kMatrixAttacker});
      if (cfg.partition) apply_partition(*machine);
      std::uint64_t job = 0;
      const attack::TrialHook hook = [&] {
        if (!cfg.reseed) return;
        deployment.before_job(*machine, core::kMatrixVictim, job);
        deployment.before_job(*machine, core::kMatrixAttacker, job);
        ++job;
      };
      attack::ContentionConfig attack_cfg;
      attack_cfg.candidates = 32;
      attack_cfg.trials = trials;
      rng::XorShift64Star rng(4321);
      return attack::run_prime_probe(*machine, core::kMatrixVictim,
                                     core::kMatrixAttacker, attack_cfg, rng,
                                     hook)
          .accuracy();
    }
    // Victim miss rate on a working set sized for the full cache.
    const std::unique_ptr<sim::Machine> machine =
        core::build_machine({platform, 78}, {core::kMatrixVictim});
    if (cfg.partition) apply_partition(*machine);
    machine->set_process(core::kMatrixVictim);
    machine->replay(walk);
    return machine->hierarchy().l1d().stats().miss_rate();
  };
  const StageResults<double> metrics = campaign.stage(
      "ablation_partitioning", configs.size() * 2, run_task, double_codec());

  return campaign.finish([&] {
    Json rows = Json::array();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      Json row = Json::object();
      row.set("configuration", configs[i].label)
          .set("prime_probe_accuracy", task_json(metrics[i * 2]))
          .set("victim_l1d_miss_rate", task_json(metrics[i * 2 + 1]));
      rows.push(std::move(row));
    }
    Json j = Json::object();
    j.set("trials", trials)
        .set("chance", 1.0 / 32)
        .set("configurations", std::move(rows));
    return j;
  });
}

// --- the matrix platform axis ------------------------------------------------
//
// The four matrices share one table of platforms: every placement policy
// (deterministic baseline first) under per-process seeds, unpartitioned
// and way-partitioned - the placement x seed-management cut of
// Random-and-Safe (arXiv:2309.16172).  Cell c is matrix_platforms()[c],
// and c keys the cell's deployment seeds and task indices, so entries are
// only ever appended: a seed-policy column is one more entry.

const std::vector<core::Platform>& matrix_platforms() {
  static const std::vector<core::Platform> platforms = [] {
    std::vector<core::Platform> out;
    for (const core::PlacementPolicy policy : core::all_policies()) {
      for (const bool partitioned : {false, true}) {
        out.push_back({policy, core::SeedPolicy::kPerProcess, partitioned});
      }
    }
    return out;
  }();
  return platforms;
}

/// The cell of (policy, partitioned) in matrix_platforms().
std::size_t matrix_cell(core::PlacementPolicy policy, bool partitioned) {
  return 2 * static_cast<std::size_t>(policy) + (partitioned ? 1 : 0);
}

/// Set a matrix row's platform columns.
Json& set_platform(Json& row, const core::Platform& platform) {
  return row.set("policy", core::to_string(platform.policy))
      .set("partitioned", platform.partitioned);
}

/// Fold one shard's outcome into a cell's running merge (in shard order).
template <typename Outcome, typename Part>
void merge_into(std::optional<Outcome>& acc, Part&& part) {
  if (acc) {
    acc->merge(part);
  } else {
    acc.emplace(std::forward<Part>(part));
  }
}

Json ranking_json(const attack::MatrixRanking& ranking,
                  const stats::JointHistogram& channel) {
  Json ranks = Json::array();
  for (int pos = 0; pos < 16; ++pos) {
    ranks.push(ranking.bytes[static_cast<std::size_t>(pos)].true_rank);
  }
  Json j = Json::object();
  j.set("mean_true_rank", ranking.mean_true_rank())
      .set("best_true_rank", ranking.best_true_rank())
      .set("line_resolved_bytes", ranking.line_resolved_bytes())
      .set("byte_true_ranks", std::move(ranks))
      .set("channel_mi_bits", channel.mi_bits())
      .set("channel_mi_bits_corrected", channel.mi_bits_corrected())
      .set("secret_entropy_bits", channel.x_entropy_bits());
  return j;
}

// --- the two-attack stage (attack_matrix, flush_matrix) ----------------------

/// One (cell, shard) of a matrix attack.
struct MatrixShard {
  core::Platform platform;
  /// The cell's deployment: every shard of a cell shares it (layouts,
  /// tables and machine rng are deployment state), so the shard
  /// decomposition never changes what is being attacked.
  std::uint64_t cell_seed;
  crypto::Key key;
  std::size_t samples;
  std::size_t index;        ///< picks the shard's plaintext stream
  std::size_t first_trial;  ///< the shard's first trial in the cell's campaign
};

/// A shard's victim: the cell's machine, the victim's AES on it, and the
/// plaintext stream derive_seed(cell_seed, stream_tag + shard index).
struct ShardVictim {
  ShardVictim(const MatrixShard& shard, std::uint64_t stream_tag)
      : machine(lease_machine(shard.platform, shard.cell_seed)),
        aes(machine, crypto::SimAesLayout{}, shard.key),
        plaintexts(
            rng::derive_seed(shard.cell_seed, stream_tag + shard.index)) {}

  sim::Machine& machine;
  crypto::SimAes aes;
  rng::XorShift64Star plaintexts;
};

/// The matrices' Prime+Probe shard: attack_matrix's first attack and
/// pwcet_matrix's leakage half.
attack::ProbeOutcome prime_probe_shard(const MatrixShard& shard) {
  ShardVictim victim(shard, 0x9700);
  return attack::run_aes_prime_probe(
      victim.machine, core::kMatrixVictim, core::kMatrixAttacker, victim.aes,
      shard.samples, victim.plaintexts, attack::PrimeProbeConfig{});
}

/// One attack of a two-attack matrix: its shard and its payload codec.
template <typename Outcome>
struct MatrixAttack {
  Outcome (*run)(const MatrixShard&);
  void (*put)(ByteWriter&, const Outcome&);
  Outcome (*get)(ByteReader&);
};

/// A cell's two attacks, each merged over its completed shards in shard
/// order (trial logs appended; the scorers sum them into exact integer
/// cells, so worker-count invariant); nullopt for an attack none of whose
/// shards completed (--allow-partial only).
template <typename A, typename B>
struct CellOutcomes {
  std::optional<A> first;
  std::optional<B> second;
};

/// Declare a two-attack matrix as stage `stage`: each attack runs `samples`
/// trials on every matrix cell c, deployed under derive_seed(master seed,
/// cell_tag + c) and cut into matrix_shards.  One task per (cell, shard,
/// attack) - task 2 * (cell * n_shards + shard) + attack - all in one
/// stage, so the two attacks' sessions overlap instead of running as two
/// barriers; a payload is the attack's tag (1 or 2) and its outcome.
/// Returns the reduce of one cell at a time: both attacks merged in shard
/// order, into the cell's first shards, whose outcomes it moves from - so
/// it reduces each cell once.
template <typename A, typename B>
std::function<CellOutcomes<A, B>(std::size_t)> declare_attack_pair(
    Campaign& campaign, const std::string& stage, const RunOptions& options,
    std::size_t samples, std::uint64_t cell_tag, MatrixAttack<A> first,
    MatrixAttack<B> second) {
  using Part = std::variant<A, B>;
  const std::vector<std::size_t> shards =
      matrix_shards(samples, options.shard_size);
  const std::size_t n_shards = shards.size();
  // The task owns its plan: a dispatch worker runs it after this returns.
  const auto run_task = [shards, first, second, cell_tag,
                         master_seed = options.master_seed,
                         key = core::campaign_victim_key(options.master_seed)](
                            std::size_t task) {
    const std::size_t cell = task / 2 / shards.size();
    const std::size_t shard = task / 2 % shards.size();
    const MatrixShard spec{matrix_platforms()[cell],
                           rng::derive_seed(master_seed, cell_tag + cell),
                           key,
                           shards[shard],
                           shard,
                           shard * shards.front()};
    return task % 2 == 0 ? Part(std::in_place_index<0>, first.run(spec))
                         : Part(std::in_place_index<1>, second.run(spec));
  };
  const TaskCodec<Part> codec{
      [first, second](const Part& part, ByteWriter& w) {
        w.put_u8(static_cast<std::uint8_t>(part.index() + 1));
        if (part.index() == 0) {
          first.put(w, std::get<0>(part));
        } else {
          second.put(w, std::get<1>(part));
        }
      },
      [first, second](ByteReader& r) {
        return r.u8() == 1 ? Part(std::in_place_index<0>, first.get(r))
                           : Part(std::in_place_index<1>, second.get(r));
      }};
  StageResults<Part> parts = campaign.stage(
      stage, 2 * matrix_platforms().size() * n_shards, run_task, codec);

  return [n_shards, parts = std::move(parts)](std::size_t cell) mutable {
    CellOutcomes<A, B> out;
    for (std::size_t shard = 0; shard < n_shards; ++shard) {
      const std::size_t task = 2 * (cell * n_shards + shard);
      if (parts[task]) {
        merge_into(out.first, std::get<0>(std::move(*parts[task])));
      }
      if (parts[task + 1]) {
        merge_into(out.second, std::get<1>(std::move(*parts[task + 1])));
      }
    }
    return out;
  };
}

// --- attack_matrix: eviction attacks x placement policy x partitioning -----

Json run_attack_matrix(const RunOptions& options, Campaign& campaign) {
  const std::size_t samples = options.resolve_samples(20'000);
  // Both attacks are prediction-based (no attacker-side calibration
  // deployment), so the victim key enters scoring only as the rank oracle.
  // Evict+Time threads the shard's first trial, so the whole-cache
  // eviction sweep replays as one continuous campaign.
  const auto cells =
      declare_attack_pair<attack::ProbeOutcome, attack::EvictTimeOutcome>(
          campaign, "attack_matrix", options, samples, 0x3A70,
          {prime_probe_shard, put_probe_outcome, get_probe_outcome},
          {[](const MatrixShard& shard) {
             ShardVictim victim(shard, 0xE7000);
             return attack::run_aes_evict_time(
                 victim.machine, core::kMatrixVictim, core::kMatrixAttacker,
                 victim.aes, shard.samples, shard.first_trial,
                 victim.plaintexts, attack::EvictTimeConfig{});
           },
           put_et_outcome, get_et_outcome});

  return campaign.finish([&] {
    // Score each cell once; an attack with no completed shard reports null.
    const crypto::Key victim_key =
        core::campaign_victim_key(options.master_seed);
    const crypto::SimAesLayout layout{};
    const cache::Geometry l1 = cache::l1_geometry_arm920t();
    Json rows = Json::array();
    // Headline ordering: Prime+Probe mean true rank, unpartitioned cells.
    // The paper's qualitative claim is modulo leaks (low rank) while the
    // randomized policies degrade the channel towards chance (127.5).
    Json ordering = Json::object();
    bool modulo_strictly_best = true;
    double modulo_rank = 0;
    for (std::size_t c = 0; c < matrix_platforms().size(); ++c) {
      const auto [pp, et] = cells(c);
      const core::Platform& platform = matrix_platforms()[c];
      Json pp_json;
      Json et_json;
      double pp_mean_rank = 127.5;  // chance: an unmeasured cell leaks nothing
      if (pp) {
        const attack::MatrixRanking rank = attack::score_prime_probe(
            pp->profile, l1, layout.tables, victim_key);
        pp_mean_rank = rank.mean_true_rank();
        pp_json = ranking_json(rank, pp->channel);
      }
      if (et) {
        et_json = ranking_json(attack::score_evict_time(et->profile, l1,
                                                        layout.tables,
                                                        victim_key),
                               et->channel);
      }
      if (!platform.partitioned) {
        ordering.set(core::to_string(platform.policy), pp_mean_rank);
        if (c == 0) {
          modulo_rank = pp_mean_rank;
        } else if (pp_mean_rank <= modulo_rank) {
          modulo_strictly_best = false;
        }
      }

      Json row = Json::object();
      set_platform(row, platform)
          .set("samples", pp ? pp->profile.samples() : 0)
          .set("prime_probe", std::move(pp_json))
          .set("evict_time", std::move(et_json));
      rows.push(std::move(row));
    }

    Json j = Json::object();
    j.set("samples_per_cell", samples)
        .set("shards_per_cell",
             matrix_shards(samples, options.shard_size).size())
        .set("chance_mean_rank", 127.5)
        .set("prime_probe_mean_rank_by_policy", std::move(ordering))
        .set("modulo_strictly_most_leaky", modulo_strictly_best)
        .set("cells", std::move(rows));
    return j;
  });
}

// --- flush_matrix: flush-channel attacks x placement policy x partitioning -
//
// The shared-memory counterpart of attack_matrix: Flush+Reload and
// Flush+Flush address the victim's own table lines instead of building
// eviction sets, so the attacks run under the victim's process context and
// per-process placement randomization is transparent to them.  The matrix
// asks which policies still degrade the channel when the placement frame
// is out of the picture: only defenses acting on residency (Random-and-
// Safe's demand-miss bypass) or on the timing observable itself
// (TimeCache's quantization) are left standing.  Way partitioning, which
// stops Prime+Probe cold, does nothing here - and neither does
// Clepsydra's TTL expiry, whose lifetimes outlive the attacker's
// flush -> encrypt -> probe round trip (see the claims block).

Json run_flush_matrix(const RunOptions& options, Campaign& campaign) {

  const std::size_t samples = options.resolve_samples(20'000);
  // The cell seed tag differs from attack_matrix's, so the two
  // experiments' deployments are independent draws.
  const auto cells =
      declare_attack_pair<attack::ProbeOutcome, attack::ProbeOutcome>(
          campaign, "flush_matrix", options, samples, 0xF1A5,
          {[](const MatrixShard& shard) {
             ShardVictim victim(shard, 0xF4000);
             return attack::run_aes_flush_reload(
                 victim.machine, core::kMatrixVictim, victim.aes,
                 shard.samples, victim.plaintexts, attack::FlushConfig{});
           },
           put_probe_outcome, get_probe_outcome},
          {[](const MatrixShard& shard) {
             ShardVictim victim(shard, 0xFF000);
             return attack::run_aes_flush_flush(
                 victim.machine, core::kMatrixVictim, victim.aes,
                 shard.samples, victim.plaintexts, attack::FlushConfig{});
           },
           put_probe_outcome, get_probe_outcome});

  return campaign.finish([&] {
    const crypto::Key victim_key =
        core::campaign_victim_key(options.master_seed);
    const cache::Geometry l1 = cache::l1_geometry_arm920t();
    const std::size_t n_cells = matrix_platforms().size();
    Json rows = Json::array();
    std::vector<double> fr_rank(n_cells, 127.5);
    std::vector<double> ff_rank(n_cells, 127.5);
    for (std::size_t c = 0; c < n_cells; ++c) {
      const auto [fr, ff] = cells(c);
      Json fr_json;  // null when the cell's attack never completed a shard
      Json ff_json;
      if (fr) {
        const attack::MatrixRanking rank =
            attack::score_flush(fr->profile, l1, victim_key);
        fr_rank[c] = rank.mean_true_rank();
        fr_json = ranking_json(rank, fr->channel);
      }
      if (ff) {
        const attack::MatrixRanking rank =
            attack::score_flush(ff->profile, l1, victim_key);
        ff_rank[c] = rank.mean_true_rank();
        ff_json = ranking_json(rank, ff->channel);
      }

      Json row = Json::object();
      set_platform(row, matrix_platforms()[c])
          .set("samples", fr ? fr->profile.samples() : 0)
          .set("flush_reload", std::move(fr_json))
          .set("flush_flush", std::move(ff_json));
      rows.push(std::move(row));
    }

    // Headline orderings: mean true rank per policy, unpartitioned cells.
    const auto fr_of = [&](core::PlacementPolicy policy,
                           bool partitioned = false) {
      return fr_rank[matrix_cell(policy, partitioned)];
    };
    const auto ff_of = [&](core::PlacementPolicy policy) {
      return ff_rank[matrix_cell(policy, false)];
    };
    Json fr_ordering = Json::object();
    Json ff_ordering = Json::object();
    for (const core::PlacementPolicy policy : core::all_policies()) {
      fr_ordering.set(core::to_string(policy), fr_of(policy));
      ff_ordering.set(core::to_string(policy), ff_of(policy));
    }

    // The experiment's qualitative claims, as booleans the CI gate asserts.
    // "Line resolved" means the mean true rank beats the 8-entries-per-line
    // granularity floor; "blinded" means at or indistinguishable from chance
    // scoring (a flat profile ranks every guess equal).
    using P = core::PlacementPolicy;
    constexpr double kLineResolved = 8.0;
    const double placement_worst_fr =
        std::max({fr_of(P::kModulo), fr_of(P::kHashRp), fr_of(P::kRpCache),
                  fr_of(P::kRandomModulo)});
    Json claims = Json::object();
    claims
        .set("flush_reload_defeats_placement_randomization",
             placement_worst_fr < kLineResolved)
        .set("partitioning_does_not_stop_flush_reload",
             fr_of(P::kModulo, true) < kLineResolved)
        .set("flush_flush_line_resolves_modulo",
             ff_of(P::kModulo) < kLineResolved)
        // Negative result, pinned on purpose: Clepsydra's TTLs (512-4096 L1
        // accesses) comfortably outlive the flush -> encrypt -> reload
        // window (~hundreds of accesses), so unlike the eviction channel
        // the flush channel sails through TTL expiry - a lifetime defense
        // only helps if lifetimes are shorter than the attacker's round
        // trip.
        .set("clepsydra_ttls_outlive_flush_window",
             fr_of(P::kClepsydra) < kLineResolved)
        .set("random_fill_blinds_flush_reload",
             fr_of(P::kRandomAndSafe) >= 4 * kLineResolved)
        .set("quantization_blinds_flush_channel",
             fr_of(P::kTimeCache) >= 4 * kLineResolved &&
                 ff_of(P::kTimeCache) >= 4 * kLineResolved);

    Json j = Json::object();
    j.set("samples_per_cell", samples)
        .set("shards_per_cell",
             matrix_shards(samples, options.shard_size).size())
        .set("chance_mean_rank", 127.5)
        .set("flush_reload_mean_rank_by_policy", std::move(fr_ordering))
        .set("flush_flush_mean_rank_by_policy", std::move(ff_ordering))
        .set("claims", std::move(claims))
        .set("cells", std::move(rows));
    return j;
  });
}

// --- the pWCET matrices: MBPTA x kernels x placement policies ----------------
//
// pwcet_matrix is the time-predictability dual of attack_matrix - the other
// half of the paper's thesis as one sharded artifact.  For every ISA
// kernel x matrix platform cell, per-run execution times are collected
// under the MBPTA protocol (mbpta_slice), then the full MBPTA workflow runs
// per cell: i.i.d. gate (Ljung-Box + KS with the tie diagnostic), Gumbel
// and GPD-POT tail fits, Cramér-von Mises / Q-Q fit quality, and an
// MBPTA-CV-style pWCET-convergence curve - "applicable" requires a STABLE
// bound, not two hypothesis tests passed once.  A Prime+Probe leakage
// campaign per platform (the attack_matrix protocol at reduced budget)
// joins security and predictability into one tradeoff table.
// pwcet_exceedance replays the same timing cells and plots their curves.
//
// Verdicts per cell (pwcet_verdict):
//  * "incomplete"  - fewer runs than the analysis minimum: a slice went
//    missing under --allow-partial (complete runs collect >= 120 >=
//    min_runs everywhere).  No statistics.
//  * "degenerate"  - constant timing.  The deterministic platform's
//    signature: one layout, one time, WCET hostage to that layout (also
//    reached by randomized platforms on kernels too small to conflict -
//    there it means trivially predictable, not layout-locked).
//  * "iid_fail"    - the sample varies but flunks independence/identical
//    distribution: EVT inapplicable.
//  * "applicable"  - i.i.d. passed and both tails fitted; the convergence
//    flag then says whether the 1e-10 bound has stabilized.

constexpr double kPwcetTargetProb = 1e-10;
constexpr double kPwcetAlpha = 0.05;
/// Stability band for the convergence verdict.  A 1e-10 extrapolated
/// quantile re-estimated on half-to-full sample prefixes legitimately
/// breathes by a few percent every time a new extreme arrives; 10% is the
/// band under which the bound is useful for dimensioning, while the GPD
/// blowups this diagnostic exists to catch are order-of-magnitude swings.
constexpr double kConvergenceTol = 0.10;

/// Deployment-seed root of timing cell `cell`; each run derives its own
/// machine seed from it (fresh random layout per run).
std::uint64_t pwcet_cell_seed(std::uint64_t master_seed, std::size_t cell) {
  return rng::derive_seed(master_seed, 0x5CE7'0000 + cell);
}

/// The matrix's MBPTA analysis parameters, shared with pwcet_exceedance so
/// a plotted curve always corresponds to a cell the matrix models.
mbpta::AnalysisConfig pwcet_matrix_analysis_config() {
  mbpta::AnalysisConfig cfg;
  cfg.min_runs = 100;
  cfg.alpha = kPwcetAlpha;
  cfg.block = 10;  // even 120-run cells keep >= 12 maxima for the Gumbel fit
  return cfg;
}

/// The pWCET matrices' timing cells: every matrix platform x every suite
/// kernel, cell platform * n_kernels + kernel, whose runs are cut into
/// matrix_shards slices, task cell * n_slices + slice.  Cell c's run r is
/// mbpta_slice under pwcet_cell_seed(seed, c).  pwcet_matrix and
/// pwcet_exceedance both fan out through this, which is what makes their
/// samples identical for the same (master seed, runs, shard size).
struct PwcetTiming {
  PwcetTiming(const RunOptions& options, std::size_t runs)
      : runs(runs),
        master_seed(options.master_seed),
        slices(matrix_shards(runs, options.shard_size)) {}

  [[nodiscard]] std::size_t cells() const {
    return matrix_platforms().size() * kernels.size();
  }
  [[nodiscard]] std::size_t tasks() const { return cells() * slices.size(); }

  /// The run times of task `task`'s slice.
  [[nodiscard]] std::vector<double> slice(std::size_t task) const {
    const std::size_t cell = task / slices.size();
    const std::size_t slice = task % slices.size();
    return mbpta_slice(matrix_platforms()[cell / kernels.size()],
                       passes[cell % kernels.size()],
                       pwcet_cell_seed(master_seed, cell),
                       slice * slices.front(), slices[slice]);
  }

  /// Per cell, its completed slices in run order; `part(task)` is null for
  /// a slice missing under --allow-partial.
  template <typename PartAt>
  [[nodiscard]] std::vector<std::vector<double>> merge(PartAt&& part) const {
    return merge_cell_times(cells(), slices.size(), runs, part);
  }

  std::size_t runs;
  std::uint64_t master_seed;
  std::vector<std::size_t> slices;
  std::vector<Kernel> kernels = kernel_suite();
  /// Recorded once: their two passes are the same on every platform.
  std::vector<isa::KernelPasses> passes = recorded_kernels(kernels);
};

/// The family-wise i.i.d. gate.  The paper applies alpha = 0.05 to four
/// samples; a matrix tests ~40.  Gating every cell at the raw per-sample
/// level would reject a handful of genuinely i.i.d. cells by multiple
/// testing alone, so the verdicts control the FAMILY-WISE error rate:
/// Bonferroni over the timing-variable cells (each cell's two tests gate at
/// alpha / m).  Raw p-values are reported per cell so any other level can
/// be re-applied.
struct FamilyGate {
  std::size_t variable_cells = 0;
  double alpha = 0;
};

FamilyGate family_gate(const std::vector<std::vector<double>>& cells,
                       double alpha) {
  FamilyGate gate;
  for (const std::vector<double>& times : cells) {
    if (times.size() >= 2 && stats::summarize(times).stddev > 0) {
      ++gate.variable_cells;
    }
  }
  gate.alpha = alpha / static_cast<double>(
                           std::max<std::size_t>(1, gate.variable_cells));
  return gate;
}

/// A timing cell's place on the verdict ladder (see the list above).
struct PwcetVerdict {
  std::string name = "incomplete";
  stats::Summary summary{};              ///< unset when incomplete
  std::optional<stats::IidVerdict> iid;  ///< the gate's tests, when run
};

PwcetVerdict pwcet_verdict(const std::vector<double>& times,
                           const mbpta::AnalysisConfig& cfg,
                           const FamilyGate& gate) {
  PwcetVerdict v;
  if (times.size() < cfg.min_runs) return v;
  v.summary = stats::summarize(times);
  if (v.summary.stddev == 0) {
    v.name = "degenerate";
    return v;
  }
  v.iid = stats::iid_check(times, cfg.lags);
  v.name = v.iid->passed(gate.alpha) ? "applicable" : "iid_fail";
  return v;
}

Json gof_json(const stats::GofResult& g) {
  Json j = Json::object();
  j.set("defined", g.defined).set("n", static_cast<std::uint64_t>(g.n));
  if (g.defined) {
    j.set("cvm_w2", g.cvm_statistic)
        .set("cvm_p", g.cvm_p_value)
        .set("qq_r2", g.qq_r2)
        .set("qq_tail_rel_err", g.qq_tail_rel_err)
        .set("acceptable", g.acceptable(kPwcetAlpha));
  }
  return j;
}

Json convergence_json(const mbpta::ConvergenceCurve& curve) {
  Json points = Json::array();
  for (const mbpta::ConvergencePoint& pt : curve.points) {
    points.push(Json::object()
                    .set("runs", static_cast<std::uint64_t>(pt.runs))
                    .set("bound", pt.bound));
  }
  Json j = Json::object();
  j.set("tolerance", curve.tolerance)
      .set("points", std::move(points))
      .set("converged", curve.converged);
  return j;
}

Json run_pwcet_matrix(const RunOptions& options, Campaign& campaign) {
  const std::size_t runs =
      std::max<std::size_t>(120, options.resolve_samples(500));
  const std::size_t pp_samples = runs * 2;  // leakage-side budget per platform
  const PwcetTiming timing(options, runs);
  const std::vector<core::Platform>& platforms = matrix_platforms();
  const std::size_t n_kernels = timing.kernels.size();
  const std::vector<std::size_t> pp_shards =
      matrix_shards(pp_samples, options.shard_size);
  const crypto::Key victim_key =
      core::campaign_victim_key(options.master_seed);

  struct PwcetTask {
    std::vector<double> times;
    std::optional<attack::ProbeOutcome> pp;
  };

  // The timing slices, then one task per (platform, Prime+Probe shard), in
  // a single stage so the leakage campaigns overlap the timing collection.
  // The leakage half attacks one stable layout per platform (the strongest
  // attacker configuration, as in attack_matrix), its shards differing only
  // in their plaintext stream.
  const auto run_task = [&](std::size_t task) {
    PwcetTask out;
    if (task < timing.tasks()) {
      out.times = timing.slice(task);
    } else {
      const std::size_t platform = (task - timing.tasks()) / pp_shards.size();
      const std::size_t shard = (task - timing.tasks()) % pp_shards.size();
      out.pp = prime_probe_shard(
          {platforms[platform],
           rng::derive_seed(options.master_seed, 0x9A57'0000 + platform),
           victim_key, pp_shards[shard], shard, 0});
    }
    return out;
  };

  static const TaskCodec<PwcetTask> codec{
      [](const PwcetTask& t, ByteWriter& w) {
        w.put_u8(t.pp ? 2 : 1);
        if (t.pp) {
          put_probe_outcome(w, *t.pp);
        } else {
          put_doubles(w, t.times);
        }
      },
      [](ByteReader& r) {
        PwcetTask t;
        if (r.u8() == 2) {
          t.pp = get_probe_outcome(r);
        } else {
          t.times = get_doubles(r);
        }
        return t;
      }};
  const StageResults<PwcetTask> parts = campaign.stage(
      "pwcet_matrix", timing.tasks() + platforms.size() * pp_shards.size(),
      run_task, codec);

  return campaign.finish([&] {
    const mbpta::AnalysisConfig cfg = pwcet_matrix_analysis_config();
    const std::vector<std::vector<double>> cell_times =
        timing.merge([&](std::size_t task) {
          return parts[task] ? &parts[task]->times : nullptr;
        });
    const FamilyGate gate = family_gate(cell_times, cfg.alpha);

    // The overhead baseline: modulo, unpartitioned (platform 0).  An empty
    // baseline cell (--allow-partial only) leaves the overhead column
    // zeroed rather than dividing by garbage.
    std::vector<double> baseline_mean(n_kernels, 0);
    for (std::size_t k = 0; k < n_kernels; ++k) {
      if (!cell_times[k].empty()) {
        baseline_mean[k] = stats::summarize(cell_times[k]).mean;
      }
    }

    struct PlatformAgg {
      int applicable = 0;
      int degenerate = 0;
      int iid_fail = 0;
      int converged = 0;
      double overhead_sum = 0;
      double vecsum_pwcet = 0;
      bool all_ok = true;  // every cell degenerate or applicable + converged
    };
    std::vector<PlatformAgg> agg(platforms.size());

    Json cells = Json::array();
    for (std::size_t c = 0; c < cell_times.size(); ++c) {
      const std::size_t k = c % n_kernels;
      PlatformAgg& platform = agg[c / n_kernels];
      const std::vector<double>& times = cell_times[c];
      const PwcetVerdict v = pwcet_verdict(times, cfg, gate);
      Json cell = Json::object();
      cell.set("kernel", timing.kernels[k].name);
      set_platform(cell, platforms[c / n_kernels])
          .set("runs", static_cast<std::uint64_t>(times.size()));
      if (v.name == "incomplete") {
        platform.all_ok = false;
        cell.set("verdict", v.name);
        cells.push(std::move(cell));
        continue;
      }

      const double overhead =
          baseline_mean[k] > 0 ? v.summary.mean / baseline_mean[k] : 0.0;
      platform.overhead_sum += overhead;
      cell.set("mean_cycles", v.summary.mean)
          .set("stddev_cycles", v.summary.stddev)
          .set("max_cycles", v.summary.max)
          .set("overhead_vs_modulo", overhead);
      if (v.iid) cell.set("iid", iid_json(*v.iid, gate.alpha));

      bool cell_converged = false;
      if (v.name == "degenerate") {
        ++platform.degenerate;
      } else if (v.name == "iid_fail") {
        ++platform.iid_fail;
      } else {
        ++platform.applicable;
        Json tails = Json::array();
        for (const stats::TailModel tail :
             {stats::TailModel::kGumbelBlockMaxima,
              stats::TailModel::kGpdPot}) {
          mbpta::AnalysisConfig tail_cfg = cfg;
          tail_cfg.tail = tail;
          const stats::PwcetModel model(times, tail, cfg.block);
          const mbpta::ConvergenceCurve conv = mbpta::pwcet_convergence(
              times, tail_cfg, kPwcetTargetProb, 6, kConvergenceTol);
          // A cell's bound is stable when at least one tail estimator has
          // settled - an analyst deploys the stable one.  (The GPD-POT
          // bound at 1e-10 oscillates whenever the CV gate flips between
          // the exponential and PWM arms; the block-maxima curve is the
          // steadier of the two at campaign sample sizes.)
          cell_converged = cell_converged || conv.converged;
          const double bound = model.pwcet(kPwcetTargetProb);
          if (k == 0 && tail == stats::TailModel::kGpdPot) {
            platform.vecsum_pwcet = bound;
          }
          Json t = Json::object();
          t.set("model", tail_name(tail))
              .set("pwcet_1e-10", bound)
              .set("gof", gof_json(stats::gof_pwcet_fit(times, model)))
              .set("convergence", convergence_json(conv));
          tails.push(std::move(t));
        }
        cell.set("tails", std::move(tails));
        if (cell_converged) ++platform.converged;
      }
      cell.set("verdict", v.name);
      platform.all_ok = platform.all_ok &&
                        (v.name == "degenerate" ||
                         (v.name == "applicable" && cell_converged));
      cells.push(std::move(cell));
    }

    // Tradeoff table: the leakage half merged per platform, joined with the
    // predictability aggregates - the paper's headline claim in one table.
    const crypto::SimAesLayout layout{};
    const cache::Geometry l1 = cache::l1_geometry_arm920t();
    Json tradeoff = Json::array();
    bool modulo_never_applicable = true;
    bool randomized_ok = true;
    int randomized_applicable = 0;
    for (std::size_t p = 0; p < platforms.size(); ++p) {
      std::optional<attack::ProbeOutcome> pp;
      for (std::size_t s = 0; s < pp_shards.size(); ++s) {
        const std::optional<PwcetTask>& part =
            parts[timing.tasks() + p * pp_shards.size() + s];
        if (part && part->pp) merge_into(pp, *part->pp);
      }

      const bool is_random = core::randomized(platforms[p].policy);
      if (!is_random && agg[p].applicable > 0) modulo_never_applicable = false;
      if (is_random && !agg[p].all_ok) randomized_ok = false;
      randomized_applicable += is_random ? agg[p].applicable : 0;

      // Leakage columns are null for a platform whose campaign never
      // completed a shard (--allow-partial only).
      Json rank_json;
      Json resolved_json;
      Json mi_json;
      if (pp) {
        const attack::MatrixRanking rank = attack::score_prime_probe(
            pp->profile, l1, layout.tables, victim_key);
        rank_json = rank.mean_true_rank();
        resolved_json = rank.line_resolved_bytes();
        mi_json = pp->channel.mi_bits_corrected();
      }

      Json row = Json::object();
      set_platform(row, platforms[p])
          .set("randomized", is_random)
          .set("prime_probe_mean_true_rank", std::move(rank_json))
          .set("prime_probe_line_resolved_bytes", std::move(resolved_json))
          .set("channel_mi_bits_corrected", std::move(mi_json))
          .set("kernels_applicable", agg[p].applicable)
          .set("kernels_degenerate", agg[p].degenerate)
          .set("kernels_iid_fail", agg[p].iid_fail)
          .set("kernels_converged", agg[p].converged)
          .set("mean_overhead_vs_modulo",
               agg[p].overhead_sum / static_cast<double>(n_kernels))
          .set("vecsum_pwcet_1e-10", agg[p].vecsum_pwcet);
      tradeoff.push(std::move(row));
    }

    // The paper's qualitative claim, quantified over the matrix:
    //  * the deterministic baseline never yields an analyzable distribution -
    //    its cells are constant, WCET hostage to the one layout;
    //  * on every randomized platform each cell is either degenerate
    //    (constant timing = trivially predictable; RPCache lands here
    //    everywhere because permuting set labels preserves the intra-process
    //    conflict structure) or passes the i.i.d. gate with a converged
    //    bound, with at least one genuinely modelled (applicable) randomized
    //    cell so the second verdict is not vacuous.
    Json claim = Json::object();
    claim
        .set("deterministic_modulo_never_mbpta_applicable",
             modulo_never_applicable)
        .set("randomized_platforms_pass_with_converged_pwcet",
             randomized_ok && randomized_applicable > 0)
        .set("randomized_applicable_cells", randomized_applicable);

    Json j = Json::object();
    j.set("runs_per_cell", static_cast<std::uint64_t>(runs))
        .set("pp_samples_per_platform", static_cast<std::uint64_t>(pp_samples))
        .set("alpha", kPwcetAlpha)
        .set("gate_alpha", gate.alpha)
        .set("variable_cells", static_cast<std::uint64_t>(gate.variable_cells))
        .set("target_exceedance", kPwcetTargetProb)
        .set("block", static_cast<std::uint64_t>(cfg.block))
        .set("chance_mean_rank", 127.5)
        .set("shards_per_cell",
             static_cast<std::uint64_t>(timing.slices.size()))
        .set("cells", std::move(cells))
        .set("tradeoff", std::move(tradeoff))
        .set("claim", std::move(claim));
    return j;
  });
}

// --- pwcet_exceedance: plotting JSON for the pWCET matrix ------------------
//
// pwcet_matrix reports bounds and diagnostics but not the curves
// themselves.  This experiment runs the matrix's exact timing cells
// (PwcetTiming - run it with the same --samples and --seed and the sample
// IS the matrix's sample) and emits, per cell, the empirical tail and the
// fitted Gumbel/GPD exceedance curves: the overlay at every observed
// execution time plus the extrapolated per-decade pWCET curve down to
// 1e-12.  Verdicts and the family-wise i.i.d. gate are the matrix's, so a
// plotted curve always corresponds to a cell the matrix would model.
Json run_pwcet_exceedance(const RunOptions& options, Campaign& campaign) {
  const std::size_t runs =
      std::max<std::size_t>(120, options.resolve_samples(240));
  const PwcetTiming timing(options, runs);
  // A stage of its own: declaring "pwcet_matrix" would also run that
  // stage's Prime+Probe tasks.
  const StageResults<std::vector<double>> parts = campaign.stage(
      "pwcet_exceedance", timing.tasks(),
      [&](std::size_t task) { return timing.slice(task); }, doubles_codec());

  return campaign.finish([&] {
    const mbpta::AnalysisConfig cfg = pwcet_matrix_analysis_config();
    const std::vector<std::vector<double>> cell_times =
        timing.merge([&](std::size_t task) {
          return parts[task] ? &*parts[task] : nullptr;
        });
    const FamilyGate gate = family_gate(cell_times, cfg.alpha);
    const std::size_t n_kernels = timing.kernels.size();

    Json cells = Json::array();
    for (std::size_t c = 0; c < cell_times.size(); ++c) {
      const std::vector<double>& times = cell_times[c];
      const PwcetVerdict v = pwcet_verdict(times, cfg, gate);
      Json cell = Json::object();
      cell.set("kernel", timing.kernels[c % n_kernels].name);
      set_platform(cell, matrix_platforms()[c / n_kernels])
          .set("runs", static_cast<std::uint64_t>(times.size()));
      if (v.name == "incomplete") {
        cell.set("verdict", v.name);
        cells.push(std::move(cell));
        continue;
      }

      // Distinct observed times (cycle counts are quantized, so this stays
      // plot-sized): one index list drives the empirical tail and every
      // fitted overlay, keeping the curves on identical thresholds.
      std::vector<double> sorted(times);
      std::sort(sorted.begin(), sorted.end());
      std::vector<std::size_t> distinct;  // last occurrence of each value
      for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i + 1 == sorted.size() || sorted[i + 1] != sorted[i]) {
          distinct.push_back(i);
        }
      }
      Json empirical = Json::array();
      const auto n = static_cast<double>(sorted.size());
      for (const std::size_t i : distinct) {
        // P(X > sorted[i]): everything strictly above index i.
        Json point = Json::object();
        point.set("cycles", sorted[i])
            .set("exceedance",
                 static_cast<double>(sorted.size() - 1 - i) / n);
        empirical.push(std::move(point));
      }

      cell.set("mean_cycles", v.summary.mean).set("max_cycles", v.summary.max);
      if (v.name == "applicable") {
        Json tails = Json::array();
        for (const stats::TailModel tail :
             {stats::TailModel::kGumbelBlockMaxima,
              stats::TailModel::kGpdPot}) {
          const stats::PwcetModel model(times, tail, cfg.block);
          // Overlay: the model's exceedance at each observed time, so the
          // fit and the empirical tail plot on one axis...
          Json fitted = Json::array();
          for (const std::size_t i : distinct) {
            Json point = Json::object();
            point.set("cycles", sorted[i])
                .set("exceedance", model.exceedance(sorted[i]));
            fitted.push(std::move(point));
          }
          // ...and the extrapolated curve, one point per decade down to
          // beyond the certification target.
          Json t = Json::object();
          t.set("model", tail_name(tail))
              .set("pwcet_1e-10", model.pwcet(kPwcetTargetProb))
              .set("fitted", std::move(fitted))
              .set("extrapolated", curve_json(model.curve(1e-12)));
          tails.push(std::move(t));
        }
        cell.set("tails", std::move(tails));
      }
      cell.set("verdict", v.name).set("empirical", std::move(empirical));
      cells.push(std::move(cell));
    }

    Json j = Json::object();
    j.set("runs_per_cell", static_cast<std::uint64_t>(runs))
        .set("alpha", cfg.alpha)
        .set("gate_alpha", gate.alpha)
        .set("variable_cells", static_cast<std::uint64_t>(gate.variable_cells))
        .set("target_exceedance", kPwcetTargetProb)
        .set("shards_per_cell",
             static_cast<std::uint64_t>(timing.slices.size()))
        .set("cells", std::move(cells));
    return j;
  });
}

// --- ct_audit: static constant-time audit ------------------------------------

struct AuditKernel {
  std::string name;
  std::string source;
  bool expect_clean = true;
};

Json static_leak_json(const analysis::Leak& leak) {
  Json j = Json::object();
  j.set("kind", analysis::to_string(leak.kind))
      .set("pc", leak.pc)
      .set("provenance", leak.provenance);
  return j;
}

Json run_ct_audit(const RunOptions&, Campaign&) {
  // Static verdicts are a pure function of the kernel sources and the
  // secret spec: samples, master seed and worker count play no role, so
  // this JSON is trivially deterministic and golden-pinnable.  The secret
  // is the AES key schedule region of the victim layout; the T-tables are
  // public (the secret of the T-table channel is the INDEX, not the table).
  const crypto::SimAesLayout layout{};
  analysis::SecretSpec spec;
  spec.regions.push_back(
      {layout.round_keys, layout.round_keys + 176, "round_keys"});

  constexpr Addr kBase = 0x1000;
  const std::vector<AuditKernel> kernels{
      {"vecsum-20KB", isa::vector_sum_source(0x40000, 5120), true},
      {"memcpy-8KB", isa::memcpy_source(0x40000, 0x60000, 2048), true},
      {"stride-64B-32KB", isa::stride_walk_source(0x40000, 8192, 64, 32768),
       true},
      {"ttable-secret-index",
       isa::ttable_lookup_source(layout.round_keys, layout.tables, 16),
       false},
      {"secret-branch", isa::secret_branch_source(layout.round_keys, 16),
       false},
  };

  Json rows = Json::array();
  bool leaky_flagged = true;
  bool clean_certified = true;
  bool static_covers_dynamic = true;
  for (const AuditKernel& kernel : kernels) {
    const isa::Program program = isa::assemble(kernel.source, kBase);
    const analysis::TaintReport report =
        analysis::analyze_taint(program, kBase, spec);

    // Differential cross-check: one concrete reference run under the
    // dynamic taint oracle.  Every violation the oracle observes must be
    // among the static leaks (the soundness direction, demonstrated on the
    // product kernels; the property test covers random programs).
    sim::Machine machine(
        sim::arm920t_config(cache::MapperKind::kModulo,
                            cache::MapperKind::kModulo,
                            cache::ReplacementKind::kLru),
        std::make_shared<rng::XorShift64Star>(2018));
    machine.hierarchy().set_seed(core::kMatrixVictim,
                                 Seed{rng::derive_seed(2018, 1)});
    machine.set_process(core::kMatrixVictim);
    isa::Interpreter interp(machine);
    interp.load_program(program);
    analysis::TaintOracle oracle(spec, program.base,
                                 4 * program.words.size());
    interp.set_trace_sink(&oracle);
    (void)interp.run_reference(kBase, 2'000'000);

    std::set<std::pair<Addr, analysis::LeakKind>> static_keys;
    Json static_leaks = Json::array();
    for (const analysis::Leak& leak : report.leaks) {
      static_keys.emplace(leak.pc, leak.kind);
      static_leaks.push(static_leak_json(leak));
    }
    bool covered = true;
    Json dynamic_leaks = Json::array();
    for (const auto& [pc, kind] : oracle.leaks()) {
      Json j = Json::object();
      j.set("kind", analysis::to_string(kind)).set("pc", pc);
      dynamic_leaks.push(std::move(j));
      if (static_keys.count({pc, kind}) == 0) covered = false;
    }

    if (kernel.expect_clean) {
      clean_certified = clean_certified && report.constant_time;
    } else {
      leaky_flagged = leaky_flagged && !report.constant_time;
    }
    static_covers_dynamic = static_covers_dynamic && covered &&
                            !oracle.left_image() && !oracle.wrote_code();

    Json row = Json::object();
    row.set("kernel", kernel.name)
        .set("expected_clean", kernel.expect_clean)
        .set("constant_time", report.constant_time)
        .set("violations", std::move(static_leaks))
        .set("blocks", static_cast<std::uint64_t>(report.block_count))
        .set("fixpoint_sweeps", report.fixpoint_sweeps)
        .set("may_leave_image", report.may_leave_image)
        .set("has_indirect_jump", report.has_indirect_jump)
        .set("dynamic_violations", std::move(dynamic_leaks))
        .set("dynamic_covered_by_static", covered);
    rows.push(std::move(row));
  }

  Json secret = Json::object();
  secret.set("region", "round_keys")
      .set("base", layout.round_keys)
      .set("bytes", static_cast<std::uint64_t>(176));
  Json claims = Json::object();
  claims.set("leaky_kernels_flagged", leaky_flagged)
      .set("clean_kernels_certified", clean_certified)
      .set("static_covers_dynamic", static_covers_dynamic);
  Json j = Json::object();
  j.set("secret", std::move(secret))
      .set("kernels", std::move(rows))
      .set("claims", std::move(claims));
  return j;
}

}  // namespace

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> experiments{
      {"fig1", "MBPTA process and pWCET curve (paper Figure 1)", run_fig1},
      {"fig2", "hashRP / RM placement properties (paper Figure 2)", run_fig2,
       /*staged=*/false},
      {"fig3", "AUTOSAR app and seed management (paper Figure 3)", run_fig3,
       /*staged=*/false},
      {"fig4", "per-value timing variation of input byte 4 (paper Figure 4)",
       run_fig4},
      {"fig5", "Bernstein attack effectiveness, 4 setups (paper Figure 5)",
       run_fig5},
      {"sec621", "Prime+Probe / Evict+Time generalization (section 6.2.1)",
       run_sec621},
      {"sec622", "MBPTA compliance: Ljung-Box + KS (section 6.2.2)",
       run_sec622},
      {"sec623", "overheads: miss rates, seed change, flush (section 6.2.3)",
       run_sec623},
      {"ablation_samples", "attack strength vs per-side sample count",
       run_ablation_samples},
      {"ablation_seedpolicy", "seed-change granularity sweep (section 5)",
       run_ablation_seedpolicy},
      {"ablation_partitioning", "way-partitioning vs TSCache (section 7)",
       run_ablation_partitioning},
      {"attack_matrix",
       "Prime+Probe / Evict+Time vs all placement policies x partitioning",
       run_attack_matrix},
      {"flush_matrix",
       "Flush+Reload / Flush+Flush (shared-memory flush channel) vs all "
       "placement policies x partitioning",
       run_flush_matrix},
      {"pwcet_matrix",
       "MBPTA pWCET matrix: kernels x placement policies x partitioning, "
       "with fit diagnostics, convergence curves and the security/"
       "predictability tradeoff table",
       run_pwcet_matrix},
      {"ct_audit",
       "static constant-time audit: taint analysis of clean + leaky "
       "kernels against the AES round-key region, cross-checked by the "
       "dynamic taint oracle (independent of samples/seed/workers)",
       run_ct_audit, /*staged=*/false},
      {"pwcet_exceedance",
       "per-cell exceedance plots for the pWCET matrix: empirical tail vs "
       "fitted Gumbel/GPD curves plus the extrapolated pWCET curve",
       run_pwcet_exceedance},
  };
  return experiments;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& e : all_experiments()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace tsc::runner
