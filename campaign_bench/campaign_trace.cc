// campaign_trace: the traced half of the campaign benchmark (see README.md).
//
// Replays one benchmark workload in-process through the layers' public
// functions and records spans and counters around every call into a layer.
// The task decomposition and seed derivations are those of
// src/runner/experiments.cc, restated here because they live in an
// anonymous namespace there; run.py compares the replay's output values
// (the "check" member) with the real campaign's JSON, so any drift between
// the two fails the traced run instead of skewing its numbers.
//
//   campaign_trace trace --workload W --samples N --shard-size N
//                        [--seed S] [--threads N] [--checkpoint FILE]
//   campaign_trace setup --workload W [--seed S]
//
// `trace` prints one JSON object: "spans" (host seconds, self time unless
// noted in README.md), "counters" (deterministic: a pure function of the
// inputs), the per-task duration distribution and "check".  `setup` prints
// the median host seconds to construct, once and on one thread, every
// machine, interpreter, AES victim and assembled kernel the workload uses.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/evicttime.h"
#include "attack/metrics.h"
#include "attack/primeprobe.h"
#include "cache/geometry.h"
#include "core/campaign.h"
#include "core/policy.h"
#include "crypto/sim_aes.h"
#include "isa/assembler.h"
#include "isa/interpreter.h"
#include "isa/kernels.h"
#include "mbpta/analysis.h"
#include "rng/rng.h"
#include "runner/checkpoint.h"
#include "runner/codecs.h"
#include "runner/dispatcher.h"
#include "runner/json.h"
#include "runner/machine_pool.h"
#include "runner/thread_pool.h"
#include "stats/descriptive.h"
#include "stats/evt.h"
#include "stats/gof.h"
#include "stats/tests.h"

namespace {

using namespace tsc;
using runner::Json;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const crypto::SimAesLayout kLayout{};
constexpr Addr kKernelBase = 0x1000;

struct Params {
  std::string workload;
  std::uint64_t seed = 2018;
  std::size_t samples = 0;
  std::size_t shard_size = 0;
  unsigned threads = 4;
  std::string checkpoint;
};

// --- restated campaign plan (src/runner/experiments.cc) ---------------------

struct MatrixCell {
  core::PlacementPolicy policy;
  bool partitioned;
};

std::vector<MatrixCell> matrix_cells() {
  std::vector<MatrixCell> cells;
  for (const core::PlacementPolicy policy : core::all_policies()) {
    for (const bool partitioned : {false, true}) {
      cells.push_back({policy, partitioned});
    }
  }
  return cells;
}

std::vector<std::size_t> plan_shards(std::size_t samples,
                                     std::size_t shard_size) {
  std::vector<std::size_t> out;
  for (std::size_t start = 0; start < samples; start += shard_size) {
    out.push_back(std::min(shard_size, samples - start));
  }
  if (out.empty()) out.push_back(samples);
  return out;
}

std::uint64_t attack_cell_seed(std::uint64_t master, std::size_t cell) {
  return rng::derive_seed(master, 0x3A70 + cell);
}
std::uint64_t pwcet_cell_seed(std::uint64_t master, std::size_t cell) {
  return rng::derive_seed(master, 0x5CE7'0000 + cell);
}
std::uint64_t pwcet_leak_seed(std::uint64_t master, std::size_t platform) {
  return rng::derive_seed(master, 0x9A57'0000 + platform);
}

std::vector<std::string> kernel_sources() {
  return {isa::vector_sum_source(0x40000, 5120),
          isa::memcpy_source(0x40000, 0x60000, 2048),
          isa::bubble_sort_source(0x40000, 256),
          isa::matmul_source(0x40000, 0x50000, 0x60000, 24),
          isa::stride_walk_source(0x40000, 8192, 64, 32768)};
}

/// The checkpoint fingerprint tsc_run writes for these scale knobs.
std::string fingerprint(const Params& p) {
  return "samples=" + std::to_string(p.samples) +
         ",seed=" + std::to_string(p.seed) +
         ",shard-size=" + std::to_string(p.shard_size) + ",fast=0";
}

// --- per-task work and counters ---------------------------------------------

/// What one task did, summed in task-index order after the fan-out so the
/// counters never depend on scheduling.
struct TaskWork {
  double task_s = 0;
  double shard_s = 0;   ///< attack shard self time (lease excluded)
  double lease_s = 0;
  double interp_s = 0;
  std::uint64_t shard_calls = 0;
  std::uint64_t shard_samples = 0;
  std::uint64_t lease_calls = 0;
  std::uint64_t interp_calls = 0;
  std::uint64_t steps = 0;
  std::uint64_t l1i_accesses = 0;
  std::uint64_t l1d_accesses = 0;
  std::uint64_t l1d_hits = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_hits = 0;

  void add(const TaskWork& o) {
    shard_s += o.shard_s;
    lease_s += o.lease_s;
    interp_s += o.interp_s;
    shard_calls += o.shard_calls;
    shard_samples += o.shard_samples;
    lease_calls += o.lease_calls;
    interp_calls += o.interp_calls;
    steps += o.steps;
    l1i_accesses += o.l1i_accesses;
    l1d_accesses += o.l1d_accesses;
    l1d_hits += o.l1d_hits;
    l2_accesses += o.l2_accesses;
    l2_hits += o.l2_hits;
  }

  /// Fold in the machine's per-level stats, which count from the last
  /// lease (Machine::reset zeroes them).
  void read_caches(sim::Machine& machine) {
    sim::Hierarchy& h = machine.hierarchy();
    l1i_accesses += h.l1i().stats().accesses;
    l1d_accesses += h.l1d().stats().accesses;
    l1d_hits += h.l1d().stats().hits;
    if (h.has_l2()) {
      l2_accesses += h.l2().stats().accesses;
      l2_hits += h.l2().stats().hits;
    }
  }

  runner::PooledMachine lease(const MatrixCell& cell, std::uint64_t seed) {
    const auto t0 = Clock::now();
    const runner::PooledMachine leased =
        runner::MachinePool::local().policy_machine(cell.policy, seed,
                                                    cell.partitioned);
    lease_s += since(t0);
    ++lease_calls;
    return leased;
  }
};

/// Everything the replay measured.
struct Trace {
  TaskWork work;
  std::vector<double> task_s;
  double total_s = 0;
  double fanout_s = 0;
  double merge_s = 0;
  double score_s = 0;
  double mbpta_s = 0;
  double serialize_s = 0;
  double codec_s = 0;
  double checkpoint_s = 0;
  double frame_s = 0;
  std::uint64_t score_calls = 0;
  std::uint64_t mbpta_calls = 0;
  std::uint64_t serialize_bytes = 0;
  std::uint64_t codec_bytes = 0;
  std::uint64_t checkpoint_calls = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t checkpoint_file_bytes = 0;
  std::uint64_t frame_bytes = 0;
  Json check;
};

/// parallel_map on the pool, timing every task and the whole fan-out.
template <typename Fn>
auto fan_out(Trace& trace, runner::ThreadPool& pool, std::size_t count,
             Fn&& fn) {
  const auto t0 = Clock::now();
  auto parts = runner::parallel_map(pool, count, [&fn](std::size_t i) {
    const auto t1 = Clock::now();
    auto part = fn(i);
    part.work.task_s = since(t1);
    return part;
  });
  trace.fanout_s = since(t0);
  for (const auto& part : parts) {
    trace.work.add(part.work);
    trace.task_s.push_back(part.work.task_s);
  }
  return parts;
}

/// One attack shard on a leased machine: lease, AES victim, attack run.
template <typename RunAttack>
auto attack_shard(TaskWork& work, const MatrixCell& cell, std::uint64_t seed,
                  const crypto::Key& key, std::size_t samples,
                  RunAttack&& run_attack) {
  const auto t0 = Clock::now();
  const double leased_before = work.lease_s;
  sim::Machine& machine = work.lease(cell, seed).machine;
  crypto::SimAes aes(machine, kLayout, key);
  auto outcome = run_attack(machine, aes);
  work.read_caches(machine);
  ++work.shard_calls;
  work.shard_samples += samples;
  work.shard_s += since(t0) - (work.lease_s - leased_before);
  return outcome;
}

template <typename Outcome>
void merge_into(std::optional<Outcome>& acc, const Outcome& part) {
  if (acc) {
    acc->merge(part);
  } else {
    acc.emplace(part);
  }
}

Json ranking_check(const attack::MatrixRanking& ranking) {
  Json ranks = Json::array();
  for (const attack::ByteRanking& byte : ranking.bytes) {
    ranks.push(byte.true_rank);
  }
  Json j = Json::object();
  j.set("mean_true_rank", ranking.mean_true_rank())
      .set("byte_true_ranks", std::move(ranks));
  return j;
}

template <typename Score, typename Profile>
attack::MatrixRanking timed_score(Trace& trace, Score&& score,
                                  const Profile& profile,
                                  const crypto::Key& key) {
  const auto t0 = Clock::now();
  attack::MatrixRanking ranking =
      score(profile, cache::l1_geometry_arm920t(), kLayout.tables, key);
  trace.score_s += since(t0);
  ++trace.score_calls;
  return ranking;
}

// --- attack_matrix replay ---------------------------------------------------

struct AttackTask {
  std::optional<attack::PrimeProbeOutcome> pp;
  std::optional<attack::EvictTimeOutcome> et;
  TaskWork work;
};

std::vector<AttackTask> attack_fan_out(Trace& trace, const Params& p,
                                       runner::ThreadPool& pool) {
  const std::vector<MatrixCell> cells = matrix_cells();
  const std::vector<std::size_t> shards = plan_shards(p.samples, p.shard_size);
  const crypto::Key key = core::campaign_victim_key(p.seed);
  return fan_out(trace, pool, 2 * cells.size() * shards.size(),
                 [&](std::size_t task) {
    const std::size_t cell = (task / 2) / shards.size();
    const std::size_t shard = (task / 2) % shards.size();
    const std::uint64_t cell_seed = attack_cell_seed(p.seed, cell);
    AttackTask out;
    if (task % 2 == 0) {
      out.pp = attack_shard(
          out.work, cells[cell], cell_seed, key, shards[shard],
          [&](sim::Machine& machine, crypto::SimAes& aes) {
            rng::XorShift64Star pt_rng(
                rng::derive_seed(cell_seed, 0x9700 + shard));
            return attack::run_aes_prime_probe(
                machine, core::kMatrixVictim, core::kMatrixAttacker, aes,
                shards[shard], pt_rng, attack::PrimeProbeConfig{});
          });
    } else {
      out.et = attack_shard(
          out.work, cells[cell], cell_seed, key, shards[shard],
          [&](sim::Machine& machine, crypto::SimAes& aes) {
            rng::XorShift64Star pt_rng(
                rng::derive_seed(cell_seed, 0xE7000 + shard));
            return attack::run_aes_evict_time(
                machine, core::kMatrixVictim, core::kMatrixAttacker, aes,
                shards[shard], shard * p.shard_size, pt_rng,
                attack::EvictTimeConfig{});
          });
    }
    return out;
  });
}

/// Merge in (cell, shard) order, then score each cell once.
Json attack_reduce(Trace& trace, const Params& p,
                   const std::vector<AttackTask>& parts) {
  const std::size_t n_cells = matrix_cells().size();
  const std::size_t n_shards = parts.size() / (2 * n_cells);
  const crypto::Key key = core::campaign_victim_key(p.seed);
  Json cells = Json::array();
  for (std::size_t c = 0; c < n_cells; ++c) {
    const auto t0 = Clock::now();
    std::optional<attack::PrimeProbeOutcome> pp;
    std::optional<attack::EvictTimeOutcome> et;
    for (std::size_t s = 0; s < n_shards; ++s) {
      merge_into(pp, *parts[2 * (c * n_shards + s)].pp);
      merge_into(et, *parts[2 * (c * n_shards + s) + 1].et);
    }
    trace.merge_s += since(t0);
    Json cell = Json::object();
    cell.set("prime_probe",
             ranking_check(timed_score(trace, attack::score_prime_probe,
                                       pp->profile, key)))
        .set("evict_time",
             ranking_check(timed_score(trace, attack::score_evict_time,
                                       et->profile, key)));
    cells.push(std::move(cell));
  }
  Json check = Json::object();
  check.set("cells", std::move(cells));
  return check;
}

// --- the durable path's runner costs ----------------------------------------

/// Body of a dispatcher Result frame (runner/dispatcher.h wire protocol).
std::vector<std::uint8_t> result_frame(const std::string& stage,
                                       std::size_t count, std::size_t task,
                                       const std::vector<std::uint8_t>& payload) {
  runner::ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(runner::MsgType::kResult));
  w.put_string(stage);
  w.put_varint(count);
  w.put_varint(task);
  w.put_varint(0);  // attempt
  w.put_varint(payload.size());
  w.put_bytes(payload.data(), payload.size());
  w.put_fixed64(runner::fnv1a64(payload.data(), payload.size()));
  return std::move(w).take();
}

/// Send one Result frame per payload through a pipe and parse them back on
/// a reader thread, as a supervisor reads its workers.  Returns the
/// received payloads in task order.
std::vector<std::vector<std::uint8_t>> frame_round_trip(
    Trace& trace, const std::string& stage,
    const std::vector<std::vector<std::uint8_t>>& payloads) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::vector<std::vector<std::uint8_t>> received(payloads.size());
  std::exception_ptr reader_error;
  const auto t0 = Clock::now();
  std::thread reader([&] {
    runner::FrameParser parser;
    std::vector<std::uint8_t> buf(1 << 16);
    std::vector<std::uint8_t> body;
    for (;;) {
      const ssize_t n = ::read(fds[0], buf.data(), buf.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      if (reader_error) continue;  // drain so the writer never blocks
      try {
        parser.feed(buf.data(), static_cast<std::size_t>(n));
        while (parser.next(body)) {
          runner::ByteReader r(body);
          (void)r.u8();
          (void)r.string();
          (void)r.varint();
          const std::size_t task = static_cast<std::size_t>(r.varint());
          (void)r.varint();
          const std::size_t size = static_cast<std::size_t>(r.varint());
          const std::uint8_t* data = r.bytes(size);
          if (task >= received.size() ||
              r.fixed64() != runner::fnv1a64(data, size)) {
            throw std::runtime_error("corrupt Result frame");
          }
          received[task].assign(data, data + size);
        }
      } catch (...) {
        reader_error = std::current_exception();
      }
    }
  });
  std::exception_ptr writer_error;
  try {
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const std::vector<std::uint8_t> body =
          result_frame(stage, payloads.size(), i, payloads[i]);
      trace.frame_bytes += 4 + body.size();
      runner::send_frame(fds[1], body);
    }
  } catch (...) {
    writer_error = std::current_exception();
  }
  ::close(fds[1]);
  reader.join();
  ::close(fds[0]);
  trace.frame_s = since(t0);
  if (writer_error) std::rethrow_exception(writer_error);
  if (reader_error) std::rethrow_exception(reader_error);
  return received;
}

/// The runner work --dispatch --checkpoint adds around the same tasks:
/// encode each result, ship it as a frame, checkpoint it at the default
/// cadence of 8, and decode the received bytes back into `parts`, which
/// the reduce then consumes - so the self-check also proves the round trip.
void durable_runner(Trace& trace, const Params& p,
                    std::vector<AttackTask>& parts) {
  const std::string stage = "attack_matrix";
  std::vector<std::vector<std::uint8_t>> payloads(parts.size());
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    runner::ByteWriter w;
    w.put_u8(parts[i].pp ? 1 : 2);
    if (parts[i].pp) {
      runner::put_pp_outcome(w, *parts[i].pp);
    } else {
      runner::put_et_outcome(w, *parts[i].et);
    }
    payloads[i] = std::move(w).take();
    trace.codec_bytes += payloads[i].size();
  }
  trace.codec_s += since(t0);

  payloads = frame_round_trip(trace, stage, payloads);

  t0 = Clock::now();
  runner::Checkpoint checkpoint(stage, fingerprint(p));
  const auto save = [&] {
    checkpoint.save(p.checkpoint);
    ++trace.checkpoint_calls;
    trace.checkpoint_bytes += std::filesystem::file_size(p.checkpoint);
  };
  std::size_t unflushed = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    checkpoint.put(stage, payloads.size(), i, payloads[i]);
    if (++unflushed >= 8) {
      save();
      unflushed = 0;
    }
  }
  if (unflushed > 0) save();
  trace.checkpoint_s = since(t0);
  trace.checkpoint_file_bytes = std::filesystem::file_size(p.checkpoint);

  t0 = Clock::now();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    runner::ByteReader r(payloads[i]);
    if (r.u8() == 1) {
      parts[i].pp = runner::get_pp_outcome(r);
    } else {
      parts[i].et = runner::get_et_outcome(r);
    }
  }
  trace.codec_s += since(t0);
}

// --- pwcet_matrix replay ----------------------------------------------------

struct PwcetTask {
  std::vector<double> times;
  std::optional<attack::PrimeProbeOutcome> pp;
  TaskWork work;
};

constexpr double kPwcetAlpha = 0.05;
constexpr double kPwcetTargetProb = 1e-10;
constexpr double kConvergenceTol = 0.10;

/// The MBPTA workflow of one cell, as pwcet_matrix runs it; returns the
/// cell's verdict.
std::string mbpta_cell(const std::vector<double>& times,
                       const stats::Summary& summary, double gate_alpha) {
  if (summary.stddev == 0) return "degenerate";
  mbpta::AnalysisConfig cfg;
  cfg.min_runs = 100;
  cfg.alpha = kPwcetAlpha;
  cfg.block = 10;
  if (!stats::iid_check(times, cfg.lags).passed(gate_alpha)) {
    return "iid_fail";
  }
  for (const stats::TailModel tail :
       {stats::TailModel::kGumbelBlockMaxima, stats::TailModel::kGpdPot}) {
    mbpta::AnalysisConfig tail_cfg = cfg;
    tail_cfg.tail = tail;
    const stats::PwcetModel model(times, tail, cfg.block);
    (void)stats::gof_pwcet_fit(times, model);
    (void)mbpta::pwcet_convergence(times, tail_cfg, kPwcetTargetProb, 6,
                                   kConvergenceTol);
    (void)model.pwcet(kPwcetTargetProb);
  }
  return "applicable";
}

Json pwcet_replay(Trace& trace, const Params& p, runner::ThreadPool& pool) {
  const std::vector<MatrixCell> platforms = matrix_cells();
  std::vector<isa::Program> programs;
  for (const std::string& source : kernel_sources()) {
    programs.push_back(isa::assemble(source, kKernelBase));
  }
  const std::size_t runs = p.samples;
  const std::vector<std::size_t> time_shards = plan_shards(runs, p.shard_size);
  const std::vector<std::size_t> pp_shards =
      plan_shards(2 * runs, p.shard_size);
  const std::size_t n_cells = platforms.size() * programs.size();
  const std::size_t timing_tasks = n_cells * time_shards.size();
  const crypto::Key key = core::campaign_victim_key(p.seed);

  std::vector<PwcetTask> parts = fan_out(
      trace, pool, timing_tasks + platforms.size() * pp_shards.size(),
      [&](std::size_t task) {
        PwcetTask out;
        if (task < timing_tasks) {
          const std::size_t shard = task % time_shards.size();
          const std::size_t cell = task / time_shards.size();
          const MatrixCell& platform = platforms[cell / programs.size()];
          const isa::Program& program = programs[cell % programs.size()];
          const std::uint64_t cell_seed = pwcet_cell_seed(p.seed, cell);
          for (std::size_t i = 0; i < time_shards[shard]; ++i) {
            const runner::PooledMachine leased = out.work.lease(
                platform, rng::derive_seed(cell_seed, shard * p.shard_size + i));
            leased.machine.set_process(core::kMatrixVictim);
            leased.interpreter.load_program(program);
            const auto t0 = Clock::now();
            const isa::RunResult warm = leased.interpreter.run(kKernelBase);
            const isa::RunResult timed = leased.interpreter.run(kKernelBase);
            out.work.interp_s += since(t0);
            out.work.interp_calls += 2;
            out.work.steps += warm.steps + timed.steps;
            out.work.read_caches(leased.machine);
            out.times.push_back(static_cast<double>(timed.cycles));
          }
        } else {
          const std::size_t t = task - timing_tasks;
          const std::size_t platform = t / pp_shards.size();
          const std::size_t shard = t % pp_shards.size();
          const std::uint64_t seed = pwcet_leak_seed(p.seed, platform);
          out.pp = attack_shard(
              out.work, platforms[platform], seed, key, pp_shards[shard],
              [&](sim::Machine& machine, crypto::SimAes& aes) {
                rng::XorShift64Star pt_rng(
                    rng::derive_seed(seed, 0x9700 + shard));
                return attack::run_aes_prime_probe(
                    machine, core::kMatrixVictim, core::kMatrixAttacker, aes,
                    pp_shards[shard], pt_rng, attack::PrimeProbeConfig{});
              });
        }
        return out;
      });

  // Concatenate timing shards per cell and merge the leakage shards per
  // platform, both in index order.
  auto t0 = Clock::now();
  std::vector<std::vector<double>> cell_times(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    for (std::size_t s = 0; s < time_shards.size(); ++s) {
      const std::vector<double>& part = parts[cell * time_shards.size() + s].times;
      cell_times[cell].insert(cell_times[cell].end(), part.begin(), part.end());
    }
  }
  std::vector<std::optional<attack::PrimeProbeOutcome>> leakage(platforms.size());
  for (std::size_t pl = 0; pl < platforms.size(); ++pl) {
    for (std::size_t s = 0; s < pp_shards.size(); ++s) {
      merge_into(leakage[pl], *parts[timing_tasks + pl * pp_shards.size() + s].pp);
    }
  }
  trace.merge_s += since(t0);

  t0 = Clock::now();
  std::vector<stats::Summary> summaries;
  std::size_t variable_cells = 0;
  for (const std::vector<double>& times : cell_times) {
    summaries.push_back(stats::summarize(times));
    if (summaries.back().stddev > 0) ++variable_cells;
  }
  const double gate_alpha =
      kPwcetAlpha / static_cast<double>(std::max<std::size_t>(1, variable_cells));
  Json cells = Json::array();
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    const stats::Summary& summary = summaries[cell];
    Json j = Json::object();
    j.set("runs", static_cast<std::uint64_t>(cell_times[cell].size()))
        .set("mean_cycles", summary.mean)
        .set("max_cycles", summary.max)
        .set("verdict", mbpta_cell(cell_times[cell], summary, gate_alpha));
    cells.push(std::move(j));
    ++trace.mbpta_calls;
  }
  trace.mbpta_s += since(t0);

  Json tradeoff = Json::array();
  for (const std::optional<attack::PrimeProbeOutcome>& pp : leakage) {
    tradeoff.push(Json::object().set(
        "prime_probe_mean_true_rank",
        timed_score(trace, attack::score_prime_probe, pp->profile, key)
            .mean_true_rank()));
  }
  Json check = Json::object();
  check.set("cells", std::move(cells)).set("tradeoff", std::move(tradeoff));
  return check;
}

// --- modes ------------------------------------------------------------------

Trace run_trace(const Params& p) {
  Trace trace;
  const auto t0 = Clock::now();
  runner::ThreadPool pool(p.threads);
  if (p.workload == "pwcet") {
    trace.check = pwcet_replay(trace, p, pool);
  } else {
    std::vector<AttackTask> parts = attack_fan_out(trace, p, pool);
    if (p.workload == "attack_durable") durable_runner(trace, p, parts);
    trace.check = attack_reduce(trace, p, parts);
  }
  const auto t1 = Clock::now();
  trace.serialize_bytes = trace.check.dump().size();
  trace.serialize_s = since(t1);
  trace.total_s = since(t0);
  return trace;
}

Json trace_json(const Params& p, const Trace& t) {
  const TaskWork& w = t.work;
  std::vector<double> sorted = t.task_s;
  std::sort(sorted.begin(), sorted.end());
  const double task_sum = std::accumulate(sorted.begin(), sorted.end(), 0.0);
  const std::uint64_t sim_accesses = w.l1i_accesses + w.l1d_accesses;
  const double sim_s = w.shard_s + w.interp_s;

  Json spans = Json::object();
  spans.set("attack.score.s", t.score_s)
      .set("attack.shard.s", w.shard_s)
      .set("cache.ns_per_access",
           sim_accesses == 0 ? 0.0 : sim_s * 1e9 / static_cast<double>(sim_accesses))
      .set("isa.interp.s", w.interp_s)
      .set("isa.interp.ns_per_step",
           w.steps == 0 ? 0.0 : w.interp_s * 1e9 / static_cast<double>(w.steps))
      .set("sim.lease.s", w.lease_s)
      .set("mbpta.cell.s", t.mbpta_s)
      .set("runner.fanout.s", t.fanout_s)
      .set("runner.fanout.task_sum_s", task_sum)
      .set("runner.fanout.task_p50_ms", sorted[sorted.size() / 2] * 1e3)
      .set("runner.fanout.task_max_ms", sorted.back() * 1e3)
      .set("runner.merge.s", t.merge_s)
      .set("runner.serialize.s", t.serialize_s)
      .set("runner.codec.s", t.codec_s)
      .set("runner.checkpoint.s", t.checkpoint_s)
      .set("runner.frame.s", t.frame_s);

  Json counters = Json::object();
  counters.set("attack.score.calls", t.score_calls)
      .set("attack.shard.calls", w.shard_calls)
      .set("attack.shard.samples", w.shard_samples)
      .set("cache.l1i.accesses", w.l1i_accesses)
      .set("cache.l1d.accesses", w.l1d_accesses)
      .set("cache.l1d.hits", w.l1d_hits)
      .set("cache.l2.accesses", w.l2_accesses)
      .set("cache.l2.hits", w.l2_hits)
      .set("isa.interp.calls", w.interp_calls)
      .set("isa.interp.steps", w.steps)
      .set("sim.lease.calls", w.lease_calls)
      .set("mbpta.cell.calls", t.mbpta_calls)
      .set("runner.serialize.bytes", t.serialize_bytes)
      .set("runner.codec.bytes", t.codec_bytes)
      .set("runner.checkpoint.calls", t.checkpoint_calls)
      .set("runner.checkpoint.bytes", t.checkpoint_bytes)
      .set("runner.checkpoint.file_bytes", t.checkpoint_file_bytes)
      .set("runner.frame.bytes", t.frame_bytes);

  Json j = Json::object();
  j.set("workload", p.workload)
      .set("seed", p.seed)
      .set("threads", p.threads)
      .set("total_s", t.total_s)
      .set("spans", std::move(spans))
      .set("counters", std::move(counters))
      .set("check", t.check);
  return j;
}

/// Construct once everything `workload` uses: a machine, an interpreter and
/// an AES victim per platform, plus the assembled kernels for pwcet.
void build_everything(const Params& p, const crypto::Key& key) {
  std::vector<std::unique_ptr<sim::Machine>> machines;
  std::vector<std::unique_ptr<isa::Interpreter>> interpreters;
  std::vector<std::unique_ptr<crypto::SimAes>> victims;
  const std::vector<MatrixCell> cells = matrix_cells();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    machines.push_back(core::build_policy_machine(
        cells[c].policy, attack_cell_seed(p.seed, c), cells[c].partitioned));
    interpreters.push_back(std::make_unique<isa::Interpreter>(*machines.back()));
    victims.push_back(
        std::make_unique<crypto::SimAes>(*machines.back(), kLayout, key));
  }
  if (p.workload == "pwcet") {
    std::vector<isa::Program> programs;
    for (const std::string& source : kernel_sources()) {
      programs.push_back(isa::assemble(source, kKernelBase));
    }
  }
}

/// Median over 11 timed blocks of the per-construction seconds; each block
/// repeats the construction until it spans at least 50 ms.
Json run_setup(const Params& p) {
  const crypto::Key key = core::campaign_victim_key(p.seed);
  build_everything(p, key);  // warm: first-touch page faults, lazy statics
  const auto t0 = Clock::now();
  build_everything(p, key);
  const double once = std::max(since(t0), 1e-6);
  const int reps = std::max(1, static_cast<int>(0.05 / once));
  std::vector<double> per_build;
  for (int b = 0; b < 11; ++b) {
    const auto t1 = Clock::now();
    for (int r = 0; r < reps; ++r) build_everything(p, key);
    per_build.push_back(since(t1) / reps);
  }
  std::sort(per_build.begin(), per_build.end());
  Json j = Json::object();
  j.set("workload", p.workload)
      .set("setup_s", per_build[per_build.size() / 2])
      .set("reps_per_block", reps);
  return j;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "campaign_trace: %s\n"
               "usage: campaign_trace trace --workload attack|pwcet|"
               "attack_durable --samples N --shard-size N\n"
               "                      [--seed S] [--threads N] "
               "[--checkpoint FILE]\n"
               "       campaign_trace setup --workload W [--seed S]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (s[0] < '0' || s[0] > '9' || *end != '\0' || errno == ERANGE) {
    usage(std::string("not an unsigned integer: ") + s);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  const std::string mode = argv[1];
  Params p;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " needs a value");
    const char* val = argv[++i];
    if (arg == "--workload") {
      p.workload = val;
    } else if (arg == "--checkpoint") {
      p.checkpoint = val;
    } else if (arg == "--seed") {
      p.seed = parse_count(val);
    } else if (arg == "--samples") {
      p.samples = parse_count(val);
    } else if (arg == "--shard-size") {
      p.shard_size = parse_count(val);
    } else if (arg == "--threads") {
      p.threads = static_cast<unsigned>(parse_count(val));
    } else {
      usage("unknown option " + arg);
    }
  }
  if (p.workload != "attack" && p.workload != "pwcet" &&
      p.workload != "attack_durable") {
    usage("unknown workload '" + p.workload + "'");
  }
  try {
    if (mode == "setup") {
      std::printf("%s\n", run_setup(p).dump().c_str());
    } else if (mode == "trace") {
      if (p.samples == 0 || p.shard_size == 0 || p.threads == 0) {
        usage("--samples, --shard-size and --threads must be positive");
      }
      if (p.workload == "attack_durable" && p.checkpoint.empty()) {
        usage("attack_durable needs --checkpoint FILE");
      }
      const Trace trace = run_trace(p);
      std::printf("%s\n", trace_json(p, trace).dump().c_str());
    } else {
      usage("unknown mode '" + mode + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_trace: %s\n", e.what());
    return 1;
  }
  return 0;
}
