// The experiment registry: every paper artifact (fig1..fig5), evaluation
// section (sec6.2.x) and ablation is a named experiment - a pure function
// from RunOptions to a JSON result document.  The tsc_run driver and the
// tests all run experiments through run_experiment, so a scenario and its
// result envelope are defined exactly once.
//
// Output discipline: the JSON an experiment returns must be a deterministic
// function of (name, samples, master_seed, shard_size) - never of the
// worker count, wall-clock time, or host.  Throughput metadata goes to
// stderr, keeping stdout byte-stable so CI can diff runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/dispatcher.h"
#include "runner/json.h"

namespace tsc::runner {

class Campaign;

/// Options shared by every experiment, parsed from the CLI / environment.
struct RunOptions {
  /// Per-side sample (or run) count; 0 = the experiment's standard scale.
  std::size_t samples = 0;
  std::uint64_t master_seed = 2018;
  /// Worker threads for sharded/parallel stages; 0 = hardware concurrency.
  unsigned workers = 0;
  /// Samples per shard (the deterministic decomposition unit).
  std::size_t shard_size = 25'000;
  /// TSC_FAST-style smoke scaling (divides standard scales by 8).
  bool fast = false;

  /// Fault-tolerance configuration (checkpoint/resume, retries, fault
  /// injection).  When enabled, run_experiment opens an FtSession and the
  /// experiment's stages run through it; tsc_run refuses it for an
  /// experiment that declares no stage.
  FtOptions ft{};

  /// Resolve the effective sample count: explicit `samples` wins, then the
  /// TSC_SAMPLES environment override, then `standard` (divided by 8 under
  /// fast/TSC_FAST).
  [[nodiscard]] std::size_t resolve_samples(std::size_t standard) const;
};

/// A registered experiment.  `run` declares its stages on the Campaign and
/// returns campaign.finish(reduce).  A serial experiment (`staged` false)
/// ignores the Campaign, so tsc_run rejects the flags that open a session
/// (checkpoint, resume, partial, fault injection, dispatch) for it.
struct Experiment {
  std::string name;
  std::string description;
  Json (*run)(const RunOptions&, Campaign&);
  bool staged = true;
};

/// All registered experiments, in presentation order.
[[nodiscard]] const std::vector<Experiment>& all_experiments();

/// Look up by name; nullptr when unknown.
[[nodiscard]] const Experiment* find_experiment(const std::string& name);

/// What run_experiment produced: a process exit code and the result
/// envelope, which is empty on failure and in a dispatch worker.
struct ExperimentRun {
  int exit_code = kExitOk;
  std::string json;
};

/// Run one experiment as tsc_run does: open the fault-tolerance session or
/// dispatch role the options ask for, run the experiment's campaign, and
/// render the envelope (compact: one line plus a newline, as --json
/// prints).  A partial run appends its incomplete_shards manifest.
/// Failures are reported on stderr and mapped to the exit-code contract.
[[nodiscard]] ExperimentRun run_experiment(
    const Experiment& experiment, const RunOptions& options,
    const DispatchOptions& dispatch = {}, bool compact = true);

/// tsc_run's entry point: parse --experiment NAME [--samples N] [--seed S]
/// [--shards N] [--shard-size N] [--json] [--fast] and the fault-tolerance
/// and dispatch flags, run the experiment, and print the result envelope
/// to stdout (or --output FILE).  Returns a process exit code.
int experiment_main(int argc, char** argv);

}  // namespace tsc::runner
