#include "runner/experiment.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "runner/campaign.h"
#include "runner/dispatcher.h"

namespace tsc::runner {

std::size_t RunOptions::resolve_samples(std::size_t standard) const {
  if (samples > 0) return samples;
  if (const char* env = std::getenv("TSC_SAMPLES")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  bool shrink = fast;
  if (const char* env = std::getenv("TSC_FAST"); env && env[0] == '1') {
    shrink = true;
  }
  return shrink ? std::max<std::size_t>(1, standard / 8) : standard;
}

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: tsc_run --experiment NAME [options]\n"
               "       tsc_run --list\n"
               "\n"
               "options:\n"
               "  --experiment NAME   experiment to run (see --list)\n"
               "  --samples N         per-side samples / runs (0 = standard scale)\n"
               "  --seed S            campaign master seed (default 2018)\n"
               "  --shards N          worker threads (0 = hardware concurrency);\n"
               "                      results are bit-identical for every value\n"
               "  --shard-size N      samples per shard (default 25000); part of\n"
               "                      the deterministic decomposition\n"
               "  --fast              smoke scale (standard / 8)\n"
               "  --json              compact single-line JSON on stdout\n"
               "  --output FILE       write the JSON atomically to FILE (temp\n"
               "                      file + rename) instead of stdout\n"
               "  --list              list experiments and exit\n"
               "\n"
               "fault tolerance (docs/fault_tolerance.md):\n"
               "  --checkpoint FILE   flush completed shards to FILE; SIGINT/\n"
               "                      SIGTERM drain in-flight shards, flush and\n"
               "                      exit 75 (resumable)\n"
               "  --resume            skip shards already in --checkpoint FILE;\n"
               "                      the final JSON is byte-identical to an\n"
               "                      uninterrupted run\n"
               "  --checkpoint-every N  flush cadence in completed shards\n"
               "                      (default 8)\n"
               "  --max-attempts N    per-shard attempt budget (default 3)\n"
               "  --watchdog-ms N     abandon + re-queue shards running longer\n"
               "                      than N ms (default 0 = off)\n"
               "  --allow-partial     after retries are exhausted, emit the\n"
               "                      merged result with an incomplete_shards\n"
               "                      manifest (exit 4) instead of failing\n"
               "  --checkpoint-interval-ms N  also flush the checkpoint when\n"
               "                      N ms passed since the last flush (0 = off)\n"
               "  --inject-fault SPEC deterministic fault injection for tests:\n"
               "                      shard=K,kind=throw|hang|corrupt[,times=N];\n"
               "                      kind=crash|wedge|kill need --dispatch (the\n"
               "                      worker subprocess really dies or spins)\n"
               "\n"
               "multi-process dispatch (docs/fault_tolerance.md):\n"
               "  --dispatch N        supervise N worker subprocesses leasing\n"
               "                      shards over pipes; crashes and wedges are\n"
               "                      retried after SIGKILL, and the merged JSON\n"
               "                      stays byte-identical to a 1-process run\n"
               "  --heartbeat-ms N    worker heartbeat cadence (default 250;\n"
               "                      0 disables liveness monitoring)\n"
               "  --backoff-ms N      retry backoff base (default 100; the\n"
               "                      delay is a deterministic exponential\n"
               "                      function of shard and attempt; 0 = off)\n"
               "  --backoff-cap-ms N  retry backoff ceiling (default 5000)\n"
               "  --dispatch-worker R,W  internal: run as a worker subprocess\n"
               "                      over pipe fds R (read) and W (write)\n"
               "  --worker-id K       internal: worker identity for logs\n"
               "\n"
               "exit codes: 0 ok; 1 experiment failed; 2 usage error;\n"
               "            4 partial result emitted; 75 interrupted,\n"
               "            checkpoint flushed (rerun with --resume)\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  // Strict: digits only.  strtoull silently wraps "-5" to a huge value,
  // which would turn a typo into a near-infinite budget - reject any sign
  // or leading whitespace instead.
  if (s == nullptr || *s == '\0' ||
      std::isdigit(static_cast<unsigned char>(*s)) == 0) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  out = v;
  return true;
}

/// Resolve the executable to spawn worker subprocesses from: the
/// TSC_DISPATCH_EXE test override, else this very binary.
std::string resolve_dispatch_exe(const char* argv0) {
  if (const char* env = std::getenv("TSC_DISPATCH_EXE")) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0 != nullptr ? argv0 : "";
}

std::string ft_fingerprint(const RunOptions& options) {
  // Every knob that shapes the shard plan or the computed numbers - and
  // NEVER the worker count, which is a pure throughput choice.  The
  // environment scale seams are folded in so a checkpoint written under
  // TSC_SAMPLES/TSC_FAST cannot silently resume without them.
  std::string fp = "samples=" + std::to_string(options.samples) +
                   ",seed=" + std::to_string(options.master_seed) +
                   ",shard-size=" + std::to_string(options.shard_size) +
                   ",fast=" + (options.fast ? "1" : "0");
  if (const char* env = std::getenv("TSC_SAMPLES")) {
    fp += ",env-samples=";
    fp += env;
  }
  if (const char* env = std::getenv("TSC_FAST"); env && env[0] == '1') {
    fp += ",env-fast=1";
  }
  return fp;
}

}  // namespace

ExperimentRun run_experiment(const Experiment& experiment,
                             const RunOptions& options,
                             const DispatchOptions& dispatch, bool compact) {
  const auto failed = [](const std::string& what) {
    std::fprintf(stderr, "[tsc_run] %s\n", what.c_str());
    return ExperimentRun{kExitFailure, {}};
  };
  // A stale flag from a previous in-process run must not abort this one;
  // handlers are installed only when interruption has somewhere to resume
  // from (otherwise SIGINT keeps its default kill semantics).
  clear_interrupt();
  try {
    std::unique_ptr<FtSession> session;
    std::unique_ptr<DispatchWorker> worker;
    if (dispatch.worker()) {
      // A lease server: the supervisor owns durability, interruption and
      // the stop_after seam.  SIGINT is ignored: a terminal ^C reaches the
      // whole process group, and the supervisor coordinates shutdown.
      (void)std::signal(SIGINT, SIG_IGN);
      worker = std::make_unique<DispatchWorker>(
          dispatch.read_fd, dispatch.write_fd, dispatch.worker_id,
          dispatch.heartbeat_ms, options.ft.fault);
    } else if (dispatch.processes > 0 || options.ft.enabled()) {
      if (!options.ft.checkpoint_path.empty()) install_interrupt_handlers();
      const std::string fp = ft_fingerprint(options);
      session = dispatch.processes > 0
                    ? std::make_unique<DispatchSupervisorSession>(
                          options.ft, experiment.name, fp, dispatch)
                    : std::make_unique<FtSession>(options.ft,
                                                  experiment.name, fp);
    }
    Campaign campaign(options.workers, session.get(), worker.get());
    Json results = experiment.run(options, campaign);
    // The supervisor merges and emits the JSON; a worker's stdout must stay
    // silent so it can never interleave with the real artifact.
    if (worker) return {};

    // The envelope stays a pure function of the experiment inputs: worker
    // count and wall-clock go to stderr only.  A complete fault-tolerant
    // run adds nothing to it - byte-identity with the plain path is the
    // whole point - while a partial run appends an explicit manifest of
    // the shards that never completed.
    Json doc = Json::object();
    doc.set("experiment", experiment.name)
        .set("description", experiment.description)
        .set("seed", options.master_seed)
        .set("results", std::move(results));
    const bool partial = session && !session->incomplete().empty();
    if (partial) {
      Json manifest = Json::array();
      for (const IncompleteShard& shard : session->incomplete()) {
        manifest.push(Json::object()
                          .set("stage", shard.stage)
                          .set("task", static_cast<std::uint64_t>(shard.task))
                          .set("reason", shard.reason));
      }
      doc.set("incomplete_shards", std::move(manifest));
    }
    ExperimentRun run{partial ? kExitPartial : kExitOk,
                      doc.dump(compact ? -1 : 2)};
    if (compact) run.json += '\n';
    return run;
  } catch (const Interrupted& e) {
    std::fprintf(stderr, "[tsc_run] %s\n", e.what());
    return {kExitInterrupted, {}};
  } catch (const CampaignAborted& e) {
    return failed(e.what());
  } catch (const CheckpointError& e) {
    return failed(std::string("checkpoint error: ") + e.what());
  } catch (const DispatchError& e) {
    return failed(std::string("dispatch error: ") + e.what());
  } catch (const std::exception& e) {
    return failed("experiment '" + experiment.name + "' failed: " + e.what());
  }
}

int experiment_main(int argc, char** argv) {
  RunOptions options;
  DispatchOptions dispatch;
  std::string experiment_name;
  std::string output_path;
  bool compact = false;

  // CLI contract: EVERY malformed or unknown flag exits 2 with the usage
  // text on stderr (pinned by the CLI-contract tests).
  const auto usage_error = [](const std::string& msg) {
    std::fprintf(stderr, "tsc_run: %s\n", msg.c_str());
    print_usage(stderr);
    return static_cast<int>(kExitUsage);
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    std::uint64_t v = 0;
    if (arg == "--list") {
      for (const Experiment& e : all_experiments()) {
        std::printf("%-24s %s\n", e.name.c_str(), e.description.c_str());
      }
      return kExitOk;
    }
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return kExitOk;
    }
    if (arg == "--json") {
      compact = true;
    } else if (arg == "--fast") {
      options.fast = true;
    } else if (arg == "--resume") {
      options.ft.resume = true;
    } else if (arg == "--allow-partial") {
      options.ft.allow_partial = true;
    } else if (arg == "--experiment" || arg == "--checkpoint" ||
               arg == "--output" || arg == "--inject-fault" ||
               arg == "--dispatch-worker") {
      const char* val = next();
      if (val == nullptr) {
        return usage_error(arg + " needs a value");
      }
      if (arg == "--experiment") {
        experiment_name = val;
      } else if (arg == "--checkpoint") {
        options.ft.checkpoint_path = val;
      } else if (arg == "--output") {
        output_path = val;
      } else if (arg == "--dispatch-worker") {
        // Internal: "R,W" pipe fds handed down by the supervisor.
        const std::string pair = val;
        const std::size_t comma = pair.find(',');
        std::uint64_t r = 0;
        std::uint64_t w = 0;
        if (comma == std::string::npos ||
            !parse_u64(pair.substr(0, comma).c_str(), r) ||
            !parse_u64(pair.substr(comma + 1).c_str(), w)) {
          return usage_error("--dispatch-worker needs R,W pipe fds");
        }
        dispatch.read_fd = static_cast<int>(r);
        dispatch.write_fd = static_cast<int>(w);
      } else {
        std::string error;
        const std::optional<FaultSpec> spec = parse_fault_spec(val, &error);
        if (!spec) {
          return usage_error("--inject-fault: " + error);
        }
        options.ft.fault = *spec;
      }
    } else if (arg == "--samples" || arg == "--seed" || arg == "--shards" ||
               arg == "--shard-size" || arg == "--checkpoint-every" ||
               arg == "--max-attempts" || arg == "--watchdog-ms" ||
               arg == "--checkpoint-interval-ms" || arg == "--dispatch" ||
               arg == "--heartbeat-ms" || arg == "--backoff-ms" ||
               arg == "--backoff-cap-ms" || arg == "--worker-id") {
      const char* val = next();
      if (val == nullptr || !parse_u64(val, v)) {
        return usage_error(arg + " needs an unsigned integer value" +
                           (val != nullptr ? ", got '" + std::string(val) + "'"
                                           : ""));
      }
      if (arg == "--samples") {
        options.samples = static_cast<std::size_t>(v);
      } else if (arg == "--seed") {
        options.master_seed = v;
      } else if (arg == "--shards") {
        options.workers = static_cast<unsigned>(v);
      } else if (arg == "--shard-size") {
        options.shard_size = static_cast<std::size_t>(v);
      } else if (arg == "--checkpoint-every") {
        options.ft.checkpoint_every = std::max<std::size_t>(1, v);
      } else if (arg == "--checkpoint-interval-ms") {
        options.ft.checkpoint_interval_ms = v;
      } else if (arg == "--max-attempts") {
        if (v == 0) {
          return usage_error("--max-attempts must be at least 1");
        }
        options.ft.max_attempts = static_cast<int>(v);
      } else if (arg == "--dispatch") {
        if (v == 0) {
          return usage_error(
              "--dispatch needs at least 1 worker process (omit the flag "
              "for the in-process path)");
        }
        if (v > 256) {
          return usage_error("--dispatch supports at most 256 workers");
        }
        dispatch.processes = static_cast<int>(v);
      } else if (arg == "--heartbeat-ms") {
        dispatch.heartbeat_ms = v;
      } else if (arg == "--backoff-ms") {
        options.ft.backoff.base_ms = v;
      } else if (arg == "--backoff-cap-ms") {
        options.ft.backoff.cap_ms = v;
      } else if (arg == "--worker-id") {
        dispatch.worker_id = static_cast<int>(v);
      } else {
        options.ft.watchdog_ms = v;
      }
    } else {
      return usage_error("unknown option: " + arg);
    }
  }

  if (options.ft.resume && options.ft.checkpoint_path.empty()) {
    return usage_error("--resume needs --checkpoint FILE");
  }
  if (dispatch.processes > 0 && dispatch.worker()) {
    return usage_error("--dispatch and --dispatch-worker are exclusive");
  }

  // Environment test seams (CI drives these where flags are awkward).
  if (const char* env = std::getenv("TSC_INJECT_FAULT");
      env != nullptr && options.ft.fault.kind == FaultKind::kNone) {
    std::string error;
    const std::optional<FaultSpec> spec = parse_fault_spec(env, &error);
    if (!spec) {
      return usage_error(std::string("TSC_INJECT_FAULT: ") + error);
    }
    options.ft.fault = *spec;
  }
  if (const char* env = std::getenv("TSC_STOP_AFTER")) {
    std::uint64_t n = 0;
    if (parse_u64(env, n)) options.ft.stop_after = static_cast<std::size_t>(n);
  }

  // Process-fatal fault kinds really abort or spin: only a --dispatch
  // worker subprocess can contain that, so the in-process paths refuse.
  if (fault_kind_is_process_fatal(options.ft.fault.kind) &&
      dispatch.processes == 0 && !dispatch.worker()) {
    return usage_error(std::string("--inject-fault kind=") +
                       to_string(options.ft.fault.kind) +
                       " is process-fatal and needs --dispatch N");
  }

  if (experiment_name.empty()) {
    print_usage(stderr);
    return kExitUsage;
  }
  const Experiment* experiment = find_experiment(experiment_name);
  if (experiment == nullptr) {
    std::fprintf(stderr, "unknown experiment '%s'; available:\n",
                 experiment_name.c_str());
    for (const Experiment& e : all_experiments()) {
      std::fprintf(stderr, "  %s\n", e.name.c_str());
    }
    return kExitUsage;
  }

  if (dispatch.processes > 0) {
    // Workers recompute the identical shard plan from the identical scale
    // knobs; checkpointing stays supervisor-side.
    dispatch.exe = resolve_dispatch_exe(argc > 0 ? argv[0] : nullptr);
    dispatch.worker_args = {
        "--experiment", experiment->name,
        "--samples", std::to_string(options.samples),
        "--seed", std::to_string(options.master_seed),
        "--shard-size", std::to_string(options.shard_size),
        "--heartbeat-ms", std::to_string(dispatch.heartbeat_ms)};
    if (options.fast) dispatch.worker_args.emplace_back("--fast");
    if (options.ft.fault.kind != FaultKind::kNone) {
      dispatch.worker_args.emplace_back("--inject-fault");
      dispatch.worker_args.push_back(to_spec_string(options.ft.fault));
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentRun run =
      run_experiment(*experiment, options, dispatch, compact);
  if (run.json.empty()) return run.exit_code;
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (output_path.empty()) {
    std::fputs(run.json.c_str(), stdout);
  } else {
    try {
      atomic_write_file(output_path, run.json);
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "[tsc_run] --output: %s\n", e.what());
      return kExitFailure;
    }
  }
  std::fprintf(stderr, "[tsc_run] %s finished in %.2fs (workers=%u)\n",
               experiment->name.c_str(), elapsed, options.workers);
  return run.exit_code;
}

}  // namespace tsc::runner
