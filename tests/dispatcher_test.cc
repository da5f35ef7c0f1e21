// Tests for the multi-process shard dispatcher (tsc_run --dispatch N):
// the deterministic retry backoff, the process-fatal fault kinds, the
// length-prefixed control-channel framing, the CLI contract (malformed
// flags exit 2 with usage text), and the tentpole invariant - a dispatched
// campaign's merged JSON is byte-identical to the committed single-process
// goldens for any worker count, crash pattern or retry history.
//
// The end-to-end cases drive the real tsc_run binary (TSC_RUN_BINARY, a
// compile definition from CMake) as subprocesses, exactly like a user.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/dispatcher.h"
#include "runner/fault.h"

namespace tsc::runner {
namespace {

#ifndef TSC_SOURCE_DIR
#error "TSC_SOURCE_DIR must point at the repository root"
#endif
#ifndef TSC_RUN_BINARY
#error "TSC_RUN_BINARY must point at the built tsc_run executable"
#endif

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tsc_dispatch_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(TSC_SOURCE_DIR) + "/" + relative;
  std::string data = read_file(path);
  EXPECT_FALSE(data.empty()) << "missing fixture " << path;
  return data;
}

struct CliResult {
  int exit_code = -1;  ///< -1 when the process did not exit normally
  std::string out;
  std::string err;
};

/// Run `tsc_run <args>` through the shell, capturing stdout/stderr.
/// `env_prefix` is prepended verbatim (e.g. "TSC_STOP_AFTER=2").
CliResult run_tsc(const std::string& args, const std::string& env_prefix = "") {
  static int counter = 0;
  const std::string tag = std::to_string(::getpid()) + "_" +
                          std::to_string(counter++);
  const std::string out_path = temp_path("out_" + tag);
  const std::string err_path = temp_path("err_" + tag);
  const std::string cmd = env_prefix + (env_prefix.empty() ? "" : " ") +
                          std::string(TSC_RUN_BINARY) + " " + args + " > " +
                          out_path + " 2> " + err_path;
  const int status = std::system(cmd.c_str());
  CliResult result;
  if (status != -1 && WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  result.out = read_file(out_path);
  result.err = read_file(err_path);
  (void)std::remove(out_path.c_str());
  (void)std::remove(err_path.c_str());
  return result;
}

// --- deterministic retry backoff --------------------------------------------

TEST(BackoffTest, AttemptZeroAndZeroBaseProduceNoDelay) {
  const BackoffSpec spec;
  EXPECT_EQ(backoff_delay_ms(spec, 0, 0), 0u);
  EXPECT_EQ(backoff_delay_ms(spec, 7, 0), 0u);
  EXPECT_EQ(backoff_delay_ms(spec, 7, -3), 0u);
  BackoffSpec off;
  off.base_ms = 0;
  EXPECT_EQ(backoff_delay_ms(off, 7, 5), 0u);
}

TEST(BackoffTest, ScheduleIsAPinnedPureFunctionOfShardAndAttempt) {
  // The dispatcher retries after backoff_delay_ms(spec, shard, attempt) -
  // nothing else (no clocks, no RNG).  These values are frozen: changing
  // the schedule silently would change retry timing everywhere.
  const BackoffSpec spec;  // base 100 ms, cap 5000 ms
  const std::uint64_t expected[] = {105,  228,  437,  966,
                                    1975, 3364, 5473, 5902};
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(backoff_delay_ms(spec, 7, attempt),
              expected[attempt - 1])
        << "shard 7 attempt " << attempt;
    // Pure function: the same inputs always produce the same delay.
    EXPECT_EQ(backoff_delay_ms(spec, 7, attempt),
              backoff_delay_ms(spec, 7, attempt));
  }
  // The jitter term decorrelates shards retrying after the same failure.
  EXPECT_EQ(backoff_delay_ms(spec, 3, 2), 200u);
  EXPECT_EQ(backoff_delay_ms(spec, 4, 2), 217u);
}

TEST(BackoffTest, DelayIsBoundedByCapPlusJitterWindow) {
  const BackoffSpec spec;
  const std::uint64_t bound = spec.cap_ms + spec.cap_ms / 4;
  for (std::size_t shard = 0; shard < 32; ++shard) {
    for (int attempt = 1; attempt <= 40; ++attempt) {
      EXPECT_LE(backoff_delay_ms(spec, shard, attempt), bound);
    }
  }
}

// --- process-fatal fault kinds ----------------------------------------------

TEST(FaultSpecTest, ProcessFatalKindsParseAndRoundTrip) {
  for (const std::string kind : {"crash", "wedge", "kill"}) {
    const std::string spec_str = "shard=2,kind=" + kind + ",times=3";
    std::string error;
    const auto spec = parse_fault_spec(spec_str, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->shard, 2u);
    EXPECT_EQ(spec->times, 3);
    EXPECT_TRUE(fault_kind_is_process_fatal(spec->kind));
    // to_spec_string is how the supervisor forwards the fault to workers;
    // it must survive a round trip through the parser.
    EXPECT_EQ(to_spec_string(*spec), spec_str);
  }
  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kThrow, FaultKind::kCorrupt}) {
    EXPECT_FALSE(fault_kind_is_process_fatal(kind));
  }
}

// --- control-channel framing ------------------------------------------------

std::vector<std::uint8_t> frame_bytes(const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> wire;
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::uint8_t>((len >> (8 * i)) & 0xFF));
  }
  for (const std::uint8_t byte : body) wire.push_back(byte);
  return wire;
}

TEST(FrameCodecTest, SendFrameRoundTripsThroughAPipe) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<std::uint8_t> first = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> second = {};  // empty bodies are legal
  const std::vector<std::uint8_t> third(1000, 0xAB);
  send_frame(fds[1], first);
  send_frame(fds[1], second);
  send_frame(fds[1], third);
  ::close(fds[1]);

  FrameParser parser;
  std::uint8_t buf[64];
  ssize_t n = 0;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    parser.feed(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  std::vector<std::uint8_t> body;
  ASSERT_TRUE(parser.next(body));
  EXPECT_EQ(body, first);
  ASSERT_TRUE(parser.next(body));
  EXPECT_EQ(body, second);
  ASSERT_TRUE(parser.next(body));
  EXPECT_EQ(body, third);
  EXPECT_FALSE(parser.next(body));
}

TEST(FrameCodecTest, ParserHandlesArbitrarySplitPoints) {
  const std::vector<std::uint8_t> first = {9, 8, 7};
  const std::vector<std::uint8_t> second = {42};
  std::vector<std::uint8_t> wire = frame_bytes(first);
  const std::vector<std::uint8_t> tail = frame_bytes(second);
  wire.insert(wire.end(), tail.begin(), tail.end());

  // Byte-at-a-time: a frame must only appear once complete.
  FrameParser parser;
  std::vector<std::uint8_t> body;
  std::size_t yielded = 0;
  for (const std::uint8_t byte : wire) {
    parser.feed(&byte, 1);
    while (parser.next(body)) {
      ++yielded;
      EXPECT_EQ(body, yielded == 1 ? first : second);
    }
  }
  EXPECT_EQ(yielded, 2u);
}

TEST(FrameCodecTest, OversizedFrameFailsLoudly) {
  // A desynchronized stream read as a length prefix must not turn into a
  // multi-gigabyte allocation.
  FrameParser parser;
  const std::uint64_t huge = kMaxFrameBytes + 1;
  std::uint8_t header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>((huge >> (8 * i)) & 0xFF);
  }
  parser.feed(header, sizeof(header));
  std::vector<std::uint8_t> body;
  EXPECT_THROW((void)parser.next(body), DispatchError);
}

// --- CLI contract: malformed flags exit 2 with usage text -------------------

void expect_usage_error(const std::string& args, const std::string& fragment) {
  const CliResult r = run_tsc(args);
  EXPECT_EQ(r.exit_code, 2) << args << "\nstderr: " << r.err;
  EXPECT_NE(r.err.find("usage:"), std::string::npos)
      << args << " must print usage on stderr, got: " << r.err;
  EXPECT_NE(r.err.find(fragment), std::string::npos)
      << args << " stderr missing '" << fragment << "': " << r.err;
  EXPECT_TRUE(r.out.empty()) << args << " wrote to stdout: " << r.out;
}

TEST(CliContractTest, MalformedFlagsExitTwoWithUsage) {
  expect_usage_error("--experiment fig5 --dispatch 0", "--dispatch");
  expect_usage_error("--experiment fig5 --dispatch -3", "--dispatch");
  expect_usage_error("--experiment fig5 --dispatch 2 --backoff-ms -5",
                     "--backoff-ms");
  expect_usage_error("--experiment fig5 --dispatch 2 --backoff-cap-ms x",
                     "--backoff-cap-ms");
  expect_usage_error("--experiment fig5 --frobnicate", "--frobnicate");
  expect_usage_error("--experiment fig5 --samples", "--samples");
}

TEST(CliContractTest, UnknownExperimentExitsTwoListingExperiments) {
  const CliResult r = run_tsc("--experiment no_such_experiment");
  EXPECT_EQ(r.exit_code, 2) << r.err;
  EXPECT_NE(r.err.find("unknown experiment 'no_such_experiment'"),
            std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("fig5"), std::string::npos)
      << "must list the available experiments: " << r.err;
}

TEST(CliContractTest, ProcessFatalFaultKindsRequireDispatch) {
  // crash/wedge/kill really take the process down; without worker
  // isolation they would kill the campaign, so the CLI refuses them.
  for (const std::string kind : {"crash", "wedge", "kill"}) {
    expect_usage_error(
        "--experiment fig5 --inject-fault shard=0,kind=" + kind, "--dispatch");
  }
}

TEST(CliContractTest, DispatchAndWorkerModeAreMutuallyExclusive) {
  expect_usage_error("--experiment fig5 --dispatch 2 --dispatch-worker 3,4",
                     "--dispatch-worker");
  expect_usage_error("--experiment fig5 --dispatch-worker banana",
                     "--dispatch-worker");
}

TEST(CliContractTest, SerialExperimentsRejectSessionFlags) {
  // fig2, fig3 and ct_audit declare no stage: a flag that would open a
  // session must fail loudly before anything runs, never be ignored.
  const std::string ckpt = temp_path("serial.ckpt");
  (void)std::remove(ckpt.c_str());
  expect_usage_error("--experiment fig2 --checkpoint " + ckpt, "serial");
  expect_usage_error("--experiment fig3 --allow-partial", "serial");
  expect_usage_error("--experiment ct_audit --dispatch 2", "serial");
  expect_usage_error("--experiment ct_audit --inject-fault shard=0,kind=throw",
                     "serial");
  EXPECT_TRUE(read_file(ckpt).empty()) << "a rejected run wrote " << ckpt;
  EXPECT_NE(::access(ckpt.c_str(), F_OK), 0) << ckpt << " was created";
}

TEST(CliContractTest, WatchdogNeedsDispatch) {
  // Only a worker subprocess can be killed; in process the flag would be
  // a promise nothing keeps.
  expect_usage_error("--experiment fig5 --watchdog-ms 100", "--dispatch");
  expect_usage_error("--experiment fig5 --checkpoint x --watchdog-ms 100",
                     "--dispatch");
}

TEST(CliContractTest, HelpDocumentsDispatchModeAndExitsZero) {
  const CliResult r = run_tsc("--help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.out.find("--dispatch"), std::string::npos);
  EXPECT_NE(r.out.find("--checkpoint-interval-ms"), std::string::npos);
}

// --- end-to-end: dispatched runs are byte-identical to the goldens ----------

constexpr const char* kFig5Args =
    "--experiment fig5 --samples 3000 --shard-size 1000 --json";

void expect_golden(const CliResult& r, const std::string& fixture,
                   const std::string& what) {
  EXPECT_EQ(r.exit_code, 0) << what << "\nstderr: " << r.err;
  EXPECT_EQ(r.out, read_fixture(fixture)) << what << " diverged from golden";
}

TEST(DispatchIdentityTest, CleanRunMatchesGoldenForTwoWorkerCounts) {
  expect_golden(run_tsc(std::string(kFig5Args) + " --dispatch 2"),
                "tests/golden/fig5_s3000_ss1000.json", "fig5 --dispatch 2");
  expect_golden(run_tsc(std::string(kFig5Args) + " --dispatch 3"),
                "tests/golden/fig5_s3000_ss1000.json", "fig5 --dispatch 3");
}

TEST(DispatchIdentityTest, CrashedWorkerIsRetriedToGoldenBytes) {
  // abort() takes the worker down mid-shard; the supervisor reaps it,
  // respawns, retries the shard - and the merged bytes must not change.
  const CliResult r = run_tsc(
      std::string(kFig5Args) +
      " --dispatch 3 --backoff-ms 20 --inject-fault shard=1,kind=crash");
  expect_golden(r, "tests/golden/fig5_s3000_ss1000.json", "fig5 crash");
  EXPECT_NE(r.err.find("retrying"), std::string::npos) << r.err;
}

TEST(DispatchIdentityTest, SigkilledWorkerIsRetriedToGoldenBytes) {
  const CliResult r = run_tsc(
      std::string(kFig5Args) +
      " --dispatch 2 --backoff-ms 20 --inject-fault shard=0,kind=kill");
  expect_golden(r, "tests/golden/fig5_s3000_ss1000.json", "fig5 kill");
}

TEST(DispatchIdentityTest, WedgedWorkerIsReclaimedByWatchdogToGoldenBytes) {
  // The wedge spins forever with no cancellation point; only the
  // supervisor's kill-based watchdog can reclaim it.
  const CliResult r = run_tsc(
      std::string(kFig5Args) +
      " --dispatch 2 --watchdog-ms 1500 --backoff-ms 20"
      " --inject-fault shard=2,kind=wedge");
  expect_golden(r, "tests/golden/fig5_s3000_ss1000.json", "fig5 wedge");
  EXPECT_NE(r.err.find("lease deadline"), std::string::npos) << r.err;
}

TEST(DispatchIdentityTest, Sec622CrashedWorkerIsRetriedToPaperFixture) {
  // A ported per-run row: the MBPTA slices of four setups leased to
  // workers, one of them crashing, merged onto the paper fixture.
  const CliResult r = run_tsc(
      "--experiment sec622 --samples 200 --shard-size 100 --json"
      " --dispatch 2 --backoff-ms 20 --inject-fault shard=1,kind=crash");
  expect_golden(r, "tests/golden/paper/sec622_s200_ss100.json",
                "sec622 crash");
  EXPECT_NE(r.err.find("retrying"), std::string::npos) << r.err;
}

TEST(DispatchIdentityTest, SpawnFailureDegradesToInProcessGoldenBytes) {
  // When workers cannot be spawned at all the supervisor must not die: it
  // warns, falls back to the in-process path, and still matches golden.
  const CliResult r =
      run_tsc(std::string(kFig5Args) + " --dispatch 2",
              "TSC_DISPATCH_EXE=/nonexistent/tsc_run_missing");
  expect_golden(r, "tests/golden/fig5_s3000_ss1000.json", "fig5 degraded");
  EXPECT_NE(r.err.find("DEGRADED"), std::string::npos) << r.err;
}

TEST(DispatchIdentityTest, InterruptedDispatchResumesToGoldenBytes) {
  const std::string ckpt = temp_path("fig5_dispatch.ckpt");
  (void)std::remove(ckpt.c_str());
  const CliResult stopped =
      run_tsc(std::string(kFig5Args) + " --dispatch 2 --checkpoint " + ckpt,
              "TSC_STOP_AFTER=2");
  EXPECT_EQ(stopped.exit_code, 75) << stopped.err;  // EX_TEMPFAIL
  EXPECT_FALSE(read_file(ckpt).empty()) << "no checkpoint written";

  const CliResult resumed = run_tsc(std::string(kFig5Args) +
                                    " --dispatch 2 --checkpoint " + ckpt +
                                    " --resume");
  expect_golden(resumed, "tests/golden/fig5_s3000_ss1000.json",
                "fig5 dispatch resume");
  EXPECT_NE(resumed.err.find("resuming"), std::string::npos) << resumed.err;
  (void)std::remove(ckpt.c_str());
}

// The two heavier campaigns exercise the same machinery against richer
// stage structure (many stages, differing shard counts).  Debug builds are
// too slow for them; the Release tier-1 build runs them.
TEST(DispatchIdentityTest, AttackMatrixSurvivesSigkillMidShard) {
#ifndef NDEBUG
  GTEST_SKIP() << "Release-only: the attack matrix is slow in debug builds";
#endif
  const CliResult r = run_tsc(
      "--experiment attack_matrix --samples 1200 --shard-size 400 --json"
      " --dispatch 3 --backoff-ms 20 --inject-fault shard=1,kind=kill");
  expect_golden(r, "tests/golden/attack_matrix_s1200_ss400.json",
                "attack_matrix kill");
}

TEST(DispatchIdentityTest, FlushMatrixSurvivesWedgeReclaim) {
#ifndef NDEBUG
  GTEST_SKIP() << "Release-only: the flush matrix is slow in debug builds";
#endif
  const CliResult r = run_tsc(
      "--experiment flush_matrix --samples 600 --shard-size 200 --json"
      " --dispatch 2 --watchdog-ms 6000 --backoff-ms 20"
      " --inject-fault shard=1,kind=wedge");
  expect_golden(r, "tests/golden/flush_matrix_s600_ss200.json",
                "flush_matrix wedge");
}

}  // namespace
}  // namespace tsc::runner
