// Tests for the dispatcher's control-channel protocol below the process
// level: the message codec and its plan checks, lease settlement (the
// supervisor charges a Result or TaskFailed to the lease it recorded for
// the sender, never to the fields the sender echoes), the worker's lease
// server over real pipes, and a seeded-mutation test of FrameParser plus
// decode_message: every damaged stream is either rejected with
// DispatchError or decodes to messages inside the plan.  The mutations come
// from a fixed seed, so a failure reproduces exactly; the ASan/UBSan build
// runs this binary too.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_support.h"
#include "runner/checkpoint.h"
#include "runner/dispatcher.h"
#include "runner/thread_pool.h"

namespace tsc::runner {
namespace {

const StagePlan kPlan{{"fig5/deterministic", 6}, {"attack_matrix", 56}};

Message lease_msg(const std::string& stage, std::size_t task, int attempt) {
  Message m;
  m.type = MsgType::kLease;
  m.lease = {stage, task, attempt};
  return m;
}

Message result_msg(const std::string& stage, std::size_t count,
                   std::size_t task, int attempt, Bytes payload) {
  Message m;
  m.type = MsgType::kResult;
  m.lease = {stage, task, attempt};
  m.count = count;
  m.checksum = fnv1a64(payload.data(), payload.size());
  m.payload = std::move(payload);
  return m;
}

Message failed_msg(const std::string& stage, std::size_t count,
                   std::size_t task, int attempt) {
  Message m;
  m.type = MsgType::kTaskFailed;
  m.lease = {stage, task, attempt};
  m.count = count;
  m.reason = "injected fault";
  return m;
}

Message bare_msg(MsgType type) {
  Message m;
  m.type = type;
  m.worker_id = type == MsgType::kHello ? 3 : 0;
  return m;
}

/// One honest message of every type.
std::vector<Message> honest_messages() {
  Bytes payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 % 11 == 0 ? 0 : i);
  }
  return {bare_msg(MsgType::kHello),
          bare_msg(MsgType::kHeartbeat),
          lease_msg("attack_matrix", 17, 1),
          result_msg("attack_matrix", 56, 17, 1, payload),
          failed_msg("fig5/deterministic", 6, 5, 2),
          bare_msg(MsgType::kShutdown)};
}

Bytes framed(const Bytes& body) {
  Bytes out(4);
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body.size() >> (8 * i));
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// The fuzz oracle: `body` is rejected with DispatchError, or it decodes to
/// a message of a known type that stays inside `plan`.
bool decodes_in_plan(const Bytes& body, const StagePlan& plan) {
  Message m;
  try {
    m = decode_message(body, plan);
  } catch (const DispatchError&) {
    return false;
  }
  switch (m.type) {
    case MsgType::kHello:
    case MsgType::kHeartbeat:
    case MsgType::kShutdown:
      break;
    case MsgType::kLease:
    case MsgType::kResult:
    case MsgType::kTaskFailed: {
      const auto stage = plan.find(m.lease.stage);
      EXPECT_NE(stage, plan.end()) << m.lease.stage;
      if (stage == plan.end()) break;
      EXPECT_LT(m.lease.task, stage->second);
      EXPECT_GE(m.lease.attempt, 0);
      if (m.type != MsgType::kLease) {
        EXPECT_EQ(m.count, stage->second);
      }
      break;
    }
    default:
      ADD_FAILURE() << "decoded an unknown message type "
                    << static_cast<int>(m.type);
  }
  return true;
}

// --- message codec -----------------------------------------------------------

TEST(MessageCodecTest, EveryTypeRoundTrips) {
  for (const Message& m : honest_messages()) {
    const Message back = decode_message(encode_message(m), kPlan);
    EXPECT_EQ(back.type, m.type);
    EXPECT_EQ(back.worker_id, m.worker_id);
    EXPECT_EQ(back.lease, m.lease);
    EXPECT_EQ(back.count, m.count);
    EXPECT_EQ(back.payload, m.payload);
    EXPECT_EQ(back.checksum, m.checksum);
    EXPECT_EQ(back.reason, m.reason);
  }
}

TEST(MessageCodecTest, RejectsMessagesOutsideThePlan) {
  const auto rejects = [](const Message& m) {
    EXPECT_THROW((void)decode_message(encode_message(m), kPlan),
                 DispatchError);
  };
  rejects(lease_msg("fig5/RPCache", 0, 0));         // unplanned stage
  rejects(lease_msg("attack_matrix", 56, 0));       // task out of range
  rejects(failed_msg("fig5/deterministic", 6, 6, 0));
  rejects(failed_msg("fig5/deterministic", 7, 5, 0));  // count disagrees
  rejects(result_msg("attack_matrix", 55, 3, 0, {1, 2, 3}));
}

TEST(MessageCodecTest, RejectsRetiredUnknownTruncatedAndPaddedBodies) {
  // 2 and 7 are retired type codes: no peer may send them.
  for (const std::uint8_t type : {0, 2, 7, 9, 255}) {
    EXPECT_THROW((void)decode_message(Bytes{type}, kPlan), DispatchError)
        << int{type};
  }
  EXPECT_THROW((void)decode_message(Bytes{}, kPlan), DispatchError);
  Bytes lease = encode_message(lease_msg("attack_matrix", 3, 0));
  lease.pop_back();
  EXPECT_THROW((void)decode_message(lease, kPlan), DispatchError);
  Bytes beat = encode_message(bare_msg(MsgType::kHeartbeat));
  beat.push_back(0);
  EXPECT_THROW((void)decode_message(beat, kPlan), DispatchError);
  // An attempt beyond int range must not wrap into a plausible one.
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(MsgType::kLease));
  w.put_string("attack_matrix");
  w.put_varint(3);
  w.put_varint(std::uint64_t{1} << 40);
  EXPECT_THROW((void)decode_message(w.bytes(), kPlan), DispatchError);
}

// --- lease settlement --------------------------------------------------------

TEST(SettleLeaseTest, ChargesTheSendersOwnLease) {
  const Lease held{"attack_matrix", 17, 1};
  EXPECT_EQ(settle_lease(held, result_msg("attack_matrix", 56, 17, 1, {})),
            held);
  EXPECT_EQ(settle_lease(held, failed_msg("attack_matrix", 56, 17, 1)), held);
}

TEST(SettleLeaseTest, RejectsAnswersThatDoNotMatchTheLease) {
  const Lease held{"attack_matrix", 17, 1};
  // No lease at all: a stray TaskFailed must not requeue or resolve a task.
  EXPECT_THROW((void)settle_lease(std::nullopt,
                                  failed_msg("attack_matrix", 56, 17, 1)),
               DispatchError);
  // Another worker's shard, another attempt, another stage.
  EXPECT_THROW(
      (void)settle_lease(held, failed_msg("attack_matrix", 56, 16, 1)),
      DispatchError);
  EXPECT_THROW(
      (void)settle_lease(held, failed_msg("attack_matrix", 56, 17, 0)),
      DispatchError);
  EXPECT_THROW(
      (void)settle_lease(held,
                         result_msg("fig5/deterministic", 6, 1, 1, {})),
      DispatchError);
}

/// A worker executable that says Hello and then reports a failure for
/// task 2, attempt 2, of stage "s" - a task it was never leased - and
/// exits.  Written as a shell script so the frames are byte-exact.
std::string stray_failure_worker() {
  const std::string path = ::testing::TempDir() + "tsc_stray_worker.sh";
  std::ofstream(path, std::ios::trunc)
      << "#!/bin/sh\n"
         "for arg in \"$@\"; do fds=$arg; done\n"  // --dispatch-worker R,W
         "w=${fds#*,}\n"
         "printf '\\002\\000\\000\\000\\001\\000' >&\"$w\"\n"
         "printf '\\010\\000\\000\\000\\004\\001\\163\\004\\002\\002\\001\\170'"
         " >&\"$w\"\n";
  EXPECT_EQ(::chmod(path.c_str(), 0755), 0);
  return path;
}

TEST(SettleLeaseTest, StrayTaskFailedCannotCorruptThePartialManifest) {
  // A stray TaskFailed naming the last attempt of task 2, under
  // --allow-partial, must not record task 2 incomplete or resolve it: no
  // worker holds that lease, so it is a protocol error.  The worker is
  // killed, the supervisor degrades to the in-process path, and every task
  // completes with an empty manifest.
  clear_interrupt();
  FtOptions ft;
  ft.allow_partial = true;
  ft.max_attempts = 3;
  DispatchOptions dispatch;
  dispatch.processes = 1;
  dispatch.heartbeat_ms = 0;
  dispatch.exe = stray_failure_worker();
  dispatch.max_respawns = 0;
  DispatchSupervisorSession session(ft, "toy", "fp", dispatch);
  ThreadPool pool(2);
  const auto payloads = session.run_stage(
      "s", pool, 4, [](std::size_t i) {
        return Bytes{static_cast<std::uint8_t>(i)};
      });
  ASSERT_EQ(payloads.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(payloads[i].has_value()) << "task " << i;
    EXPECT_EQ(*payloads[i], Bytes{static_cast<std::uint8_t>(i)});
  }
  EXPECT_TRUE(session.incomplete().empty())
      << "manifest lists task " << session.incomplete().front().task;
  EXPECT_TRUE(session.degraded());
}

// --- the worker's lease server -----------------------------------------------

struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    for (const int fd : fds) {
      if (fd >= 0) (void)::close(fd);
    }
  }
  /// Hand one end over to an owner that closes it.
  int release(int end) { return std::exchange(fds[end], -1); }
};

/// Every frame the other side wrote to `fd` before closing it.
std::vector<Bytes> drain_frames(int fd) {
  FrameParser parser;
  std::uint8_t buf[4096];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;) {
    parser.feed(buf, static_cast<std::size_t>(n));
  }
  std::vector<Bytes> frames;
  for (Bytes body; parser.next(body);) frames.push_back(body);
  return frames;
}

TEST(DispatchWorkerTest, ServesLeasesForEveryPlannedStageUntilShutdown) {
  Pipe to_worker;
  Pipe from_worker;
  for (const Message& m :
       {lease_msg("s", 0, 0), lease_msg("s", 1, 0), lease_msg("t", 1, 2),
        bare_msg(MsgType::kShutdown)}) {
    send_frame(to_worker.fds[1], encode_message(m));
  }
  {
    DispatchWorker worker(to_worker.release(0), from_worker.release(1),
                          /*worker_id=*/7, /*heartbeat_ms=*/0, FaultSpec{});
    worker.declare("s", 3, [](std::size_t i) -> Bytes {
      if (i == 1) throw std::runtime_error("task 1 broke");
      return Bytes{static_cast<std::uint8_t>(10 + i)};
    });
    worker.declare("t", 2, [](std::size_t i) {
      return Bytes{static_cast<std::uint8_t>(20 + i)};
    });
    worker.serve();
  }
  const StagePlan plan{{"s", 3}, {"t", 2}};
  const std::vector<Bytes> frames = drain_frames(from_worker.fds[0]);
  ASSERT_EQ(frames.size(), 4u);
  const Message hello = decode_message(frames[0], plan);
  EXPECT_EQ(hello.type, MsgType::kHello);
  EXPECT_EQ(hello.worker_id, 7u);
  const Message first = decode_message(frames[1], plan);
  EXPECT_EQ(first.type, MsgType::kResult);
  EXPECT_EQ(first.lease, (Lease{"s", 0, 0}));
  EXPECT_EQ(first.count, 3u);
  EXPECT_EQ(first.payload, Bytes{10});
  EXPECT_EQ(first.checksum, fnv1a64(first.payload.data(), 1));
  const Message failed = decode_message(frames[2], plan);
  EXPECT_EQ(failed.type, MsgType::kTaskFailed);
  EXPECT_EQ(failed.lease, (Lease{"s", 1, 0}));
  EXPECT_EQ(failed.reason, "task 1 broke");
  const Message other = decode_message(frames[3], plan);
  EXPECT_EQ(other.type, MsgType::kResult);
  EXPECT_EQ(other.lease, (Lease{"t", 1, 2}));
  EXPECT_EQ(other.payload, Bytes{21});
}

TEST(DispatchWorkerTest, UnplannedLeaseIsAProtocolErrorAndEofEndsService) {
  Pipe to_worker;
  Pipe from_worker;
  send_frame(to_worker.fds[1], encode_message(lease_msg("u", 0, 0)));
  DispatchWorker worker(to_worker.release(0), from_worker.release(1), 0, 0,
                        FaultSpec{});
  worker.declare("s", 1, [](std::size_t) { return Bytes{}; });
  EXPECT_THROW(worker.serve(), DispatchError);

  Pipe quiet;
  Pipe sink;
  (void)::close(quiet.release(1));  // the supervisor is gone: EOF at once
  DispatchWorker orphan(quiet.release(0), sink.release(1), 0, 0, FaultSpec{});
  orphan.serve();  // returns instead of blocking or throwing
}

// --- seeded mutations --------------------------------------------------------

TEST(DispatchFuzzTest, DamagedBodiesAreRejectedOrDecodeInPlan) {
  std::mt19937_64 rng(0x5EEDD15Bu);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (const Message& m : honest_messages()) {
    const Bytes body = encode_message(m);
    for (int iter = 0; iter < 1500; ++iter) {
      reset_largest_alloc();
      (decodes_in_plan(mutate(body, rng), kPlan) ? accepted : rejected) += 1;
      ASSERT_LE(largest_alloc(), kAllocLimit) << "mutant " << iter;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

TEST(DispatchFuzzTest, DamagedStreamsThroughFrameParserRejectOrDecodeInPlan) {
  Bytes stream;
  for (const Message& m : honest_messages()) {
    const Bytes frame = framed(encode_message(m));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  std::mt19937_64 rng(0xF4A3E5u);
  std::size_t frames_seen = 0;
  std::size_t streams_rejected = 0;
  for (int iter = 0; iter < 2500; ++iter) {
    const Bytes damaged = mutate(stream, rng);
    FrameParser parser;
    reset_largest_alloc();
    try {
      // Arbitrary read boundaries, as a pipe delivers them.
      for (std::size_t at = 0; at < damaged.size();) {
        const std::size_t n =
            std::min<std::size_t>(damaged.size() - at, 1 + rng() % 48);
        parser.feed(damaged.data() + at, n);
        at += n;
        for (Bytes body; parser.next(body);) {
          ++frames_seen;
          (void)decodes_in_plan(body, kPlan);
        }
      }
    } catch (const DispatchError&) {
      ++streams_rejected;  // a length beyond kMaxFrameBytes
    }
    ASSERT_LE(largest_alloc(), kAllocLimit) << "mutant " << iter;
  }
  EXPECT_GT(frames_seen, 0u);
  EXPECT_GT(streams_rejected, 0u);
}

}  // namespace
}  // namespace tsc::runner
