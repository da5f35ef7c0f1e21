// Tests for the fault-tolerance layer: exact byte codecs, checkpoint
// save/load (including version and shard-plan rejection and corrupt-record
// dropping), fault-spec parsing, the FtSession retry/watchdog/partial
// orchestration behind Campaign stages, and the tentpole contract -
// interrupt-at-shard-k + resume yields JSON byte-identical to an
// uninterrupted run, against the committed golden fixtures, for several k
// and differing worker counts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "attack/evicttime.h"
#include "attack/flushreload.h"
#include "attack/primeprobe.h"
#include "attack/profile.h"
#include "runner/campaign.h"
#include "runner/checkpoint.h"
#include "runner/codecs.h"
#include "runner/experiment.h"
#include "runner/fault.h"
#include "runner/thread_pool.h"

namespace tsc::runner {
namespace {

#ifndef TSC_SOURCE_DIR
#error "TSC_SOURCE_DIR must point at the repository root"
#endif

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tsc_ckpt_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- byte codecs -------------------------------------------------------------

TEST(ByteCodecTest, VarintRoundTripsEdgeValues) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16'383,
                                  16'384,
                                  0xFFFF'FFFFULL,
                                  0xFFFF'FFFF'FFFF'FFFFULL};
  ByteWriter writer;
  for (const std::uint64_t v : values) writer.put_varint(v);
  ByteReader reader(writer.bytes());
  for (const std::uint64_t v : values) EXPECT_EQ(reader.varint(), v);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteCodecTest, DoublesRoundTripBitExactly) {
  const double values[] = {0.0, -0.0, 1.0 / 3.0, 1e-300, 5e-324, 1e308};
  ByteWriter writer;
  for (const double v : values) writer.put_f64(v);
  ByteReader reader(writer.bytes());
  for (const double v : values) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(ByteCodecTest, ReaderThrowsOnTruncation) {
  ByteWriter writer;
  writer.put_string("hello");
  std::vector<std::uint8_t> bytes = std::move(writer).take();
  bytes.pop_back();
  ByteReader reader(bytes);
  EXPECT_THROW((void)reader.string(), CheckpointError);
}

TEST(ByteCodecTest, TimingProfileRoundTripIsExact) {
  attack::TimingProfile profile;
  crypto::Block pt{};
  for (int i = 0; i < 200; ++i) {
    for (std::size_t b = 0; b < pt.size(); ++b) {
      pt[b] = static_cast<std::uint8_t>(i * 7 + b * 13);
    }
    profile.add(pt, static_cast<double>(900 + i % 37));
  }
  ByteWriter writer;
  ProfileCodec::put(writer, profile);
  ByteReader reader(writer.bytes());
  const attack::TimingProfile copy = ProfileCodec::get_timing(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.samples(), profile.samples());
  EXPECT_EQ(copy.global_mean(), profile.global_mean());
  for (int pos = 0; pos < 16; ++pos) {
    for (int v = 0; v < 256; ++v) {
      EXPECT_EQ(copy.cell_count(pos, v), profile.cell_count(pos, v));
      EXPECT_EQ(copy.cell_mean(pos, v), profile.cell_mean(pos, v));
    }
  }
}

TEST(ByteCodecTest, PrimeProbeOutcomeRoundTripIsExact) {
  attack::PrimeProbeOutcome outcome(/*sets=*/8, /*line_classes=*/4);
  crypto::Block pt{};
  std::vector<std::uint32_t> misses(8);
  for (int i = 0; i < 64; ++i) {
    pt[0] = static_cast<std::uint8_t>(i);
    for (std::size_t s = 0; s < misses.size(); ++s) {
      misses[s] = static_cast<std::uint32_t>((i + s) % 3);
    }
    outcome.profile.add(pt, misses);
    outcome.channel.add(i % 4, i % 5);
  }
  ByteWriter writer;
  put_pp_outcome(writer, outcome);
  ByteReader reader(writer.bytes());
  const attack::PrimeProbeOutcome copy = get_pp_outcome(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.profile.samples(), outcome.profile.samples());
  EXPECT_EQ(copy.profile.sets(), outcome.profile.sets());
  for (int v = 0; v < 256; ++v) {
    for (std::uint32_t s = 0; s < 8; ++s) {
      EXPECT_EQ(copy.profile.cell_mean(0, v, s),
                outcome.profile.cell_mean(0, v, s));
    }
  }
  ASSERT_EQ(copy.channel.x_classes(), outcome.channel.x_classes());
  ASSERT_EQ(copy.channel.y_bins(), outcome.channel.y_bins());
  for (std::size_t x = 0; x < 4; ++x) {
    for (std::size_t y = 0; y < 5; ++y) {
      EXPECT_EQ(copy.channel.cell(x, y), outcome.channel.cell(x, y));
    }
  }
}

TEST(ByteCodecTest, EvictTimeOutcomeRoundTripIsExact) {
  attack::EvictTimeOutcome outcome(/*sets=*/4, /*line_classes=*/4);
  crypto::Block pt{};
  for (int i = 0; i < 64; ++i) {
    pt[1] = static_cast<std::uint8_t>(i * 3);
    outcome.profile.add(pt, static_cast<std::uint32_t>(i % 4),
                        static_cast<Cycles>(1000 + i));
    outcome.channel.add(i % 4, i % 2);
  }
  ByteWriter writer;
  put_et_outcome(writer, outcome);
  ByteReader reader(writer.bytes());
  const attack::EvictTimeOutcome copy = get_et_outcome(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.profile.samples(), outcome.profile.samples());
  for (int v = 0; v < 256; ++v) {
    for (std::uint32_t s = 0; s < 4; ++s) {
      EXPECT_EQ(copy.profile.cell_mean(1, v, s),
                outcome.profile.cell_mean(1, v, s));
      EXPECT_EQ(copy.profile.cell_count(1, v, s),
                outcome.profile.cell_count(1, v, s));
    }
  }
}

TEST(ByteCodecTest, FlushOutcomeRoundTripIsExact) {
  attack::FlushOutcome outcome(/*lines=*/16, /*line_classes=*/4);
  crypto::Block pt{};
  std::vector<std::uint8_t> touched(16);
  for (int i = 0; i < 96; ++i) {
    for (std::size_t b = 0; b < pt.size(); ++b) {
      pt[b] = static_cast<std::uint8_t>(i * 11 + b * 5);
    }
    for (std::size_t m = 0; m < touched.size(); ++m) {
      touched[m] = static_cast<std::uint8_t>((i + m) % 3 == 0);
    }
    outcome.profile.add(pt, touched);
    outcome.channel.add(i % 4, i % 5);
  }
  ByteWriter writer;
  put_flush_outcome(writer, outcome);
  ByteReader reader(writer.bytes());
  const attack::FlushOutcome copy = get_flush_outcome(reader);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(copy.profile.samples(), outcome.profile.samples());
  EXPECT_EQ(copy.profile.lines(), outcome.profile.lines());
  for (int pos = 0; pos < attack::FlushProfile::kPositions; ++pos) {
    for (int v = 0; v < attack::FlushProfile::kValues; ++v) {
      ASSERT_EQ(copy.profile.cell_count(pos, v),
                outcome.profile.cell_count(pos, v));
      for (std::uint32_t m = 0; m < 16; ++m) {
        ASSERT_EQ(copy.profile.cell_mean(pos, v, m),
                  outcome.profile.cell_mean(pos, v, m));
      }
    }
  }
  ASSERT_EQ(copy.channel.x_classes(), outcome.channel.x_classes());
  ASSERT_EQ(copy.channel.y_bins(), outcome.channel.y_bins());
  for (std::size_t x = 0; x < copy.channel.x_classes(); ++x) {
    for (std::size_t y = 0; y < copy.channel.y_bins(); ++y) {
      EXPECT_EQ(copy.channel.cell(x, y), outcome.channel.cell(x, y));
    }
  }
}

// --- fault-spec parsing ------------------------------------------------------

TEST(FaultSpecTest, ParsesFullSpec) {
  std::string error;
  const auto spec = parse_fault_spec("shard=5,kind=corrupt,times=2", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->shard, 5u);
  EXPECT_EQ(spec->kind, FaultKind::kCorrupt);
  EXPECT_EQ(spec->times, 2);
}

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(parse_fault_spec("", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=1", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("kind=throw", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=1,kind=explode", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=x,kind=throw", &error).has_value());
  EXPECT_FALSE(parse_fault_spec("shard=1,kind=throw,times=0", &error)
                   .has_value());
  EXPECT_FALSE(parse_fault_spec("bogus", &error).has_value());
  // The in-process hang (and the watchdog that abandoned it) is gone: a
  // wedged shard is only reclaimable across a process boundary, which is
  // kind=wedge under --dispatch.
  EXPECT_FALSE(parse_fault_spec("shard=1,kind=hang", &error).has_value());
  EXPECT_NE(error.find("wedge"), std::string::npos) << error;
}

// --- checkpoint file ---------------------------------------------------------

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string path = temp_path("roundtrip.bin");
  Checkpoint ckpt("fig5", "fp-1");
  ckpt.put("stage-a", 4, 0, {1, 2, 3});
  ckpt.put("stage-a", 4, 2, {4, 5});
  ckpt.put("stage-b", 2, 1, {});
  ckpt.save(path);

  const Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.experiment(), "fig5");
  EXPECT_EQ(loaded.fingerprint(), "fp-1");
  EXPECT_EQ(loaded.record_count(), 3u);
  ASSERT_NE(loaded.find("stage-a", 4, 0), nullptr);
  EXPECT_EQ(*loaded.find("stage-a", 4, 0), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(loaded.find("stage-a", 4, 1), nullptr);
  ASSERT_NE(loaded.find("stage-b", 2, 1), nullptr);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsShardPlanMismatch) {
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 4, 0, {1});
  // Same stage, different task count: the shard plan changed and the
  // records cannot mean what they say.
  EXPECT_THROW((void)ckpt.find("stage", 8, 0), CheckpointError);
  EXPECT_THROW(ckpt.put("stage", 8, 1, {2}), CheckpointError);
}

TEST(CheckpointTest, RejectsVersionMismatch) {
  const std::string path = temp_path("version.bin");
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 1, 0, {9});
  ckpt.save(path);

  // The format version is a fixed little-endian u32 right after the 6-byte
  // magic.  Both a newer version and the old rewrite-whole-file format
  // (version 1) must be refused outright, never reinterpreted.
  const std::string raw = read_file(path);
  ASSERT_GT(raw.size(), 10u);
  ASSERT_EQ(raw.substr(6, 4), std::string("\x02\x00\x00\x00", 4));
  for (const char version : {'\x03', '\x01'}) {
    std::string patched = raw;
    patched[6] = version;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << patched;
    try {
      (void)Checkpoint::load(path);
      FAIL() << "expected CheckpointError for version " << int{version};
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsNonCheckpointFile) {
  const std::string path = temp_path("garbage.bin");
  std::ofstream(path, std::ios::binary) << "not a checkpoint at all";
  EXPECT_THROW((void)Checkpoint::load(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, DropsChecksumCorruptRecordsKeepsRest) {
  const std::string path = temp_path("corrupt.bin");
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 2, 0, {10, 20, 30, 40});
  ckpt.put("stage", 2, 1, {50, 60, 70, 80});
  ckpt.save(path);

  // Flip one payload byte on disk: that record's checksum no longer
  // matches, so load drops it (the shard re-runs) but keeps the other.
  const std::string raw = read_file(path);
  const std::size_t at = raw.find(std::string("\x0a\x14\x1e\x28", 4));
  ASSERT_NE(at, std::string::npos);
  std::string flipped = raw;
  flipped[at + 1] = static_cast<char>(0x7F);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
  Checkpoint loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.record_count(), 1u);
  EXPECT_EQ(loaded.find("stage", 2, 0), nullptr);
  EXPECT_NE(loaded.find("stage", 2, 1), nullptr);

  // The checksum covers the whole record, not just the payload: a flipped
  // task index is caught too, instead of filing the payload under the
  // wrong shard.  Record 0 is framed "stage", task count 2, task 0, length
  // 4, so its task byte sits two bytes before the payload.
  ASSERT_EQ(raw[at - 2], '\x00');
  std::string retasked = raw;
  retasked[at - 2] = '\x01';
  std::ofstream(path, std::ios::binary | std::ios::trunc) << retasked;
  loaded = Checkpoint::load(path);
  EXPECT_EQ(loaded.record_count(), 1u);
  EXPECT_EQ(loaded.find("stage", 2, 0), nullptr);
  ASSERT_NE(loaded.find("stage", 2, 1), nullptr);
  EXPECT_EQ(*loaded.find("stage", 2, 1),
            (std::vector<std::uint8_t>{50, 60, 70, 80}));
  std::remove(path.c_str());
}

TEST(CheckpointTest, SavesAppendOnlyNewRecords) {
  const std::string path = temp_path("append.bin");
  std::remove(path.c_str());
  Checkpoint ckpt("fig5", "fp");
  ckpt.put("stage", 3, 0, std::vector<std::uint8_t>(100, 1));
  const std::size_t first = ckpt.save(path);
  EXPECT_EQ(read_file(path).size(), first);

  // A later save appends just the new record; a save with nothing new
  // writes nothing.
  ckpt.put("stage", 3, 1, std::vector<std::uint8_t>(100, 2));
  const std::size_t second = ckpt.save(path);
  EXPECT_LT(second, first);
  EXPECT_EQ(read_file(path).size(), first + second);
  EXPECT_EQ(ckpt.save(path), 0u);

  // Saving elsewhere starts a fresh snapshot there.
  const std::string other = temp_path("append_other.bin");
  EXPECT_EQ(ckpt.save(other), first + second);
  EXPECT_EQ(read_file(other), read_file(path));
  std::remove(path.c_str());
  std::remove(other.c_str());
}

TEST(CheckpointTest, TornTailIsDroppedAndCompactedAwayOnNextSave) {
  const std::string path = temp_path("torn.bin");
  const auto record = [](std::size_t task) {
    return std::vector<std::uint8_t>(50, static_cast<std::uint8_t>(task + 1));
  };
  Checkpoint ckpt("fig5", "fp");
  for (std::size_t task = 0; task < 3; ++task) {
    ckpt.put("stage", 4, task, record(task));
    (void)ckpt.save(path);
  }
  const std::string whole = read_file(path);

  // A crash mid-append: the last record is cut short.  Load keeps the two
  // whole records and drops the tail, whose shard re-runs.
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << whole.substr(0, whole.size() - 7);
  Checkpoint resumed = Checkpoint::load(path);
  EXPECT_EQ(resumed.record_count(), 2u);
  EXPECT_EQ(resumed.find("stage", 4, 2), nullptr);

  // The first save after a load is a compacted snapshot, never an append
  // after the torn bytes: every record survives the reload, and the file
  // is exactly what a fresh save of the same records writes.
  resumed.put("stage", 4, 2, record(2));
  resumed.put("stage", 4, 3, record(3));
  (void)resumed.save(path);
  const Checkpoint reloaded = Checkpoint::load(path);
  EXPECT_EQ(reloaded.record_count(), 4u);
  for (std::size_t task = 0; task < 4; ++task) {
    ASSERT_NE(reloaded.find("stage", 4, task), nullptr) << task;
    EXPECT_EQ(*reloaded.find("stage", 4, task), record(task));
  }
  const std::string fresh_path = temp_path("torn_fresh.bin");
  Checkpoint fresh("fig5", "fp");
  for (std::size_t task = 0; task < 4; ++task) {
    fresh.put("stage", 4, task, record(task));
  }
  (void)fresh.save(fresh_path);
  EXPECT_EQ(read_file(path), read_file(fresh_path));
  std::remove(path.c_str());
  std::remove(fresh_path.c_str());
}

TEST(CheckpointTest, AtomicWriteReplacesExistingFile) {
  const std::string path = temp_path("atomic.txt");
  atomic_write_file(path, "first");
  EXPECT_EQ(read_file(path), "first");
  atomic_write_file(path, "second");
  EXPECT_EQ(read_file(path), "second");
  std::remove(path.c_str());
}

TEST(CheckpointTest, AtomicWriteFailsLoudlyAndLeavesNoTempFile) {
  // Durability is allowed to fail, but never silently: an unwritable
  // destination must throw with errno detail, leave the old file alone,
  // and not litter a .tmp alongside it.
  const std::string path =
      temp_path("no_such_dir") + "/nested/out.json";
  try {
    atomic_write_file(path, "payload");
    FAIL() << "atomic_write_file must throw for a missing directory";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open temp file"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(read_file(path).empty());
  EXPECT_TRUE(read_file(path + ".tmp").empty());
}

// --- FtSession orchestration through Campaign stages (toy tasks) -----------

const TaskCodec<std::uint64_t>& u64_codec() {
  static const TaskCodec<std::uint64_t> codec{
      [](const std::uint64_t& v, ByteWriter& w) { w.put_varint(v); },
      [](ByteReader& r) { return r.varint(); }};
  return codec;
}

std::uint64_t toy_task(std::size_t i) {
  return static_cast<std::uint64_t>(i * i + 1);
}

TEST(FtSessionTest, InjectedThrowIsRetriedAndRecovered) {
  clear_interrupt();
  FtOptions options;
  options.fault = {2, FaultKind::kThrow, 1};
  FtSession session(options, "toy", "fp");
  Campaign campaign(2, &session);
  const auto out = campaign.stage("s", 8, toy_task, u64_codec());
  for (std::size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(out[i].has_value());
    EXPECT_EQ(*out[i], toy_task(i));
  }
  EXPECT_EQ(session.failed_attempts(), 1u);
}

TEST(FtSessionTest, TimeBasedCadenceFlushesMidStage) {
  clear_interrupt();
  const std::string path = temp_path("interval.bin");
  std::remove(path.c_str());

  // Count cadence effectively off (flush every 1000 completions), time
  // cadence at 1 ms: a stage of slow-ish tasks must still flush mid-stage.
  FtOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1000;
  options.checkpoint_interval_ms = 1;
  FtSession timed(options, "toy", "fp");
  Campaign campaign(1, &timed);
  const auto slow_task = [](std::size_t i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return toy_task(i);
  };
  (void)campaign.stage("s", 6, slow_task, u64_codec());
  // 6 completions at >= 1 ms apart with a 1 ms budget: every completion is
  // flush-due, and the final stage flush rides on top.
  EXPECT_GE(timed.flush_count(), 3u);
  EXPECT_EQ(Checkpoint::load(path).record_count(), 6u);
  std::remove(path.c_str());

  // Without the interval the same stage coasts on the count cadence and
  // flushes exactly once, at stage end.
  clear_interrupt();
  FtOptions counted = options;
  counted.checkpoint_interval_ms = 0;
  FtSession plain(counted, "toy", "fp");
  (void)Campaign(1, &plain).stage("s", 6, slow_task, u64_codec());
  EXPECT_EQ(plain.flush_count(), 1u);
  std::remove(path.c_str());
}

TEST(FtSessionTest, FlushingEveryCompletionWritesAboutTheFileOnce) {
  clear_interrupt();
  const std::string path = temp_path("linear.bin");
  std::remove(path.c_str());

  // The journal appends each flush's new records, so a stage flushed after
  // every one of its k completions writes its file about once.  Rewriting
  // the whole file per flush would write it about k/2 times.
  FtOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  FtSession session(options, "toy", "fp");
  Campaign campaign(2, &session);
  const TaskCodec<std::uint64_t> wide{
      [](const std::uint64_t& v, ByteWriter& w) {
        for (int i = 0; i < 64; ++i) w.put_varint(v);
      },
      [](ByteReader& r) {
        std::uint64_t v = 0;
        for (int i = 0; i < 64; ++i) v = r.varint();
        return v;
      }};
  constexpr std::size_t kTasks = 40;
  (void)campaign.stage("s", kTasks, toy_task, wide);
  EXPECT_EQ(session.flush_count(), kTasks);
  const std::size_t file_size = read_file(path).size();
  EXPECT_EQ(Checkpoint::load(path).record_count(), kTasks);
  EXPECT_GE(session.checkpoint_bytes_written(), file_size);
  EXPECT_LE(session.checkpoint_bytes_written(), 2 * file_size);
  std::remove(path.c_str());
}

TEST(FtSessionTest, InjectedCorruptionIsCaughtByChecksumAndRetried) {
  clear_interrupt();
  FtOptions options;
  options.fault = {4, FaultKind::kCorrupt, 1};
  FtSession session(options, "toy", "fp");
  Campaign campaign(2, &session);
  const auto out = campaign.stage("s", 8, toy_task, u64_codec());
  ASSERT_TRUE(out[4].has_value());
  EXPECT_EQ(*out[4], toy_task(4));
  EXPECT_EQ(session.failed_attempts(), 1u);
}

TEST(FtSessionTest, ExhaustedRetriesAbortWithoutAllowPartial) {
  clear_interrupt();
  FtOptions options;
  options.fault = {3, FaultKind::kThrow, 10};  // outlives the budget
  options.max_attempts = 2;
  FtSession session(options, "toy", "fp");
  Campaign campaign(2, &session);
  EXPECT_THROW((void)campaign.stage("s", 8, toy_task, u64_codec()),
               CampaignAborted);
}

TEST(FtSessionTest, AllowPartialRecordsExhaustedShardInManifest) {
  clear_interrupt();
  FtOptions options;
  options.fault = {3, FaultKind::kThrow, 10};
  options.max_attempts = 2;
  options.allow_partial = true;
  FtSession session(options, "toy", "fp");
  Campaign campaign(2, &session);
  const auto out = campaign.stage("s", 8, toy_task, u64_codec());
  EXPECT_FALSE(out[3].has_value());
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 3) {
      EXPECT_TRUE(out[i].has_value());
    }
  }
  ASSERT_EQ(session.incomplete().size(), 1u);
  EXPECT_EQ(session.incomplete()[0].stage, "s");
  EXPECT_EQ(session.incomplete()[0].task, 3u);
}

TEST(FtSessionTest, StopAfterInterruptsWithCheckpointThenResumes) {
  clear_interrupt();
  const std::string path = temp_path("stop_resume.bin");
  std::remove(path.c_str());

  FtOptions options;
  options.checkpoint_path = path;
  options.checkpoint_every = 1;
  options.stop_after = 3;
  {
    FtSession session(options, "toy", "fp");
    Campaign campaign(2, &session);
    EXPECT_THROW((void)campaign.stage("s", 10, toy_task, u64_codec()),
                 Interrupted);
  }
  const Checkpoint flushed = Checkpoint::load(path);
  EXPECT_GE(flushed.record_count(), 3u);
  EXPECT_LT(flushed.record_count(), 10u);

  clear_interrupt();
  FtOptions resume = options;
  resume.stop_after = 0;
  resume.resume = true;
  FtSession session(resume, "toy", "fp");
  Campaign campaign(4, &session);  // a different worker count: no matter
  const auto out = campaign.stage("s", 10, toy_task, u64_codec());
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(out[i].has_value());
    EXPECT_EQ(*out[i], toy_task(i));
  }
  std::remove(path.c_str());
}

TEST(FtSessionTest, ResumeRejectsFingerprintAndExperimentMismatch) {
  clear_interrupt();
  const std::string path = temp_path("mismatch.bin");
  Checkpoint ckpt("toy", "fp-original");
  ckpt.put("s", 4, 0, {1});
  ckpt.save(path);

  FtOptions options;
  options.checkpoint_path = path;
  options.resume = true;
  EXPECT_THROW(FtSession(options, "toy", "fp-DIFFERENT"), CheckpointError);
  EXPECT_THROW(FtSession(options, "other-experiment", "fp-original"),
               CheckpointError);
  // The matching pair loads fine.
  FtSession ok(options, "toy", "fp-original");
  EXPECT_EQ(ok.completed_tasks(), 0u);
  std::remove(path.c_str());
}

TEST(FtSessionTest, ResumeWithMissingFileStartsFresh) {
  clear_interrupt();
  FtOptions options;
  options.checkpoint_path = temp_path("never_written.bin");
  options.resume = true;
  FtSession session(options, "toy", "fp");
  Campaign campaign(2, &session);
  const auto out = campaign.stage("s", 4, toy_task, u64_codec());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(out[i].has_value());
  std::remove(options.checkpoint_path.c_str());
}

TEST(CampaignTest, PlainStagesNeverEncodeAndFinishReducesOnce) {
  // Without a session a stage is a typed parallel_map: the codec must not
  // run at all, and finish() hands back exactly what the reduce builds.
  const TaskCodec<std::uint64_t> refuses{
      [](const std::uint64_t&, ByteWriter&) { FAIL() << "encoded"; },
      [](ByteReader&) -> std::uint64_t { throw CheckpointError("decoded"); }};
  Campaign campaign(3);
  const auto out = campaign.stage("s", 7, toy_task, refuses);
  ASSERT_EQ(out.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(out[i], toy_task(i));
  int reduces = 0;
  const Json doc = campaign.finish([&] {
    ++reduces;
    return Json(static_cast<std::uint64_t>(*out[6]));
  });
  EXPECT_EQ(reduces, 1);
  EXPECT_EQ(doc.dump(-1), std::to_string(toy_task(6)));
}

// --- resume bit-identity against the golden fixtures -------------------------

std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(TSC_SOURCE_DIR) + "/" + relative;
  std::string text = read_file(path);
  EXPECT_FALSE(text.empty()) << "missing fixture " << path;
  return text;
}

/// Run an experiment with fault-tolerance options `ft` through the same
/// entry point as `tsc_run --json`.
ExperimentRun run_ft(const std::string& name, std::size_t samples,
                     std::size_t shard_size, unsigned workers,
                     const FtOptions& ft) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr);
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = workers;
  options.ft = ft;
  return run_experiment(*experiment, options);
}

/// The tentpole contract, end to end: run with a checkpoint and an
/// interrupt after `stop_after` completed shards, then resume (with a
/// DIFFERENT worker count) and demand byte-identity with `expected`.
/// With `chop_bytes` > 0 the journal also loses that many bytes off its
/// end before the resume, as if the process died mid-append: the torn
/// record is dropped and its shard re-runs.
void check_interrupt_resume(const std::string& name, std::size_t samples,
                            std::size_t shard_size,
                            std::size_t stop_after,
                            const std::string& expected,
                            std::size_t chop_bytes = 0) {
  const std::string path =
      temp_path(name + "_k" + std::to_string(stop_after) + ".bin");
  std::remove(path.c_str());

  clear_interrupt();
  FtOptions interrupted;
  interrupted.checkpoint_path = path;
  interrupted.checkpoint_every = 1;
  interrupted.stop_after = stop_after;
  EXPECT_EQ(
      run_ft(name, samples, shard_size, /*workers=*/2, interrupted).exit_code,
      kExitInterrupted)
      << name << " k=" << stop_after;

  if (chop_bytes > 0) {
    const std::size_t whole = Checkpoint::load(path).record_count();
    const std::string raw = read_file(path);
    ASSERT_GT(raw.size(), chop_bytes);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << raw.substr(0, raw.size() - chop_bytes);
    EXPECT_EQ(Checkpoint::load(path).record_count(), whole - 1)
        << "the chop must tear exactly the last record";
  }

  clear_interrupt();
  FtOptions resume;
  resume.checkpoint_path = path;
  resume.resume = true;
  const ExperimentRun out =
      run_ft(name, samples, shard_size, /*workers=*/5, resume);
  EXPECT_EQ(out.exit_code, kExitOk);
  EXPECT_EQ(out.json, expected)
      << name << ": resume after " << stop_after
      << " shards diverged from the uninterrupted run";
  std::remove(path.c_str());
}

TEST(ResumeBitIdentityTest, Fig5MatchesGoldenFixtureAfterInterrupts) {
  const std::string expected =
      read_fixture("tests/golden/fig5_s3000_ss1000.json");
  // Several interruption points: mid-first-stage and into later stages
  // (fig5 runs 4 stages of 6 shard-tasks each at this scale).
  for (const std::size_t k : {2u, 7u}) {
    check_interrupt_resume("fig5", 3000, 1000, k, expected);
  }
}

// The paper rows ported onto campaign stages: fig4 (the Bernstein stage's
// victim-only halves, one stage per setup) and sec621 (one double per
// task), each interrupted mid-run and resumed onto its paper fixture.
TEST(ResumeBitIdentityTest, Fig4MatchesPaperFixtureAfterInterrupt) {
  check_interrupt_resume(
      "fig4", 200, 100, 3,
      read_fixture("tests/golden/paper/fig4_s200_ss100.json"));
}

TEST(ResumeBitIdentityTest, Sec621MatchesPaperFixtureAfterInterrupt) {
  check_interrupt_resume(
      "sec621", 200, 100, 3,
      read_fixture("tests/golden/paper/sec621_s200_ss100.json"));
}

TEST(ResumeBitIdentityTest, AttackMatrixMatchesGoldenFixtureAfterInterrupt) {
  // Interrupted, then its journal torn mid-record (attack_matrix records
  // are tens of KB or more, so 1000 bytes cut only the last one), then
  // resumed with a different worker count: still the golden bytes.
  const std::string expected =
      read_fixture("tests/golden/attack_matrix_s1200_ss400.json");
  check_interrupt_resume("attack_matrix", 1200, 400, 3, expected,
                         /*chop_bytes=*/1000);
}

TEST(ResumeBitIdentityTest, FlushMatrixMatchesGoldenFixtureAfterInterrupt) {
  // The flush-channel campaign checkpoints FlushOutcome payloads (the
  // FlushProfile codec above); interrupting mid-matrix and resuming with a
  // different worker count must still land byte-identically on the golden.
  const std::string expected =
      read_fixture("tests/golden/flush_matrix_s600_ss200.json");
  check_interrupt_resume("flush_matrix", 600, 200, 3, expected);
}

TEST(ResumeBitIdentityTest, PwcetMatrixMatchesGoldenFixtureAfterInterrupt) {
#ifndef NDEBUG
  GTEST_SKIP() << "pwcet_matrix golden runs in NDEBUG (Release) builds only";
#endif
  const std::string expected =
      read_fixture("tests/golden/pwcet_matrix_s240_ss80.json");
  check_interrupt_resume("pwcet_matrix", 240, 80, 11, expected);
}

// Self-referential sweep at smoke scale: for a spread of interruption
// points the resumed run must match the uninterrupted run bit for bit (the
// fixture-based tests above pin absolute values; this one covers many k
// cheaply).
TEST(ResumeBitIdentityTest, AttackMatrixSelfConsistentAcrossManyCutPoints) {
  clear_interrupt();
  const std::string reference =
      run_ft("attack_matrix", 400, 200, /*workers=*/4, FtOptions{}).json;
  for (const std::size_t k : {1u, 5u, 13u, 20u}) {
    check_interrupt_resume("attack_matrix", 400, 200, k, reference);
  }
}

}  // namespace
}  // namespace tsc::runner
