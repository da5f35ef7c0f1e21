// Seeded-mutation tests for the checkpoint side's parsers of untrusted
// bytes: Checkpoint::load on journals cut at every byte offset or damaged
// by random byte flips, inserts and deletes, and the payload decoders
// (codecs.h) on damaged payloads.  Each parser must either throw
// CheckpointError or return exactly what was saved - never crash, read out
// of bounds (the ASan/UBSan build runs this binary) or allocate from a
// damaged length.  The mutations come from a fixed seed, so a failure
// reproduces exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "attack/evicttime.h"
#include "attack/profile.h"
#include "fuzz_support.h"
#include "runner/checkpoint.h"
#include "runner/codecs.h"

namespace tsc::runner {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tsc_fuzz_" + name;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string s = buf.str();
  return Bytes(s.begin(), s.end());
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
}

// --- realistic payloads ------------------------------------------------------

/// A Prime+Probe-shaped probe outcome: per-set miss counts up to 2.
Bytes pp_payload() {
  attack::ProbeOutcome o(/*slots=*/4, /*line_classes=*/4);
  crypto::Block pt{};
  std::vector<std::uint32_t> misses(4);
  for (int i = 0; i < 48; ++i) {
    for (std::size_t b = 0; b < pt.size(); ++b) {
      pt[b] = static_cast<std::uint8_t>(i * 29 + b * 7);
    }
    for (std::size_t s = 0; s < misses.size(); ++s) {
      misses[s] = static_cast<std::uint32_t>((i + s) % 4 == 0 ? 2 : 0);
    }
    o.profile.add(pt, misses);
    o.channel.add(i % 4, i % 3);
  }
  ByteWriter w;
  put_probe_outcome(w, o);
  return std::move(w).take();
}

Bytes et_payload() {
  attack::EvictTimeOutcome o(/*sets=*/2, /*line_classes=*/4);
  crypto::Block pt{};
  for (int i = 0; i < 40; ++i) {
    pt[i % 16] = static_cast<std::uint8_t>(i * 5);
    o.profile.add(pt, static_cast<std::uint32_t>(i % 2),
                  static_cast<Cycles>(900 + i));
    o.channel.add(i % 4, i % 2);
  }
  ByteWriter w;
  put_et_outcome(w, o);
  return std::move(w).take();
}

/// A flush-shaped probe outcome: 0/1 touched marks per monitored line.
Bytes flush_payload() {
  attack::ProbeOutcome o(/*slots=*/4, /*line_classes=*/4);
  crypto::Block pt{};
  std::vector<std::uint32_t> touched(4);
  for (int i = 0; i < 40; ++i) {
    pt[(i * 3) % 16] = static_cast<std::uint8_t>(i * 11);
    for (std::size_t m = 0; m < touched.size(); ++m) {
      touched[m] = static_cast<std::uint32_t>((i + m) % 5 == 0);
    }
    o.profile.add(pt, touched);
    o.channel.add(i % 4, i % 5);
  }
  ByteWriter w;
  put_probe_outcome(w, o);
  return std::move(w).take();
}

Bytes doubles_payload() {
  ByteWriter w;
  put_doubles(w, {0.5, -1.25, 1e300, 3.0});
  return std::move(w).take();
}

/// One payload kind and the decoder that must accept it.
struct PayloadKind {
  std::string stage;
  Bytes payload;
  std::function<void(ByteReader&)> decode;
};

std::vector<PayloadKind> payload_kinds() {
  return {
      {"pp", pp_payload(),
       [](ByteReader& r) { (void)get_probe_outcome(r); }},
      {"et", et_payload(), [](ByteReader& r) { (void)get_et_outcome(r); }},
      {"fl", flush_payload(),
       [](ByteReader& r) { (void)get_probe_outcome(r); }},
      {"db", doubles_payload(), [](ByteReader& r) { (void)get_doubles(r); }},
  };
}

// --- journal cut at every byte offset ----------------------------------------

struct Put {
  std::string stage;
  std::size_t count;
  std::size_t task;
  Bytes payload;
};

TEST(CheckpointFuzzTest, JournalCutAtEveryOffsetKeepsExactlyTheWholeRecords) {
  const std::string path = temp_path("journal.bin");
  const std::string cut_path = temp_path("journal_cut.bin");
  Bytes big(300);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 37);
  }
  // Three stages, payload lengths straddling the one-byte varint limit,
  // an empty payload, and a re-put of an existing task (the last wins).
  const std::vector<Put> puts = {
      {"fig5/tsc", 3, 0, {1, 2, 3}},
      {"fig5/tsc", 3, 2, Bytes(130, 0xAB)},
      {"attack_matrix", 5, 4, {}},
      {"fig5/tsc", 3, 1, big},
      {"s", 2, 1, {9}},
      {"attack_matrix", 5, 0, Bytes(127, 0x5C)},
      {"fig5/tsc", 3, 2, {7, 7}},
      {"s", 2, 0, Bytes(40, 0)},
  };

  // An empty checkpoint's snapshot is the header; each later save appends
  // exactly the one record put since.
  Checkpoint ckpt("attack_matrix", "fp-cut");
  ASSERT_GT(ckpt.save(path), 0u);
  const std::size_t header = read_file(path).size();
  std::vector<std::size_t> ends;
  for (const Put& p : puts) {
    ckpt.put(p.stage, p.count, p.task, p.payload);
    (void)ckpt.save(path);
    ends.push_back(read_file(path).size());
  }
  const Bytes journal = read_file(path);
  ASSERT_EQ(journal.size(), ends.back());

  for (std::size_t cut = 0; cut <= journal.size(); ++cut) {
    const auto end = journal.begin() + static_cast<std::ptrdiff_t>(cut);
    write_file(cut_path, Bytes(journal.begin(), end));
    if (cut < header) {
      EXPECT_THROW((void)Checkpoint::load(cut_path), CheckpointError)
          << "cut " << cut << " inside the header";
      continue;
    }
    const Checkpoint loaded = Checkpoint::load(cut_path);
    EXPECT_EQ(loaded.experiment(), "attack_matrix");
    EXPECT_EQ(loaded.fingerprint(), "fp-cut");
    // The expected state: every put whose record ends at or before the cut,
    // applied in order.
    std::map<std::tuple<std::string, std::size_t>, const Put*> want;
    for (std::size_t k = 0; k < puts.size() && ends[k] <= cut; ++k) {
      want[{puts[k].stage, puts[k].task}] = &puts[k];
    }
    ASSERT_EQ(loaded.record_count(), want.size()) << "cut " << cut;
    for (const Put& p : puts) {
      const Bytes* got = loaded.find(p.stage, p.count, p.task);
      const auto it = want.find({p.stage, p.task});
      if (it == want.end()) {
        EXPECT_EQ(got, nullptr) << "cut " << cut;
      } else {
        ASSERT_NE(got, nullptr) << "cut " << cut;
        EXPECT_EQ(*got, it->second->payload) << "cut " << cut;
      }
    }
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// --- random damage to a journal ----------------------------------------------

TEST(CheckpointFuzzTest, DamagedJournalThrowsOrReturnsOnlySavedRecords) {
  const std::string path = temp_path("damaged.bin");
  const std::vector<PayloadKind> kinds = payload_kinds();
  Checkpoint ckpt("attack_matrix", "fp-damage");
  std::size_t task = 0;
  for (const PayloadKind& kind : kinds) {
    ckpt.put(kind.stage, 4, task % 4, kind.payload);
    (void)ckpt.save(path);
    ++task;
  }
  ckpt.put("pp", 4, 3, kinds[0].payload);
  (void)ckpt.save(path);
  const Bytes journal = read_file(path);

  std::mt19937_64 rng(0xC4EC4B01D);
  std::size_t rejected = 0;
  std::size_t partial = 0;
  for (int iter = 0; iter < 2500; ++iter) {
    write_file(path, mutate(journal, rng));
    reset_largest_alloc();
    try {
      const Checkpoint loaded = Checkpoint::load(path);
      // Whatever survives must be a saved record, byte for byte, and its
      // decoder must accept it.
      std::size_t found = 0;
      for (const PayloadKind& kind : kinds) {
        for (std::size_t t = 0; t < 4; ++t) {
          const Bytes* got = loaded.find(kind.stage, 4, t);
          if (got == nullptr) continue;
          ++found;
          ASSERT_EQ(*got, kind.payload) << "mutant " << iter;
          ByteReader r(*got);
          kind.decode(r);
        }
      }
      ASSERT_EQ(loaded.record_count(), found) << "mutant " << iter;
      if (found < 5) ++partial;
    } catch (const CheckpointError&) {
      ++rejected;
    }
    ASSERT_LE(largest_alloc(), kAllocLimit) << "mutant " << iter;
  }
  // Both outcomes must actually occur, or the test exercises nothing.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(partial, 0u);
  std::remove(path.c_str());
}

// --- random damage to payloads -----------------------------------------------

TEST(CheckpointFuzzTest, DecodersRejectDamagedPayloadsWithoutHugeAllocations) {
  std::mt19937_64 rng(0xDEC0DE5);
  for (const PayloadKind& kind : payload_kinds()) {
    {
      ByteReader honest(kind.payload);
      kind.decode(honest);
      EXPECT_EQ(honest.remaining(), 0u) << kind.stage;
    }
    std::size_t rejected = 0;
    for (int iter = 0; iter < 1500; ++iter) {
      const Bytes bytes = mutate(kind.payload, rng);
      reset_largest_alloc();
      try {
        ByteReader r(bytes);
        kind.decode(r);
      } catch (const CheckpointError&) {
        ++rejected;
      }
      ASSERT_LE(largest_alloc(), kAllocLimit)
          << kind.stage << " mutant " << iter;
    }
    EXPECT_GT(rejected, 0u) << kind.stage;
  }
}

// Hand-made worst cases for each untrusted length, one per decoder.
TEST(CheckpointFuzzTest, DecodersRejectLengthsTheBytesCannotHold) {
  const auto rejects = [](const Bytes& bytes,
                          const std::function<void(ByteReader&)>& decode) {
    reset_largest_alloc();
    ByteReader r(bytes);
    EXPECT_THROW(decode(r), CheckpointError);
    EXPECT_LE(largest_alloc(), std::size_t{1} << 16);
  };
  ByteWriter doubles;
  doubles.put_varint(std::uint64_t{1} << 40);  // 2^40 doubles, 8 bytes given
  doubles.put_f64(1.0);
  rejects(doubles.bytes(), [](ByteReader& r) { (void)get_doubles(r); });

  ByteWriter hist;
  hist.put_varint(std::uint64_t{1} << 20);
  hist.put_varint(std::uint64_t{1} << 20);
  hist.put_varint(3);
  rejects(hist.bytes(), [](ByteReader& r) { (void)get_joint_histogram(r); });

  const auto probe = [](ByteReader& r) { (void)ProfileCodec::get_probe_log(r); };
  const auto evict_time = [](ByteReader& r) {
    (void)ProfileCodec::get_evict_time_log(r);
  };

  // The slot-count bound: a log may declare 1 to 1024 sets or monitored
  // lines, since the reduce sizes its 16 x 256 x slots table from it.
  for (const std::uint64_t slots :
       {std::uint64_t{0}, std::uint64_t{1025}, std::uint64_t{1} << 31}) {
    ByteWriter many_sets;
    many_sets.put_varint(slots);
    many_sets.put_varint(0);  // no trials: only the slot count is wrong
    rejects(many_sets.bytes(), probe);
    rejects(many_sets.bytes(), evict_time);
  }

  // A trial count no bytes back: refused before the log is sized from it.
  ByteWriter bare;
  bare.put_varint(1024);
  bare.put_varint(std::uint64_t{1} << 40);
  bare.put_varint(0);
  rejects(bare.bytes(), probe);
  rejects(bare.bytes(), evict_time);

  // A trial count one past the trials the bytes hold.
  ByteWriter overrun;
  overrun.put_varint(4);
  overrun.put_varint(3);
  for (int i = 0; i < 2 * (16 + 4); ++i) overrun.put_u8(1);
  rejects(overrun.bytes(), probe);
  ByteWriter et_overrun;
  et_overrun.put_varint(4);
  et_overrun.put_varint(3);
  for (int i = 0; i < 2 * (16 + 2); ++i) et_overrun.put_u8(1);
  rejects(et_overrun.bytes(), evict_time);

  // An observation above its bound: an Evict+Time trial that evicted a set
  // the log does not have.
  ByteWriter past_set;
  past_set.put_varint(2);
  past_set.put_varint(1);
  for (int i = 0; i < 16; ++i) past_set.put_u8(0);
  past_set.put_varint(2);  // sets are 0 and 1
  past_set.put_varint(900);
  rejects(past_set.bytes(), evict_time);

  // A truncated trial record: the count fits the bytes' lower bound, but
  // the last trial's cycle count breaks off mid-varint.
  ByteWriter torn;
  torn.put_varint(2);
  torn.put_varint(1);
  for (int i = 0; i < 16; ++i) torn.put_u8(0);
  torn.put_varint(1);
  torn.put_u8(0x80);  // a continuation byte with nothing after it
  rejects(torn.bytes(), evict_time);
}

}  // namespace
}  // namespace tsc::runner
