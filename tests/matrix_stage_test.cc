// Contracts of the four matrix stages (attack_matrix, flush_matrix,
// pwcet_matrix, pwcet_exceedance) that the goldens cannot see:
//  * the checkpoint format - each stage's task count, task-index layout
//    and payload bytes, pinned as one digest per stage.  A same-binary
//    resume test passes even if a refactor consistently re-permutes task
//    indices; a checkpoint written by an older binary would then resume
//    into the wrong cells.  The digests must not change without a
//    checkpoint-format bump.  The three attack-bearing stages were re-pinned
//    with format version 3, whose payloads are trial logs;
//    pwcet_exceedance carries no attack payload and kept its digest.
//  * what --allow-partial prints: a task that exhausted its retries nulls
//    exactly its own cell's attack column (or turns its pWCET cell
//    "incomplete"), and every other cell keeps the complete run's bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/experiment.h"
#include "runner/fault.h"

namespace tsc::runner {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "tsc_matrix_" + name;
}

ExperimentRun run_ft(const std::string& name, std::size_t samples,
                     std::size_t shard_size, const FtOptions& ft) {
  const Experiment* experiment = find_experiment(name);
  EXPECT_NE(experiment, nullptr) << name;
  RunOptions options;
  options.samples = samples;
  options.shard_size = shard_size;
  options.workers = 4;
  options.ft = ft;
  return run_experiment(*experiment, options);
}

/// A complete run with a checkpoint, once per (experiment, scale): the
/// digest tests and the partial tests share it.
struct CompleteRun {
  std::string json;
  std::uint64_t digest = 0;
  std::size_t records = 0;
};

/// fnv1a64 over the per-task fnv1a64 of every payload of `name`'s single
/// stage, in task-index order; a task without a record folds in as zero.
const CompleteRun& complete_run(const std::string& name, std::size_t samples,
                                std::size_t shard_size,
                                std::size_t task_count) {
  static std::map<std::tuple<std::string, std::size_t, std::size_t>,
                  CompleteRun>
      cache;
  const auto key = std::make_tuple(name, samples, shard_size);
  const auto found = cache.find(key);
  if (found != cache.end()) return found->second;

  const std::string path = temp_path(name + "_" + std::to_string(samples) +
                                     "_" + std::to_string(shard_size) + ".bin");
  std::remove(path.c_str());
  clear_interrupt();
  FtOptions ft;
  ft.checkpoint_path = path;
  CompleteRun run;
  const ExperimentRun out = run_ft(name, samples, shard_size, ft);
  EXPECT_EQ(out.exit_code, kExitOk) << name;
  run.json = out.json;

  const Checkpoint checkpoint = Checkpoint::load(path);
  run.records = checkpoint.record_count();
  ByteWriter folded;
  for (std::size_t task = 0; task < task_count; ++task) {
    const std::vector<std::uint8_t>* payload =
        checkpoint.find(name, task_count, task);
    folded.put_fixed64(payload ? fnv1a64(payload->data(), payload->size())
                               : 0);
  }
  run.digest = fnv1a64(folded.bytes().data(), folded.bytes().size());
  std::remove(path.c_str());
  return cache.emplace(key, std::move(run)).first->second;
}

void expect_payload_digest(const std::string& name, std::size_t samples,
                           std::size_t shard_size, std::size_t task_count,
                           std::uint64_t digest) {
  const CompleteRun& run = complete_run(name, samples, shard_size, task_count);
  EXPECT_EQ(run.records, task_count) << name << ": one record per task";
  EXPECT_EQ(run.digest, digest)
      << name << ": the stage's task layout or payload bytes changed, so "
      << "older checkpoints would resume into the wrong cells (got 0x"
      << std::hex << run.digest << ")";
}

/// The top-level elements of the first array member `key` of a compact
/// JSON document, as their exact text.
std::vector<std::string> array_elements(const std::string& json,
                                        const std::string& key) {
  std::vector<std::string> out;
  const std::size_t open = json.find("\"" + key + "\":[");
  if (open == std::string::npos) return out;
  std::size_t i = open + key.size() + 4;
  int depth = 0;
  bool in_string = false;
  std::size_t start = i;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && depth > 0) {
      --depth;
    } else if (depth == 0 && (c == ',' || c == ']')) {
      out.push_back(json.substr(start, i - start));
      if (c == ']') break;
      start = i + 1;
    }
  }
  return out;
}

/// Run `name` with task `task` failing every attempt under --allow-partial.
std::string partial_json(const std::string& name, std::size_t samples,
                         std::size_t shard_size, std::size_t task) {
  clear_interrupt();
  FtOptions ft;
  ft.fault = {task, FaultKind::kThrow, 99};
  ft.max_attempts = 1;
  ft.allow_partial = true;
  const ExperimentRun out = run_ft(name, samples, shard_size, ft);
  EXPECT_EQ(out.exit_code, kExitPartial) << name;
  EXPECT_NE(out.json.find("\"incomplete_shards\":[{\"stage\":\"" + name +
                          "\",\"task\":" + std::to_string(task) + ","),
            std::string::npos)
      << out.json;
  return out.json;
}

/// Every element of array `key` but `hit` is byte-identical between the
/// two documents; returns the partial run's element `hit`.
std::string expect_only_element_differs(const std::string& complete,
                                        const std::string& partial,
                                        const std::string& key,
                                        std::size_t hit) {
  const std::vector<std::string> a = array_elements(complete, key);
  const std::vector<std::string> b = array_elements(partial, key);
  EXPECT_EQ(a.size(), b.size()) << key;
  if (a.size() != b.size() || hit >= a.size()) return {};
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i != hit) {
      EXPECT_EQ(a[i], b[i]) << key << "[" << i << "]";
    }
  }
  return b[hit];
}

/// The document with its `key` array and the partial manifest cut away,
/// for comparing what surrounds the cells.
std::string without(std::string json, const std::string& key) {
  const std::size_t manifest = json.find(",\"incomplete_shards\":");
  if (manifest != std::string::npos) json = json.substr(0, manifest) + "}\n";
  const std::size_t open = json.find("\"" + key + "\":[");
  if (open == std::string::npos) return json;
  const std::vector<std::string> elements = array_elements(json, key);
  std::size_t length = key.size() + 5;  // "key":[ ... ]
  for (const std::string& e : elements) length += e.size() + 1;
  if (!elements.empty()) --length;
  return json.erase(open, length);
}

// --- the checkpoint format -----------------------------------------------------

// Two shards per cell, so the digest pins the (cell, shard, attack)
// interleave and not just the cell order.
TEST(MatrixCheckpointFormat, AttackMatrixPayloadDigest) {
  expect_payload_digest("attack_matrix", 40, 20, 2 * 14 * 2,
                        0x864d1a0721250ea8ULL);
}

TEST(MatrixCheckpointFormat, FlushMatrixPayloadDigest) {
  expect_payload_digest("flush_matrix", 40, 20, 2 * 14 * 2,
                        0xd44c20c229501032ULL);
}

TEST(MatrixCheckpointFormat, PwcetMatrixPayloadDigest) {
#ifndef NDEBUG
  GTEST_SKIP() << "pWCET campaigns run in NDEBUG (Release) builds only";
#endif
  // 120 runs in 2 timing slices per cell, 240 Prime+Probe samples in 4
  // shards per platform: 70 * 2 timing tasks, then 14 * 4 leakage tasks.
  expect_payload_digest("pwcet_matrix", 120, 60, 70 * 2 + 14 * 4,
                        0x4926fa7081e08352ULL);
}

TEST(MatrixCheckpointFormat, PwcetExceedancePayloadDigest) {
#ifndef NDEBUG
  GTEST_SKIP() << "pWCET campaigns run in NDEBUG (Release) builds only";
#endif
  expect_payload_digest("pwcet_exceedance", 120, 40, 70 * 3,
                        0x29d42762fd70e41aULL);
}

// --- --allow-partial -------------------------------------------------------------

// One shard per cell, so the failed task is the cell's only shard of that
// attack.  Task 2 * cell + attack: task 6 is cell 3 (hashRP, partitioned),
// Prime+Probe.  A partitioned cell, so the unpartitioned headline ordering
// must not move.
TEST(MatrixAllowPartial, AttackMatrixNullsOnlyTheHitAttack) {
  const std::string complete =
      complete_run("attack_matrix", 40, 40, 2 * 14).json;
  const std::string partial = partial_json("attack_matrix", 40, 40, 6);
  const std::string hit =
      expect_only_element_differs(complete, partial, "cells", 3);
  EXPECT_NE(hit.find("\"policy\":\"hashRP\",\"partitioned\":true,"
                     "\"samples\":0,\"prime_probe\":null,\"evict_time\":{"),
            std::string::npos)
      << hit;
  const std::string complete_hit = array_elements(complete, "cells")[3];
  EXPECT_EQ(hit.substr(hit.find("\"evict_time\":")),
            complete_hit.substr(complete_hit.find("\"evict_time\":")));
  EXPECT_EQ(without(partial, "cells"), without(complete, "cells"));
}

// Task 7 is cell 3 (hashRP, partitioned), Flush+Flush.
TEST(MatrixAllowPartial, FlushMatrixNullsOnlyTheHitAttack) {
  const std::string complete =
      complete_run("flush_matrix", 40, 40, 2 * 14).json;
  const std::string partial = partial_json("flush_matrix", 40, 40, 7);
  const std::string hit =
      expect_only_element_differs(complete, partial, "cells", 3);
  const std::string complete_hit = array_elements(complete, "cells")[3];
  const std::string kept = complete_hit.substr(0, complete_hit.find(
                                                      ",\"flush_flush\":"));
  EXPECT_EQ(hit, kept + ",\"flush_flush\":null}");
  EXPECT_EQ(without(partial, "cells"), without(complete, "cells"));
}

// One timing slice per cell and one Prime+Probe shard per platform: tasks
// [0, 70) are the cells (platform * 5 + kernel), [70, 84) the platforms.
TEST(MatrixAllowPartial, PwcetMatrixTimingTaskTurnsOnlyItsCellIncomplete) {
#ifndef NDEBUG
  GTEST_SKIP() << "pWCET campaigns run in NDEBUG (Release) builds only";
#endif
  const std::string complete =
      complete_run("pwcet_matrix", 120, 240, 70 + 14).json;
  // Cell 5: vecsum-20KB on (modulo, partitioned).  Constant timing, so the
  // family-wise gate's variable-cell count (and every other cell's i.i.d.
  // verdict) stays put, and it is not the overhead baseline (platform 0).
  const std::string partial = partial_json("pwcet_matrix", 120, 240, 5);
  EXPECT_EQ(expect_only_element_differs(complete, partial, "cells", 5),
            "{\"kernel\":\"vecsum-20KB\",\"policy\":\"modulo\","
            "\"partitioned\":true,\"runs\":0,\"verdict\":\"incomplete\"}");
  const std::string row =
      expect_only_element_differs(complete, partial, "tradeoff", 1);
  EXPECT_NE(row.find("\"kernels_degenerate\":4,"), std::string::npos) << row;
  EXPECT_EQ(without(without(partial, "cells"), "tradeoff"),
            without(without(complete, "cells"), "tradeoff"));
}

TEST(MatrixAllowPartial, PwcetMatrixLeakageTaskNullsOnlyItsPlatform) {
#ifndef NDEBUG
  GTEST_SKIP() << "pWCET campaigns run in NDEBUG (Release) builds only";
#endif
  const std::string complete =
      complete_run("pwcet_matrix", 120, 240, 70 + 14).json;
  // Task 73: the Prime+Probe shard of platform 3 (hashRP, partitioned).
  const std::string partial = partial_json("pwcet_matrix", 120, 240, 73);
  EXPECT_EQ(array_elements(partial, "cells"),
            array_elements(complete, "cells"));
  const std::string row =
      expect_only_element_differs(complete, partial, "tradeoff", 3);
  EXPECT_NE(row.find("\"policy\":\"hashRP\",\"partitioned\":true,"
                     "\"randomized\":true,"
                     "\"prime_probe_mean_true_rank\":null,"
                     "\"prime_probe_line_resolved_bytes\":null,"
                     "\"channel_mi_bits_corrected\":null,"),
            std::string::npos)
      << row;
  const std::string complete_row = array_elements(complete, "tradeoff")[3];
  EXPECT_EQ(row.substr(row.find("\"kernels_applicable\":")),
            complete_row.substr(complete_row.find("\"kernels_applicable\":")));
  EXPECT_EQ(without(partial, "tradeoff"), without(complete, "tradeoff"));
}

// Two slices of 60 runs per cell, task cell * 2 + slice: task 11 is the
// second slice of cell 5 (vecsum-20KB on modulo, partitioned; constant
// timing, so the gate is unchanged), leaving 60 runs - below the
// analysis minimum of 100.  The per-run protocol is slice-invariant, so
// every other cell equals the complete run at 40-run slices.
TEST(MatrixAllowPartial, PwcetExceedanceMissingSliceTurnsOnlyItsCellIncomplete) {
#ifndef NDEBUG
  GTEST_SKIP() << "pWCET campaigns run in NDEBUG (Release) builds only";
#endif
  const std::string complete =
      complete_run("pwcet_exceedance", 120, 40, 70 * 3).json;
  const std::string partial = partial_json("pwcet_exceedance", 120, 60, 11);
  EXPECT_EQ(expect_only_element_differs(complete, partial, "cells", 5),
            "{\"kernel\":\"vecsum-20KB\",\"policy\":\"modulo\","
            "\"partitioned\":true,\"runs\":60,\"verdict\":\"incomplete\"}");
  EXPECT_NE(partial.find("\"gate_alpha\":"), std::string::npos);
  const auto header = [](const std::string& json) {
    return json.substr(0, json.find("\"shards_per_cell\":"));
  };
  EXPECT_EQ(header(partial), header(complete));
}

}  // namespace
}  // namespace tsc::runner
