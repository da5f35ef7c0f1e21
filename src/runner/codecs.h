// Exact byte codecs for the campaign accumulators.
//
// Checkpoint payloads must round-trip BIT-FOR-BIT: the fault-tolerant
// runner decodes every shard result from its encoded payload (fresh or
// resumed alike), so any lossy step would break the byte-identity contract
// between interrupted and uninterrupted campaigns.  Doubles are therefore
// stored as IEEE-754 bit patterns and integer accumulators as LEB128
// varints.  The attack shards' payloads are their trial logs, so they grow
// with the trials run: a probe trial (Prime+Probe and both flush attacks)
// is its 16 plaintext bytes and one byte per slot; an Evict+Time trial is
// its 16 plaintext bytes, the evicted set and the cycle count as varints.
//
// Decoders treat their input as untrusted: the slot count is capped, every
// length is checked against the bytes left before anything is allocated
// from it, every evicted set against the set count, and damage throws
// CheckpointError.
//
// ProfileCodec is befriended by the Bernstein timing profile and the two
// trial logs so their private state serializes without widening their
// public API.
#pragma once

#include <vector>

#include "attack/evicttime.h"
#include "attack/profile.h"
#include "core/campaign.h"
#include "runner/checkpoint.h"
#include "stats/mi.h"

namespace tsc::runner {

/// Friend-door serializer for the private state of the Bernstein timing
/// profile and of the probe and Evict+Time trial logs.  Each get_*
/// reconstructs an object whose every member equals the encoded original.
struct ProfileCodec {
  static void put(ByteWriter& w, const attack::TimingProfile& p);
  [[nodiscard]] static attack::TimingProfile get_timing(ByteReader& r);

  static void put(ByteWriter& w, const attack::ProbeLog& log);
  [[nodiscard]] static attack::ProbeLog get_probe_log(ByteReader& r);

  static void put(ByteWriter& w, const attack::EvictTimeLog& log);
  [[nodiscard]] static attack::EvictTimeLog get_evict_time_log(ByteReader& r);
};

void put_doubles(ByteWriter& w, const std::vector<double>& v);
[[nodiscard]] std::vector<double> get_doubles(ByteReader& r);

void put_joint_histogram(ByteWriter& w, const stats::JointHistogram& h);
[[nodiscard]] stats::JointHistogram get_joint_histogram(ByteReader& r);

void put_probe_outcome(ByteWriter& w, const attack::ProbeOutcome& o);
[[nodiscard]] attack::ProbeOutcome get_probe_outcome(ByteReader& r);
/// The old names of the probe-outcome codec, kept only because
/// campaign_bench/campaign_trace.cc spells them.
inline constexpr auto& put_pp_outcome = put_probe_outcome;
inline constexpr auto& get_pp_outcome = get_probe_outcome;

void put_et_outcome(ByteWriter& w, const attack::EvictTimeOutcome& o);
[[nodiscard]] attack::EvictTimeOutcome get_et_outcome(ByteReader& r);

void put_side_result(ByteWriter& w, const core::SideResult& s);
[[nodiscard]] core::SideResult get_side_result(ByteReader& r);

}  // namespace tsc::runner
