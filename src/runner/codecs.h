// Exact byte codecs for the campaign accumulators.
//
// Checkpoint payloads must round-trip BIT-FOR-BIT: the fault-tolerant
// runner decodes every shard result from its encoded payload (fresh or
// resumed alike), so any lossy step would break the byte-identity contract
// between interrupted and uninterrupted campaigns.  Doubles are therefore
// stored as IEEE-754 bit patterns and integer accumulators as LEB128
// varints.  The dense per-slot sums of the probe profile (Prime+Probe and
// both flush attacks) and of the Evict+Time profile, and the per-cell
// Evict+Time counts, are mostly zeros, so they are zero-run encoded: a
// nonzero cell is its varint, a zero is `0` followed by the varint count
// of further zeros.
//
// Decoders treat their input as untrusted: every length is checked against
// the bytes left (or, for zero-run arrays, a dry pass and a slot cap)
// before anything is allocated from it, and damage throws CheckpointError.
//
// ProfileCodec is befriended by the attack profiles so their private
// accumulator state serializes without widening their public API.
#pragma once

#include <vector>

#include "attack/evicttime.h"
#include "attack/profile.h"
#include "core/campaign.h"
#include "runner/checkpoint.h"
#include "stats/mi.h"

namespace tsc::runner {

/// Friend-door serializer for the private accumulator state of the three
/// attack profiles (timing, probe, Evict+Time).  Each get_* reconstructs an
/// object whose every member equals the encoded original.
struct ProfileCodec {
  static void put(ByteWriter& w, const attack::TimingProfile& p);
  [[nodiscard]] static attack::TimingProfile get_timing(ByteReader& r);

  static void put(ByteWriter& w, const attack::ProbeProfile& p);
  [[nodiscard]] static attack::ProbeProfile get_probe(ByteReader& r);

  static void put(ByteWriter& w, const attack::EvictTimeProfile& p);
  [[nodiscard]] static attack::EvictTimeProfile get_evict_time(ByteReader& r);
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
