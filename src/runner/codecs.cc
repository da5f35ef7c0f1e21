#include "runner/codecs.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

namespace tsc::runner {
namespace {

void check(bool ok, const char* what) {
  if (!ok) throw CheckpointError(what);
}

/// Largest slot count (sets or monitored lines) a log payload may declare:
/// 8x the 128 sets of the paper's L1D.  The reduce builds a 16 x 256 x
/// slots table from the log, so this caps that table at 48 MB whatever
/// the payload says.
constexpr std::uint64_t kMaxProfileSlots = 1024;

/// The slot (or set) count and trial count that open a log payload,
/// validated before anything is sized from them: every trial must still
/// find at least `fixed_bytes` plus `bytes_per_slot` per slot in what is
/// left.
std::pair<std::uint32_t, std::size_t> get_log_shape(ByteReader& r,
                                                    std::size_t fixed_bytes,
                                                    std::size_t bytes_per_slot,
                                                    const char* what) {
  const std::uint64_t slots = r.varint();
  check(slots > 0 && slots <= kMaxProfileSlots, what);
  const std::uint64_t trials = r.varint();
  const std::size_t min_trial_bytes =
      fixed_bytes + bytes_per_slot * static_cast<std::size_t>(slots);
  check(trials <= r.remaining() / min_trial_bytes, "trial log truncated");
  return {static_cast<std::uint32_t>(slots), static_cast<std::size_t>(trials)};
}

}  // namespace

// --- ProfileCodec ------------------------------------------------------------

void ProfileCodec::put(ByteWriter& w, const attack::TimingProfile& p) {
  for (const auto& row : p.sums_) {
    for (const double v : row) w.put_f64(v);
  }
  for (const auto& row : p.counts_) {
    for (const std::uint64_t v : row) w.put_varint(v);
  }
  w.put_f64(p.total_sum_);
  w.put_varint(p.total_count_);
}

attack::TimingProfile ProfileCodec::get_timing(ByteReader& r) {
  attack::TimingProfile p;
  for (auto& row : p.sums_) {
    for (double& v : row) v = r.f64();
  }
  for (auto& row : p.counts_) {
    for (std::uint64_t& v : row) v = r.varint();
  }
  p.total_sum_ = r.f64();
  p.total_count_ = r.varint();
  return p;
}

void ProfileCodec::put(ByteWriter& w, const attack::ProbeLog& log) {
  w.put_varint(log.slots_);
  w.put_varint(log.samples());
  for (std::size_t t = 0; t < log.plaintexts_.size(); ++t) {
    w.put_bytes(log.plaintexts_[t].data(), log.plaintexts_[t].size());
    const std::span<const std::uint8_t> obs = log.observations(t);
    w.put_bytes(obs.data(), obs.size());
  }
}

attack::ProbeLog ProfileCodec::get_probe_log(ByteReader& r) {
  constexpr std::size_t kBlock = sizeof(crypto::Block);
  const auto [slots, trials] = get_log_shape(
      r, kBlock, 1, "probe log payload has a bad slot count");
  attack::ProbeLog log(slots);
  log.plaintexts_.resize(trials);
  log.observations_.resize(trials * slots);
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint8_t* pt = r.bytes(kBlock);
    std::copy(pt, pt + kBlock, log.plaintexts_[t].begin());
    const std::uint8_t* obs = r.bytes(slots);
    std::copy(obs, obs + slots, log.observations_.begin() +
                                    static_cast<std::ptrdiff_t>(t * slots));
  }
  return log;
}

void ProfileCodec::put(ByteWriter& w, const attack::EvictTimeLog& log) {
  w.put_varint(log.sets_);
  w.put_varint(log.samples());
  for (const attack::EvictTimeLog::Trial& t : log.trials_) {
    w.put_bytes(t.plaintext.data(), t.plaintext.size());
    w.put_varint(t.evicted_set);
    w.put_varint(t.duration);
  }
}

attack::EvictTimeLog ProfileCodec::get_evict_time_log(ByteReader& r) {
  constexpr std::size_t kBlock = sizeof(crypto::Block);
  // A trial is its plaintext and two varints of at least one byte each.
  const auto [sets, trials] = get_log_shape(
      r, kBlock + 2, 0, "evict-time log payload has a bad set count");
  attack::EvictTimeLog log(sets);
  log.trials_.resize(trials);
  for (attack::EvictTimeLog::Trial& t : log.trials_) {
    const std::uint8_t* pt = r.bytes(kBlock);
    std::copy(pt, pt + kBlock, t.plaintext.begin());
    const std::uint64_t set = r.varint();
    check(set < sets, "evict-time trial names a set past the set count");
    t.evicted_set = static_cast<std::uint32_t>(set);
    t.duration = r.varint();
  }
  return log;
}

// --- composite values --------------------------------------------------------

void put_doubles(ByteWriter& w, const std::vector<double>& v) {
  w.put_varint(v.size());
  for (const double x : v) w.put_f64(x);
}

std::vector<double> get_doubles(ByteReader& r) {
  const std::uint64_t n = r.varint();
  check(n <= r.remaining() / sizeof(double), "doubles payload truncated");
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

void put_joint_histogram(ByteWriter& w, const stats::JointHistogram& h) {
  w.put_varint(h.x_classes());
  w.put_varint(h.y_bins());
  for (std::size_t x = 0; x < h.x_classes(); ++x) {
    for (std::size_t y = 0; y < h.y_bins(); ++y) w.put_varint(h.cell(x, y));
  }
}

stats::JointHistogram get_joint_histogram(ByteReader& r) {
  const auto x_classes = static_cast<std::size_t>(r.varint());
  const auto y_bins = static_cast<std::size_t>(r.varint());
  check(x_classes > 0 && y_bins > 0, "joint histogram payload has zero dims");
  // Every cell is a varint of at least one byte.
  check(x_classes <= r.remaining() / y_bins,
        "joint histogram payload truncated");
  stats::JointHistogram h(x_classes, y_bins);
  for (std::size_t x = 0; x < x_classes; ++x) {
    for (std::size_t y = 0; y < y_bins; ++y) {
      if (const std::uint64_t n = r.varint(); n > 0) h.add(x, y, n);
    }
  }
  return h;
}

void put_probe_outcome(ByteWriter& w, const attack::ProbeOutcome& o) {
  ProfileCodec::put(w, o.profile);
  put_joint_histogram(w, o.channel);
}

attack::ProbeOutcome get_probe_outcome(ByteReader& r) {
  attack::ProbeLog profile = ProfileCodec::get_probe_log(r);
  stats::JointHistogram channel = get_joint_histogram(r);
  attack::ProbeOutcome out(profile.slots(), 1);
  out.profile = std::move(profile);
  out.channel = std::move(channel);
  return out;
}

void put_et_outcome(ByteWriter& w, const attack::EvictTimeOutcome& o) {
  ProfileCodec::put(w, o.profile);
  put_joint_histogram(w, o.channel);
}

attack::EvictTimeOutcome get_et_outcome(ByteReader& r) {
  attack::EvictTimeLog profile = ProfileCodec::get_evict_time_log(r);
  stats::JointHistogram channel = get_joint_histogram(r);
  attack::EvictTimeOutcome out(profile.sets(), 1);
  out.profile = std::move(profile);
  out.channel = std::move(channel);
  return out;
}

void put_side_result(ByteWriter& w, const core::SideResult& s) {
  ProfileCodec::put(w, s.profile);
  put_doubles(w, s.timings);
  w.put_bytes(s.key.data(), s.key.size());
}

core::SideResult get_side_result(ByteReader& r) {
  core::SideResult s;
  s.profile = ProfileCodec::get_timing(r);
  s.timings = get_doubles(r);
  const std::uint8_t* key = r.bytes(s.key.size());
  std::copy(key, key + s.key.size(), s.key.begin());
  return s;
}

}  // namespace tsc::runner
