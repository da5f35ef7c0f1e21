#include "runner/codecs.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

namespace tsc::runner {
namespace {

void check(bool ok, const char* what) {
  if (!ok) throw CheckpointError(what);
}

/// Largest slot count (sets or monitored lines) a profile payload may
/// declare: 8x the 128 sets of the paper's L1D, at most 48 MB of dense
/// profile.  Zero runs let a few bytes declare any number of cells, so the
/// size bound cannot come from the payload length alone.
constexpr std::uint64_t kMaxProfileSlots = 1024;

/// The slot and cell counts that open a profile payload, validated before
/// anything is sized from them.
template <typename Profile>
std::pair<std::uint32_t, std::size_t> get_shape(ByteReader& r,
                                                const char* what) {
  const std::uint64_t slots = r.varint();
  check(slots > 0 && slots <= kMaxProfileSlots, what);
  const std::uint64_t cells = r.varint();
  check(cells == std::uint64_t{Profile::kPositions} * Profile::kValues * slots,
        what);
  return {static_cast<std::uint32_t>(slots), static_cast<std::size_t>(cells)};
}

// Zero-run arrays: a nonzero cell is its varint; a zero cell is `0`
// followed by the varint count of further zeros.  The dense profile arrays
// are mostly zeros, so this is much shorter than one varint per cell.
template <typename T>
void put_zero_runs(ByteWriter& w, const std::vector<T>& cells) {
  for (std::size_t i = 0; i < cells.size();) {
    if (cells[i] != 0) {
      w.put_varint(cells[i++]);
      continue;
    }
    std::size_t run = 1;
    while (i + run < cells.size() && cells[i + run] == 0) ++run;
    w.put_varint(0);
    w.put_varint(run - 1);
    i += run;
  }
}

/// Walk a zero-run array of `n` cells, handing each nonzero cell to
/// `store(index, value)`.  Throws CheckpointError when a run overruns the
/// array, a cell exceeds `max_cell`, or the bytes end early.
template <typename Store>
void walk_zero_runs(ByteReader& r, std::size_t n, std::uint64_t max_cell,
                    Store&& store) {
  for (std::size_t i = 0; i < n;) {
    const std::uint64_t v = r.varint();
    if (v != 0) {
      check(v <= max_cell, "profile cell overflows its type");
      store(i++, v);
      continue;
    }
    const std::uint64_t more = r.varint();
    check(more < n - i, "zero run overruns the profile array");
    i += 1 + static_cast<std::size_t>(more);
  }
}

/// Validate a zero-run array of `n` cells of type T without storing it:
/// the dry pass that lets a decoder throw before allocating the profile.
template <typename T>
void skip_zero_runs(ByteReader& r, std::size_t n) {
  walk_zero_runs(r, n, std::numeric_limits<T>::max(),
                 [](std::size_t, std::uint64_t) {});
}

/// Decode a zero-run array into `cells`, whose size and zeros are preset.
template <typename T>
void get_zero_runs(ByteReader& r, std::vector<T>& cells) {
  walk_zero_runs(r, cells.size(), std::numeric_limits<T>::max(),
                 [&](std::size_t i, std::uint64_t v) {
                   cells[i] = static_cast<T>(v);
                 });
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

void ProfileCodec::put(ByteWriter& w, const attack::ProbeProfile& p) {
  w.put_varint(p.slots_);
  w.put_varint(p.sums_.size());
  put_zero_runs(w, p.sums_);
  for (const auto& row : p.counts_) {
    for (const std::uint64_t v : row) w.put_varint(v);
  }
  w.put_varint(p.total_trials_);
}

attack::ProbeProfile ProfileCodec::get_probe(ByteReader& r) {
  using Profile = attack::ProbeProfile;
  const auto [slots, cells] =
      get_shape<Profile>(r, "probe profile payload has a bad shape");
  ByteReader dry = r;
  skip_zero_runs<std::uint64_t>(dry, cells);
  // One varint per counts_ cell, then the trial total.
  check(dry.remaining() > sizeof(Profile::counts_) / sizeof(std::uint64_t),
        "probe profile payload truncated");
  Profile p(slots);
  get_zero_runs(r, p.sums_);
  for (auto& row : p.counts_) {
    for (std::uint64_t& v : row) v = r.varint();
  }
  p.total_trials_ = r.varint();
  return p;
}

void ProfileCodec::put(ByteWriter& w, const attack::EvictTimeProfile& p) {
  w.put_varint(p.sets_);
  w.put_varint(p.sums_.size());
  put_zero_runs(w, p.sums_);
  put_zero_runs(w, p.counts_);
  w.put_varint(p.total_trials_);
}

attack::EvictTimeProfile ProfileCodec::get_evict_time(ByteReader& r) {
  using Profile = attack::EvictTimeProfile;
  const auto [sets, cells] =
      get_shape<Profile>(r, "evict-time profile payload has a bad shape");
  ByteReader dry = r;
  skip_zero_runs<std::uint64_t>(dry, cells);
  skip_zero_runs<std::uint32_t>(dry, cells);
  Profile p(sets);
  get_zero_runs(r, p.sums_);
  get_zero_runs(r, p.counts_);
  p.total_trials_ = r.varint();
  return p;
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
  attack::ProbeProfile profile = ProfileCodec::get_probe(r);
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
  attack::EvictTimeProfile profile = ProfileCodec::get_evict_time(r);
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
