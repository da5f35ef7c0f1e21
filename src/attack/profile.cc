#include "attack/profile.h"

#include <cassert>

namespace tsc::attack {

void TimingProfile::add(const crypto::Block& plaintext, double duration) {
  for (int i = 0; i < kPositions; ++i) {
    const auto v = static_cast<std::size_t>(plaintext[static_cast<std::size_t>(i)]);
    sums_[static_cast<std::size_t>(i)][v] += duration;
    ++counts_[static_cast<std::size_t>(i)][v];
  }
  total_sum_ += duration;
  ++total_count_;
}

void TimingProfile::merge(const TimingProfile& other) {
  for (int i = 0; i < kPositions; ++i) {
    const auto p = static_cast<std::size_t>(i);
    for (int v = 0; v < kValues; ++v) {
      const auto c = static_cast<std::size_t>(v);
      sums_[p][c] += other.sums_[p][c];
      counts_[p][c] += other.counts_[p][c];
    }
  }
  total_sum_ += other.total_sum_;
  total_count_ += other.total_count_;
}

double TimingProfile::global_mean() const {
  return total_count_ == 0 ? 0.0
                           : total_sum_ / static_cast<double>(total_count_);
}

double TimingProfile::cell_mean(int pos, int value) const {
  assert(pos >= 0 && pos < kPositions);
  assert(value >= 0 && value < kValues);
  const auto p = static_cast<std::size_t>(pos);
  const auto v = static_cast<std::size_t>(value);
  if (counts_[p][v] == 0) return global_mean();
  return sums_[p][v] / static_cast<double>(counts_[p][v]);
}

double TimingProfile::deviation(int pos, int value) const {
  const auto p = static_cast<std::size_t>(pos);
  const auto v = static_cast<std::size_t>(value);
  if (counts_[p][v] == 0) return 0.0;
  return cell_mean(pos, value) - global_mean();
}

std::uint64_t TimingProfile::cell_count(int pos, int value) const {
  return counts_[static_cast<std::size_t>(pos)][static_cast<std::size_t>(value)];
}

std::vector<double> TimingProfile::deviation_row(int pos) const {
  std::vector<double> row(kValues);
  for (int v = 0; v < kValues; ++v) row[static_cast<std::size_t>(v)] = deviation(pos, v);
  return row;
}

void ProbeLog::merge(const ProbeLog& other) {
  assert(other.slots_ == slots_);
  plaintexts_.insert(plaintexts_.end(), other.plaintexts_.begin(),
                     other.plaintexts_.end());
  observations_.insert(observations_.end(), other.observations_.begin(),
                       other.observations_.end());
}

ProbeProfile::ProbeProfile(std::uint32_t slots)
    : slots_(slots),
      sums_(static_cast<std::size_t>(kPositions) * kValues * slots, 0) {}

ProbeProfile::ProbeProfile(const ProbeLog& log) : slots_(0) { assign(log); }

void ProbeProfile::assign(const ProbeLog& log) {
  slots_ = log.slots();
  sums_.assign(static_cast<std::size_t>(kPositions) * kValues * slots_, 0);
  counts_ = {};
  total_trials_ = log.samples();
  // Position-major: one position's 256 x slots rows stay in cache while
  // every trial is summed into them.
  for (int pos = 0; pos < kPositions; ++pos) {
    const auto p = static_cast<std::size_t>(pos);
    for (std::size_t t = 0; t < log.samples(); ++t) {
      const std::uint8_t v = log.plaintext(t)[p];
      const std::span<const std::uint8_t> obs = log.observations(t);
      std::uint64_t* row = sums_.data() + idx(pos, v, 0);
      for (std::uint32_t s = 0; s < slots_; ++s) row[s] += obs[s];
      ++counts_[p][v];
    }
  }
}

double ProbeProfile::cell_mean(int pos, int value, std::uint32_t slot) const {
  const std::uint64_t n = cell_count(pos, value);
  if (n == 0) return 0.0;
  return static_cast<double>(sums_[idx(pos, value, slot)]) /
         static_cast<double>(n);
}

double ProbeProfile::slot_mean(int pos, std::uint32_t slot) const {
  if (total_trials_ == 0) return 0.0;
  std::uint64_t sum = 0;
  for (int v = 0; v < kValues; ++v) sum += sums_[idx(pos, v, slot)];
  return static_cast<double>(sum) / static_cast<double>(total_trials_);
}

ProbeOutcome::ProbeOutcome(std::uint32_t slots, std::size_t line_classes)
    : profile(slots), channel(line_classes, line_classes + 1) {}

void ProbeOutcome::merge(const ProbeOutcome& other) {
  profile.merge(other.profile);
  channel.merge(other.channel);
}

}  // namespace tsc::attack
