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

ProbeOutcome::ProbeOutcome(std::uint32_t slots, std::size_t line_classes)
    : profile(slots), channel(line_classes, line_classes + 1) {}

void ProbeOutcome::merge(const ProbeOutcome& other) {
  profile.merge(other.profile);
  channel.merge(other.channel);
}

}  // namespace tsc::attack
