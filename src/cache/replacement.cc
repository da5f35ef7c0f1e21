#include "cache/replacement.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"

namespace tsc::cache {
namespace {

/// True LRU via per-set recency ranks (rank 0 = most recent).
class Lru final : public Replacement {
 public:
  Lru(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways), rank_(static_cast<std::size_t>(sets) * ways) {
    reset();
  }

  void touch(std::uint32_t set, std::uint32_t way) override {
    repl_ops::lru_touch(row(set), ways_, way);
  }

  void fill(std::uint32_t set, std::uint32_t way) override { touch(set, way); }

  std::uint32_t victim(std::uint32_t set) override {
    return repl_ops::lru_victim(row(set), ways_);
  }

  void reset() override {
    for (std::size_t i = 0; i < rank_.size(); ++i) {
      rank_[i] = static_cast<std::uint8_t>(i % ways_);
    }
  }

  ReplacementFast fast() override {
    ReplacementFast f;
    f.kind = ReplacementKind::kLru;
    f.meta8 = rank_.data();
    f.ways = ways_;
    return f;
  }

  [[nodiscard]] std::string name() const override { return "lru"; }

 private:
  [[nodiscard]] std::uint8_t* row(std::uint32_t set) {
    return rank_.data() + static_cast<std::size_t>(set) * ways_;
  }

  std::uint32_t ways_;
  std::vector<std::uint8_t> rank_;
};

/// FIFO: round-robin fill pointer per set; hits do not reorder.
class Fifo final : public Replacement {
 public:
  Fifo(std::uint32_t sets, std::uint32_t ways) : ways_(ways), next_(sets, 0) {}

  void touch(std::uint32_t, std::uint32_t) override {}
  void fill(std::uint32_t set, std::uint32_t way) override {
    // Advance past the way just filled so the oldest line goes next.
    next_[set] = (way + 1) % ways_;
  }
  std::uint32_t victim(std::uint32_t set) override { return next_[set]; }
  void reset() override { std::fill(next_.begin(), next_.end(), 0u); }
  ReplacementFast fast() override {
    ReplacementFast f;
    f.kind = ReplacementKind::kFifo;
    f.meta32 = next_.data();
    f.ways = ways_;
    return f;
  }
  [[nodiscard]] std::string name() const override { return "fifo"; }

 private:
  std::uint32_t ways_;
  std::vector<std::uint32_t> next_;
};

/// Uniformly random victim (the "optional" MBPTA replacement, section 2.1).
class Random final : public Replacement {
 public:
  Random(std::uint32_t ways, std::shared_ptr<rng::Rng> rng)
      : ways_(ways), rng_(std::move(rng)) {
    assert(rng_ != nullptr && "random replacement needs a generator");
  }

  void touch(std::uint32_t, std::uint32_t) override {}
  void fill(std::uint32_t, std::uint32_t) override {}
  std::uint32_t victim(std::uint32_t) override {
    return static_cast<std::uint32_t>(rng_->next_below(ways_));
  }
  void reset() override {}
  ReplacementFast fast() override {
    ReplacementFast f;
    f.kind = ReplacementKind::kRandom;
    f.rng = rng_.get();
    f.xorshift = dynamic_cast<rng::XorShift64Star*>(rng_.get());
    f.ways = ways_;
    return f;
  }
  [[nodiscard]] std::string name() const override { return "random"; }

 private:
  std::uint32_t ways_;
  std::shared_ptr<rng::Rng> rng_;
};

/// Tree pseudo-LRU (binary decision tree per set).  Requires pow2 ways.
class Plru final : public Replacement {
 public:
  Plru(std::uint32_t sets, std::uint32_t ways)
      : ways_(ways), tree_(static_cast<std::size_t>(sets) * (ways - 1), 0) {
    assert(is_pow2(ways));
  }

  void touch(std::uint32_t set, std::uint32_t way) override {
    repl_ops::plru_touch(row(set), ways_, way);
  }

  void fill(std::uint32_t set, std::uint32_t way) override { touch(set, way); }

  std::uint32_t victim(std::uint32_t set) override {
    return repl_ops::plru_victim(row(set), ways_);
  }

  void reset() override { std::fill(tree_.begin(), tree_.end(), 0); }
  ReplacementFast fast() override {
    ReplacementFast f;
    f.kind = ReplacementKind::kPlru;
    f.meta8 = tree_.data();
    f.ways = ways_;
    return f;
  }
  [[nodiscard]] std::string name() const override { return "plru"; }

 private:
  [[nodiscard]] std::uint8_t* row(std::uint32_t set) {
    return tree_.data() + static_cast<std::size_t>(set) * (ways_ - 1);
  }

  std::uint32_t ways_;
  std::vector<std::uint8_t> tree_;
};

/// Not-most-recently-used: random victim excluding the MRU way.
class Nmru final : public Replacement {
 public:
  Nmru(std::uint32_t sets, std::uint32_t ways, std::shared_ptr<rng::Rng> rng)
      : ways_(ways), mru_(sets, 0), rng_(std::move(rng)) {
    assert(rng_ != nullptr && "NMRU needs a generator");
  }

  void touch(std::uint32_t set, std::uint32_t way) override {
    mru_[set] = way;
  }
  void fill(std::uint32_t set, std::uint32_t way) override { touch(set, way); }
  std::uint32_t victim(std::uint32_t set) override {
    return repl_ops::nmru_victim(mru_[set], ways_, fast());
  }
  void reset() override { std::fill(mru_.begin(), mru_.end(), 0u); }
  ReplacementFast fast() override {
    ReplacementFast f;
    f.kind = ReplacementKind::kNmru;
    f.meta32 = mru_.data();
    f.rng = rng_.get();
    f.xorshift = dynamic_cast<rng::XorShift64Star*>(rng_.get());
    f.ways = ways_;
    return f;
  }
  [[nodiscard]] std::string name() const override { return "nmru"; }

 private:
  std::uint32_t ways_;
  std::vector<std::uint32_t> mru_;
  std::shared_ptr<rng::Rng> rng_;
};

}  // namespace

std::unique_ptr<Replacement> make_replacement(ReplacementKind kind,
                                              std::uint32_t sets,
                                              std::uint32_t ways,
                                              std::shared_ptr<rng::Rng> rng) {
  switch (kind) {
    case ReplacementKind::kLru:
      return std::make_unique<Lru>(sets, ways);
    case ReplacementKind::kFifo:
      return std::make_unique<Fifo>(sets, ways);
    case ReplacementKind::kRandom:
      return std::make_unique<Random>(ways, std::move(rng));
    case ReplacementKind::kPlru:
      return std::make_unique<Plru>(sets, ways);
    case ReplacementKind::kNmru:
      return std::make_unique<Nmru>(sets, ways, std::move(rng));
  }
  return std::make_unique<Lru>(sets, ways);
}

std::string to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::kLru:
      return "lru";
    case ReplacementKind::kFifo:
      return "fifo";
    case ReplacementKind::kRandom:
      return "random";
    case ReplacementKind::kPlru:
      return "plru";
    case ReplacementKind::kNmru:
      return "nmru";
  }
  return "?";
}

}  // namespace tsc::cache
