#include "cache/builder.h"

#include <stdexcept>
#include <utility>

namespace tsc::cache {
namespace {

std::unique_ptr<IndexMapper> make_mapper(const CacheSpec& spec) {
  const Geometry& g = spec.config.geometry;
  if (spec.mapper == MapperKind::kRpCache) {
    return std::make_unique<RpCacheMapper>(g);
  }
  return std::make_unique<SeededMapper>(make_placement(spec.mapper, g));
}

bool needs_rng(const CacheSpec& spec) {
  return spec.mapper == MapperKind::kRpCache ||
         spec.replacement == ReplacementKind::kRandom ||
         spec.replacement == ReplacementKind::kNmru ||
         spec.config.random_fill_window > 0 || spec.config.ttl_max > 0;
}

}  // namespace

std::string CacheSpec::describe() const {
  const Geometry& g = config.geometry;
  std::string out = to_string(mapper) + "/" + to_string(replacement) + " " +
                    std::to_string(g.size_bytes() / 1024) + "KB " +
                    std::to_string(g.sets()) + "x" + std::to_string(g.ways()) +
                    "w" + std::to_string(g.line_bytes()) + "B";
  // Security extensions, only when armed (baseline strings are pinned by
  // fixtures and must not change).
  if (config.random_fill_window > 0) {
    out += " rfill±" + std::to_string(config.random_fill_window);
  }
  if (config.ttl_max > 0) {
    out += " ttl[" + std::to_string(config.ttl_min) + "," +
           std::to_string(config.ttl_max) + "]";
  }
  return out;
}

std::unique_ptr<Cache> build_cache(const CacheSpec& spec,
                                   std::shared_ptr<rng::Rng> rng) {
  if (needs_rng(spec) && rng == nullptr) {
    throw std::invalid_argument("cache design '" + spec.describe() +
                                "' requires a random number generator");
  }
  auto mapper = make_mapper(spec);
  auto repl = make_replacement(spec.replacement, spec.config.geometry.sets(),
                               spec.config.geometry.ways(), rng);
  return std::make_unique<Cache>(spec.config, std::move(mapper),
                                 std::move(repl), std::move(rng));
}

}  // namespace tsc::cache
