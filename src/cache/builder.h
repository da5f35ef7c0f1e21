// Declarative cache construction: a CacheSpec names the design; build_cache
// assembles mapper + replacement + line array.  Experiments use this so the
// four setups of section 6.1.2 are data, not code.
#pragma once

#include <memory>
#include <string>

#include "cache/cache.h"

namespace tsc::cache {

/// Everything needed to instantiate one cache level.
struct CacheSpec {
  CacheConfig config;
  MapperKind mapper = MapperKind::kModulo;
  ReplacementKind replacement = ReplacementKind::kLru;

  [[nodiscard]] std::string describe() const;
};

/// Build the cache.  `rng` feeds random replacement and the RPCache
/// contention rule; it is required whenever either is in play.
[[nodiscard]] std::unique_ptr<Cache> build_cache(
    const CacheSpec& spec, std::shared_ptr<rng::Rng> rng = nullptr);

}  // namespace tsc::cache
