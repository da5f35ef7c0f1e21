// Shared helpers for the seeded-mutation tests of untrusted-byte parsers:
// the mutation operator and an allocation high-water mark.  Include from
// exactly one translation unit per test binary - it replaces the global
// allocation functions.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

// --- allocation high-water mark ----------------------------------------------
//
// The binary replaces the global allocation functions so a test can ask for
// the largest single request made while it parsed damaged bytes.

namespace fuzz_support {
inline std::atomic<std::size_t> g_largest_alloc{0};

inline void* tracked_alloc(std::size_t n) {
  std::size_t seen = g_largest_alloc.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_alloc.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace fuzz_support

void* operator new(std::size_t n) { return fuzz_support::tracked_alloc(n); }
void* operator new[](std::size_t n) { return fuzz_support::tracked_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tsc::runner {

/// No damaged input of the sizes used here may make a parser ask for more
/// than this in one allocation; the honest inputs need well under 1 MB.
inline constexpr std::size_t kAllocLimit = std::size_t{8} << 20;

using Bytes = std::vector<std::uint8_t>;

/// Largest single allocation since the last reset.
inline std::size_t largest_alloc() {
  return fuzz_support::g_largest_alloc.load(std::memory_order_relaxed);
}
inline void reset_largest_alloc() {
  fuzz_support::g_largest_alloc.store(0, std::memory_order_relaxed);
}

/// A few thousand byte flips, inserts and deletes, 1-3 per mutant.
inline Bytes mutate(const Bytes& in, std::mt19937_64& rng) {
  Bytes out = in;
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int k = 0; k < ops; ++k) {
    const std::size_t at = out.empty() ? 0 : rng() % out.size();
    switch (rng() % 3) {
      case 0:
        if (!out.empty()) out[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
        break;
      case 1:
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<std::uint8_t>(rng()));
        break;
      default:
        if (!out.empty()) {
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(at));
        }
        break;
    }
  }
  return out;
}

}  // namespace tsc::runner
