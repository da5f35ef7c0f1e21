#include "runner/fault.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>

namespace tsc::runner {
namespace {

std::atomic<bool> g_interrupted{false};

extern "C" void interrupt_signal_handler(int) {
  // Only an atomic flag write is async-signal-safe; the shard runner polls
  // the flag between completions and does the draining/flushing itself.
  g_interrupted.store(true, std::memory_order_relaxed);
}

bool parse_size(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) return false;
  out = v;
  return true;
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kThrow: return "throw";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kWedge: return "wedge";
    case FaultKind::kKill: return "kill";
  }
  return "?";
}

bool fault_kind_is_process_fatal(FaultKind kind) {
  return kind == FaultKind::kCrash || kind == FaultKind::kWedge ||
         kind == FaultKind::kKill;
}

std::string to_spec_string(const FaultSpec& spec) {
  return "shard=" + std::to_string(spec.shard) +
         ",kind=" + std::string(to_string(spec.kind)) +
         ",times=" + std::to_string(spec.times);
}

std::uint64_t backoff_delay_ms(const BackoffSpec& spec, std::size_t shard,
                               int attempt) {
  if (attempt <= 0 || spec.base_ms == 0) return 0;
  // base * 2^(attempt-1), saturating well before overflow.
  const int exponent = std::min(attempt - 1, 20);
  const std::uint64_t raw = spec.base_ms << exponent;
  const std::uint64_t capped = std::min(spec.cap_ms, raw);
  // Deterministic jitter: FNV-1a over (shard, attempt), modulo a quarter
  // of the capped delay.  Same (shard, attempt) -> same delay, always.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(shard));
  mix(static_cast<std::uint64_t>(attempt));
  const std::uint64_t jitter_window = capped / 4;
  return capped + (jitter_window > 0 ? h % jitter_window : 0);
}

std::optional<FaultSpec> parse_fault_spec(const std::string& spec,
                                          std::string* error) {
  FaultSpec out;
  bool have_shard = false;
  bool have_kind = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) {
      if (error) *error = "field '" + field + "' is not key=value";
      return std::nullopt;
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    std::uint64_t n = 0;
    if (key == "shard") {
      if (!parse_size(value, n)) {
        if (error) *error = "shard needs an unsigned integer";
        return std::nullopt;
      }
      out.shard = static_cast<std::size_t>(n);
      have_shard = true;
    } else if (key == "kind") {
      if (value == "throw") {
        out.kind = FaultKind::kThrow;
      } else if (value == "corrupt") {
        out.kind = FaultKind::kCorrupt;
      } else if (value == "crash") {
        out.kind = FaultKind::kCrash;
      } else if (value == "wedge") {
        out.kind = FaultKind::kWedge;
      } else if (value == "kill") {
        out.kind = FaultKind::kKill;
      } else {
        if (error) {
          *error = "kind must be throw|corrupt|crash|wedge|kill, got '" +
                   value + "'";
        }
        return std::nullopt;
      }
      have_kind = true;
    } else if (key == "times") {
      if (!parse_size(value, n) || n == 0) {
        if (error) *error = "times needs a positive integer";
        return std::nullopt;
      }
      out.times = static_cast<int>(n);
    } else {
      if (error) *error = "unknown field '" + key + "'";
      return std::nullopt;
    }
  }
  if (!have_shard || !have_kind) {
    if (error) {
      *error = "spec needs shard=K,kind=throw|corrupt|crash|wedge|kill";
    }
    return std::nullopt;
  }
  return out;
}

void FaultInjector::on_task_start(std::size_t task, int attempt) const {
  if (!targets(task, attempt)) return;
  switch (spec_.kind) {
    case FaultKind::kThrow:
      throw InjectedFault("injected throw in shard " + std::to_string(task) +
                          " attempt " + std::to_string(attempt));
    case FaultKind::kCrash:
      std::abort();
    case FaultKind::kKill:
      (void)std::raise(SIGKILL);
      std::abort();  // unreachable; SIGKILL cannot be blocked
    case FaultKind::kWedge: {
      // A genuine wedge: no condition variable, no cancellation point.
      // Inside a --dispatch worker only the supervisor's SIGKILL ends it.
      std::atomic<std::uint64_t> spin{0};
      for (;;) {
        spin.fetch_add(1, std::memory_order_relaxed);
      }
    }
    case FaultKind::kNone:
    case FaultKind::kCorrupt:
      break;  // corrupt applies to the payload, not the task body
  }
}

bool FaultInjector::maybe_corrupt(std::size_t task, int attempt,
                                  std::vector<std::uint8_t>& payload) const {
  if (spec_.kind != FaultKind::kCorrupt || !targets(task, attempt)) {
    return false;
  }
  if (payload.empty()) payload.push_back(0);
  payload[payload.size() / 2] ^= 0xFF;  // guaranteed checksum mismatch
  return true;
}

void install_interrupt_handlers() {
  std::signal(SIGINT, interrupt_signal_handler);
  std::signal(SIGTERM, interrupt_signal_handler);
}

bool interrupt_requested() {
  return g_interrupted.load(std::memory_order_relaxed);
}

void request_interrupt() { g_interrupted.store(true, std::memory_order_relaxed); }

void clear_interrupt() { g_interrupted.store(false, std::memory_order_relaxed); }

}  // namespace tsc::runner
