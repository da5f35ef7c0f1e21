#include "attack/contention.h"

#include <unordered_map>
#include <vector>

namespace tsc::attack {
namespace {

/// Learns feature -> secret from calibration votes and answers queries.
class CalibrationMap {
 public:
  void vote(std::uint64_t feature, unsigned secret) {
    auto& votes = votes_[feature];
    if (votes.size() <= secret) votes.resize(secret + 1, 0);
    ++votes[secret];
  }

  /// Most-voted secret for this feature, or `fallback` if never seen.
  [[nodiscard]] unsigned infer(std::uint64_t feature, unsigned fallback) const {
    const auto it = votes_.find(feature);
    if (it == votes_.end()) return fallback;
    unsigned best = fallback;
    unsigned best_votes = 0;
    for (unsigned s = 0; s < it->second.size(); ++s) {
      if (it->second[s] > best_votes) {
        best_votes = it->second[s];
        best = s;
      }
    }
    return best;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<unsigned>> votes_;
};

constexpr std::uint64_t kNoFeature = ~std::uint64_t{0};

/// The shared end of both contention attacks: learn feature -> secret from
/// `calibration_reps` rounds over every candidate, then run `trials` attack
/// trials on random secrets.  `run_trial(secret)` returns the observed
/// feature.  Per trial the rng draws the secret, then the fallback guess.
template <typename RunTrial>
ContentionOutcome calibrate_then_attack(const ContentionConfig& config,
                                        rng::Rng& rng,
                                        const RunTrial& run_trial) {
  CalibrationMap map;
  for (unsigned rep = 0; rep < config.calibration_reps; ++rep) {
    for (unsigned c = 0; c < config.candidates; ++c) {
      map.vote(run_trial(c), c);
    }
  }

  ContentionOutcome outcome;
  for (unsigned t = 0; t < config.trials; ++t) {
    const auto secret = static_cast<unsigned>(rng.next_below(config.candidates));
    const std::uint64_t feature = run_trial(secret);
    const auto fallback = static_cast<unsigned>(rng.next_below(config.candidates));
    ++outcome.trials;
    if (map.infer(feature, fallback) == secret) ++outcome.correct;
  }
  return outcome;
}

}  // namespace

ContentionOutcome run_prime_probe(sim::Machine& machine, ProcId victim,
                                  ProcId attacker,
                                  const ContentionConfig& config,
                                  rng::Rng& rng,
                                  const TrialHook& before_trial) {
  const cache::Geometry geo = machine.hierarchy().l1d().geometry();
  const std::uint32_t line = geo.line_bytes();
  const std::uint32_t prime_lines = geo.sets() * geo.ways();

  const auto prime = [&] {
    machine.set_process(attacker);
    for (std::uint32_t i = 0; i < prime_lines; ++i) {
      machine.load(config.attacker_code, config.attacker_base + i * line);
    }
  };

  const auto victim_access = [&](unsigned secret) {
    machine.set_process(victim);
    machine.load(config.victim_code, config.victim_base + secret * line);
  };

  // Probe in prime order; the feature is the first line whose re-access is
  // slowest (the line the victim's fill displaced).
  const auto probe = [&]() -> std::uint64_t {
    machine.set_process(attacker);
    std::uint64_t feature = kNoFeature;
    Cycles worst = 0;
    for (std::uint32_t i = 0; i < prime_lines; ++i) {
      const Cycles t0 = machine.now();
      machine.load(config.attacker_code, config.attacker_base + i * line);
      const Cycles lat = machine.now() - t0;
      if (lat > worst) {
        worst = lat;
        feature = i;
      }
    }
    return feature;
  };

  const auto run_trial = [&](unsigned secret) -> std::uint64_t {
    before_trial();
    prime();
    victim_access(secret);
    return probe();
  };

  return calibrate_then_attack(config, rng, run_trial);
}

ContentionOutcome run_evict_time(sim::Machine& machine, ProcId victim,
                                 ProcId attacker,
                                 const ContentionConfig& config,
                                 rng::Rng& rng,
                                 const TrialHook& before_trial) {
  const cache::Geometry geo = machine.hierarchy().l1d().geometry();
  const std::uint32_t line = geo.line_bytes();
  const std::uint32_t sets = geo.sets();
  const std::uint32_t ways = geo.ways();

  // The victim's candidate line c has modulo index (vb + c) % sets; the
  // attacker's eviction group for candidate c is its own `ways` lines with
  // that index.  On a modulo cache this is a perfect eviction set; on a
  // randomized cache it is exactly as useless as the paper argues.
  const Addr vb_line = config.victim_base / line;
  const Addr ab_line = config.attacker_base / line;

  const auto evict_group = [&](unsigned candidate) {
    machine.set_process(attacker);
    const std::uint32_t target =
        static_cast<std::uint32_t>((vb_line + candidate) % sets);
    const std::uint32_t first =
        (target + sets - static_cast<std::uint32_t>(ab_line % sets)) % sets;
    for (std::uint32_t w = 0; w < ways; ++w) {
      machine.load(config.attacker_code,
                   config.attacker_base + (first + w * sets) * line);
    }
  };

  // The victim's measurable unit: one secret-dependent load plus a little
  // fixed work, as in a table-lookup routine.
  const auto victim_run = [&](unsigned secret) -> Cycles {
    machine.set_process(victim);
    const Cycles t0 = machine.now();
    machine.instr_block(config.victim_code, 4);
    machine.load(config.victim_code + 16, config.victim_base + secret * line);
    machine.instr_block(config.victim_code + 20, 4);
    return machine.now() - t0;
  };

  const auto run_trial = [&](unsigned secret) -> std::uint64_t {
    before_trial();
    (void)victim_run(secret);  // warm: the secret line is now cached
    std::uint64_t feature = kNoFeature;
    Cycles worst = 0;
    for (unsigned c = 0; c < config.candidates; ++c) {
      evict_group(c);
      const Cycles t = victim_run(secret);
      if (t > worst) {
        worst = t;
        feature = c;
      }
    }
    return feature;
  };

  return calibrate_then_attack(config, rng, run_trial);
}

}  // namespace tsc::attack
