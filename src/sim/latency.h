// Latency parameters of the simulated platform.
//
// The paper's evaluation platform is an ARM920T-class single-core automotive
// microcontroller with a 5-stage pipeline (section 6.1.2).  Absolute cycle
// counts are not compared against the paper (its testbed is SocLib RTL-level
// detail); what matters is the latency *ordering* hit < L2 < memory that all
// cache timing attacks and all pWCET variability derive from.
#pragma once

#include "common/types.h"

namespace tsc::sim {

/// Cycle costs of the memory system and pipeline events.
struct LatencyConfig {
  Cycles l1_hit = 1;    ///< total latency of an L1 hit (absorbed by pipeline)
  Cycles l2_hit = 8;    ///< additional cycles when an L1 miss hits L2
  Cycles memory = 60;   ///< additional cycles when the access goes to memory
  Cycles branch_penalty = 2;   ///< taken-branch bubble (resolve in EX)
  unsigned pipeline_depth = 5; ///< stages; drain cost = depth - 1
  Cycles seed_update = 2;      ///< writing a placement-seed register
  Cycles flush_per_line = 1;   ///< invalidating one valid line during flush
  /// Fixed cost of ISSUING a flush operation (whole-cache or per-line):
  /// the pipeline slot plus one tag probe per level, paid even when nothing
  /// is resident.  Without it a flush of an empty hierarchy would cost 0
  /// cycles - a degenerate timing model that also made flush-timing
  /// channels unmeasurable.
  Cycles flush_base = 3;
  /// Extra per-line-flush cost for each LEVEL that actually held the line
  /// (invalidate + coherence acknowledge).  The present/absent delta is
  /// precisely the observable a Flush+Flush attacker times.
  Cycles flush_hit = 4;
  /// Extra per-line-flush cost when an invalidated line was dirty (the
  /// writeback drains to the next level before the flush completes).
  Cycles flush_writeback = 12;
  /// TimeCache-style access-time quantization (arXiv:2009.14732): when > 0,
  /// every hierarchy access latency is rounded UP to the next multiple of
  /// `quantum` before it reaches the core.  A quantum at least as large as
  /// the worst-case path (l1_hit + l2_hit + memory) makes every access cost
  /// identical - the timing channel an eviction attack reads disappears, at
  /// the worst-case cost on every access.  0 disables quantization (the
  /// default for every other platform; fig5/attack goldens depend on it).
  Cycles quantum = 0;

  /// Paper section 6.2.3: restoring a seed "would only require to wait until
  /// all accesses in flight of the previous process have been served, which
  /// would take tens of cycles" - with these defaults a seed change costs
  /// (depth-1) + seed_update per cache, i.e. ~10 cycles for 3 caches.
  [[nodiscard]] Cycles drain_cost() const { return pipeline_depth - 1; }

  /// `latency` as the core sees it: rounded up to the quantum when one is
  /// set (TimeCache), unchanged otherwise.
  [[nodiscard]] Cycles quantized(Cycles latency) const {
    if (quantum == 0) return latency;
    return (latency + quantum - 1) / quantum * quantum;
  }
};

}  // namespace tsc::sim
