// Line-granular Flush+Reload and Flush+Flush against the simulated AES
// victim.
//
// Both attacks assume SHARED memory between attacker and victim: the
// attacker's code runs inside the victim's software component (the
// attacker-controlled-code-in-the-victim scenario - a library routine, a
// JIT'd payload), so it addresses the victim's own AES tables and its
// flushes and reloads resolve through the victim's placement context,
// exactly as a physical-address clflush does on real hardware.  That is
// what makes the flush channel qualitatively different from the
// eviction-based matrix (Prime+Probe / Evict+Time): per-process placement
// randomization is IN FRAME and therefore transparent - the attacker never
// needs to know which set a line occupies, only its address.
//
// Flush+Reload (Yarom & Falkner): flush every monitored table line, let
// the victim encrypt once, then reload each line and time it.  A fast
// reload means the line was already resident, i.e. the victim's
// secret-dependent lookups touched it.
//
// Flush+Flush (Gruss et al.): identical protocol, but the second pass
// times the FLUSH itself instead of a reload.  The hierarchy's flush cost
// model pays extra for every level that actually held the line, so a slow
// flush marks a touched line - and the probe pass leaves no freshly
// reloaded lines behind, making it the quieter variant.
//
// Thresholds are CALIBRATED, not assumed: at session start the attacker
// times a reload it knows must hit and a flush it knows must miss, and
// classifies trial observations against those baselines.  Defenses that
// act on observable timing (TimeCache's quantization) collapse the
// calibrated gap itself; defenses that act on residency (Clepsydra's TTL
// expiry, Random-and-Safe's demand-miss bypass) decouple "victim touched
// it" from "resident at reload time".  Both degrade the channel without
// any change to the attacker protocol - that contrast is the experiment.
//
// The per-trial observable is the binary touched-vector over the 4 x
// lines-per-table monitored lines; an AES campaign logs it with its
// plaintext in a ProbeLog (attack/profile.h) with one slot per monitored
// line - the log Prime+Probe fills with per-set probe misses.
#pragma once

#include <cstddef>

#include "attack/profile.h"
#include "common/types.h"
#include "crypto/sim_aes.h"
#include "rng/rng.h"
#include "sim/machine.h"

namespace tsc::attack {

/// Attacker knobs shared by both flush attacks.
struct FlushConfig {
  /// Instruction address of the flush/reload loop (kept hot so a stale
  /// fetch is never charged to a timed flush or reload).
  Addr attacker_code = 0x0068'0000;
};

/// Run `samples` flush -> encrypt -> reload trials on `machine`.  The
/// attacker executes under `victim` (shared-memory co-residency; see file
/// comment), flushing and reloading the victim's own AES table lines.
/// Plaintexts come from `pt_rng`.  The log has one slot per monitored
/// line: table (m / lines_per_table), line (m % lines_per_table).
/// aes.key() - ground truth an evaluator has and an attacker does not -
/// feeds only the channel diagnostic.
///
/// The channel's witness is an INCLUSION witness: the lowest table-2
/// monitored line observed touched.  Round 1 always touches the true line,
/// so under a faithful channel the witness never exceeds the true class;
/// TTL expiry and quantization break exactly that bound.
[[nodiscard]] ProbeOutcome run_aes_flush_reload(sim::Machine& machine,
                                                ProcId victim,
                                                crypto::SimAes& aes,
                                                std::size_t samples,
                                                rng::Rng& pt_rng,
                                                const FlushConfig& config);

/// Same protocol, but the probe pass times the flush itself (Flush+Flush):
/// a flush slower than the calibrated absent-line baseline marks a line
/// some cache level held.
[[nodiscard]] ProbeOutcome run_aes_flush_flush(sim::Machine& machine,
                                               ProcId victim,
                                               crypto::SimAes& aes,
                                               std::size_t samples,
                                               rng::Rng& pt_rng,
                                               const FlushConfig& config);

}  // namespace tsc::attack
