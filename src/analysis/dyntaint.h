// Dynamic taint oracle: the differential ground truth for the static
// analyzer.
//
// TaintOracle is an isa::TraceSink that shadows a run_reference() execution
// with exact per-register / per-memory-word taint bits under the same
// SecretSpec the static analyzer sees, and records every concrete channel
// violation (secret address, secret branch condition / jump target, secret
// flush operand) as a (kind, pc) pair.  Because it tracks the one concrete
// execution, it UNDER-approximates leakage; the static analyzer
// over-approximates all executions.  The repo's soundness property test
// generates random programs and asserts
//
//     dynamic violations  (subset of)  static violations
//
// for every run that honors the analyzer's assumptions.  The two caveat
// flags report when a run steps outside that envelope: `left_image` (a pc
// outside the loaded program - static analysis only covers in-image code)
// and `wrote_code` (self-modifying store - the static CFG is built from
// the original image).
//
// Propagation intentionally stays *below* the static transfer function:
// loads taint the destination only with the taint actually present at the
// accessed words (plus the address register's), and stores taint exactly
// the words they write.  Like the static domain, word taint is weak (never
// cleared), which keeps the containment argument one-directional.
#pragma once

#include <set>
#include <utility>

#include "analysis/taint.h"
#include "common/types.h"
#include "isa/interpreter.h"

namespace tsc::analysis {

class TaintOracle final : public isa::TraceSink {
 public:
  /// `image_base` / `image_bytes` delimit the loaded program, for the
  /// left_image / wrote_code caveat flags.
  TaintOracle(SecretSpec spec, Addr image_base, std::size_t image_bytes);

  void step(Addr pc, const isa::Instr& in, Addr ea) override;

  /// Concrete violations observed so far, as (pc, kind) - same key space
  /// as the static report's leaks.
  [[nodiscard]] const std::set<std::pair<Addr, LeakKind>>& leaks() const {
    return leaks_;
  }
  [[nodiscard]] bool left_image() const { return left_image_; }
  [[nodiscard]] bool wrote_code() const { return wrote_code_; }

 private:
  [[nodiscard]] bool tainted(unsigned r) const {
    return ((reg_taint_ >> r) & 1u) != 0;
  }
  void set_taint(unsigned r, bool taint);
  /// Any byte of [a, a + size) inside a declared region or a tainted word?
  [[nodiscard]] bool mem_tainted(Addr a, Addr size) const;
  void taint_words(Addr a, Addr size);

  SecretSpec spec_;
  Addr image_base_;
  std::size_t image_bytes_;
  std::uint16_t reg_taint_ = 0;
  std::set<Addr> tainted_words_;
  std::set<std::pair<Addr, LeakKind>> leaks_;
  bool left_image_ = false;
  bool wrote_code_ = false;
};

}  // namespace tsc::analysis
