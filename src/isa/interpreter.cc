#include "isa/interpreter.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "rng/rng.h"

namespace tsc::isa {

const std::uint32_t* SparseMemory::word_of_slow(Addr a) const {
  const Addr page_no = a / kPageBytes;
  const auto it = pages_.find(page_no);
  if (it == pages_.end()) return nullptr;
  // Install the direct-mapped slot so the next access to this page is one
  // tag compare (observationally pure: the page contents do not change).
  Slot& slot = slots_[page_no % kSlots];
  slot.tag = page_no + 1;
  slot.words = it->second->data();
  return slot.words + (a % kPageBytes) / 4;
}

std::uint32_t& SparseMemory::word_for_slow(Addr a) {
  const Addr page_no = a / kPageBytes;
  std::unique_ptr<Page>& page = pages_[page_no];
  if (page == nullptr) page = std::make_unique<Page>();
  Slot& slot = slots_[page_no % kSlots];
  slot.tag = page_no + 1;
  slot.words = page->data();
  return slot.words[(a % kPageBytes) / 4];
}

std::uint8_t SparseMemory::load8(Addr a) const {
  const std::uint32_t* w = word_of(a & ~Addr{3});
  return w == nullptr
             ? 0
             : static_cast<std::uint8_t>(*w >> (8 * (a & 3)));
}

void SparseMemory::store8(Addr a, std::uint8_t v) {
  std::uint32_t& w = word_for(a & ~Addr{3});
  const unsigned shift = 8 * static_cast<unsigned>(a & 3);
  w = (w & ~(0xFFu << shift)) | (std::uint32_t{v} << shift);
}

std::uint32_t SparseMemory::load32_unaligned(Addr a) const {
  return static_cast<std::uint32_t>(load8(a)) |
         (static_cast<std::uint32_t>(load8(a + 1)) << 8) |
         (static_cast<std::uint32_t>(load8(a + 2)) << 16) |
         (static_cast<std::uint32_t>(load8(a + 3)) << 24);
}

void SparseMemory::store32_unaligned(Addr a, std::uint32_t v) {
  store8(a, static_cast<std::uint8_t>(v));
  store8(a + 1, static_cast<std::uint8_t>(v >> 8));
  store8(a + 2, static_cast<std::uint8_t>(v >> 16));
  store8(a + 3, static_cast<std::uint8_t>(v >> 24));
}

void SparseMemory::clear() {
  for (auto& [page_no, page] : pages_) page->fill(0);
  // Slots stay valid: they alias the same (now zeroed) pages.
}

void Interpreter::load_program(const Program& program) {
  for (std::size_t i = 0; i < program.words.size(); ++i) {
    memory_.store32(program.base + 4 * i, program.words[i]);
  }
  code_base_ = program.base;
  code_span_ = 4 * program.words.size();
  code_.resize(program.words.size());
  for (std::size_t i = 0; i < program.words.size(); ++i) {
    const auto decoded = decode(program.words[i]);
    code_[i].ok = decoded.has_value();
    if (decoded.has_value()) code_[i].in = *decoded;
  }
}

void Interpreter::refresh_code(Addr a, std::size_t n) {
  const Addr begin = std::max(a, code_base_);
  const Addr end = std::min(a + n, code_base_ + code_span_);
  for (Addr word = (begin - code_base_) / 4;
       word * 4 + code_base_ < end && word < code_.size(); ++word) {
    const auto decoded = decode(memory_.load32(code_base_ + 4 * word));
    code_[word].ok = decoded.has_value();
    code_[word].in = decoded.value_or(Instr{});
  }
}

void Interpreter::poke32(Addr a, std::uint32_t v) { store32_sync(a, v); }

void Interpreter::poke_bytes(Addr a, const std::uint8_t* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) memory_.store8(a + i, data[i]);
  if (touches_code(a, n)) [[unlikely]] refresh_code(a, n);
}

void Interpreter::reset() {
  memory_.clear();
  regs_.fill(0);
  code_base_ = 0;
  code_span_ = 0;
  code_.clear();
}

void Interpreter::set_reg(unsigned index, std::uint32_t value) {
  assert(index < 16);
  if (index != 0) regs_[index] = value;  // r0 is hardwired to zero
}

RunResult Interpreter::run(Addr entry, std::uint64_t max_steps) {
  return run_loop<true>(entry, max_steps);
}

RunResult Interpreter::run_reference(Addr entry, std::uint64_t max_steps) {
  return run_loop<false>(entry, max_steps);
}

namespace {

/// Writes what a run_reference() execution asks of the machine into a
/// FetchTrace.  step() runs before the instruction's side effects, so the
/// registers it reads are the ones the instruction reads: a branch's
/// outcome comes from them, not from where the pc goes next (a taken
/// branch to pc + 4 still pays the bubble).
class FetchRecorder final : public TraceSink {
 public:
  FetchRecorder(const Interpreter& interp, sim::FetchTrace& out)
      : interp_(interp), out_(out) {}

  void step(Addr pc, const Instr& in, Addr ea) override {
    switch (in.op) {
      case Op::kLw:
      case Op::kLb:
      case Op::kLbu:
        out_.load(pc, ea);
        break;
      case Op::kSw:
      case Op::kSb:
        out_.store(pc, ea);
        break;
      case Op::kFlush:
        out_.flush_line(pc, ea);
        break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu:
        out_.branch(pc, branch_taken(in.op, interp_.reg(in.rs1),
                                     interp_.reg(in.rs2)));
        break;
      case Op::kJal:
      case Op::kJalr:
        out_.branch(pc, true);
        break;
      default:
        out_.instr(pc);
        break;
    }
  }

 private:
  const Interpreter& interp_;
  sim::FetchTrace& out_;
};

}  // namespace

sim::FetchTrace Interpreter::record(Addr entry, std::uint64_t max_steps,
                                   RunResult* result) {
  sim::FetchTrace trace(machine_.hierarchy().l1i().geometry().line_bytes());
  FetchRecorder recorder(*this, trace);
  // Put the previous sink back on every exit: the trace throws on an
  // address beyond 32 bits, and the recorder dies with this frame.
  class SinkRestore {
   public:
    explicit SinkRestore(TraceSink*& sink) : sink_(sink), previous_(sink) {}
    SinkRestore(const SinkRestore&) = delete;
    SinkRestore& operator=(const SinkRestore&) = delete;
    ~SinkRestore() { sink_ = previous_; }

   private:
    TraceSink*& sink_;
    TraceSink* const previous_;
  } restore(trace_sink_);
  trace_sink_ = &recorder;
  const RunResult run = run_reference(entry, max_steps);
  if (result != nullptr) *result = run;
  trace.shrink_to_fit();
  return trace;
}

namespace {

const char* stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kHalt:
      return "halt";
    case StopReason::kStepLimit:
      return "the step limit";
    case StopReason::kBadInstruction:
      return "a bad instruction";
  }
  return "?";
}

/// The private paper-platform machine recordings run on, with the program
/// loaded.  Successive passes continue from the previous pass's registers
/// and memory.
class Recorder {
 public:
  explicit Recorder(const Program& program)
      : machine_(sim::arm920t_config(cache::MapperKind::kModulo,
                                     cache::MapperKind::kModulo,
                                     cache::ReplacementKind::kLru),
                 std::make_shared<rng::XorShift64Star>(1)),
        interp_(machine_) {
    interp_.load_program(program);
  }

  /// Record one pass from `entry`; throws unless it halted.
  sim::FetchTrace pass(Addr entry, const char* name) {
    RunResult run;
    sim::FetchTrace trace = interp_.record(entry, kDefaultMaxSteps, &run);
    if (run.reason != StopReason::kHalt) {
      throw std::runtime_error(
          std::string("kernel recording: the ") + name + " pass stopped on " +
          stop_reason_name(run.reason) + " after " +
          std::to_string(run.steps) + " steps, before halt");
    }
    return trace;
  }

 private:
  sim::Machine machine_;
  Interpreter interp_;
};

}  // namespace

KernelPasses record_passes(const Program& program, Addr entry) {
  Recorder recorder(program);
  KernelPasses passes;
  passes.warm = recorder.pass(entry, "warm");
  passes.timed = recorder.pass(entry, "timed");
  return passes;
}

sim::FetchTrace record_pass(const Program& program, Addr entry) {
  return Recorder(program).pass(entry, "warm");
}

Cycles KernelPasses::time(sim::Machine& machine) const {
  machine.replay(warm);
  const Cycles start = machine.now();
  machine.replay(timed);
  return machine.now() - start;
}

template <bool kUseDecodeCache>
RunResult Interpreter::run_loop(Addr entry, std::uint64_t max_steps) {
  const Cycles start_cycles = machine_.now();
  RunResult result;
  Addr pc = entry;

  while (result.steps < max_steps) {
    Instr in;
    bool ok;
    if constexpr (kUseDecodeCache) {
      // One bounds check selects the pre-decoded instruction; anything
      // outside the image (or unaligned) decodes from memory, bit-exactly.
      const Addr off = pc - code_base_;  // wraps huge when pc < code_base_
      if (off < code_span_ && (off & 3u) == 0) [[likely]] {
        const CachedInstr& cached = code_[off / 4];
        ok = cached.ok;
        in = cached.in;
      } else {
        ok = fetch_decode(pc, in);
      }
    } else {
      ok = fetch_decode(pc, in);
    }
    if (!ok) [[unlikely]] {
      result.reason = StopReason::kBadInstruction;
      break;
    }
    ++result.steps;

    const std::uint32_t a = regs_[in.rs1];
    const std::uint32_t b = regs_[in.rs2];
    const auto imm = static_cast<std::uint32_t>(in.imm);
    Addr next_pc = pc + 4;
    bool done = false;

    if constexpr (!kUseDecodeCache) {
      // Reference-path observation hook (dynamic taint oracle).  The fast
      // path compiles this out entirely, so golden campaigns are untouched.
      if (trace_sink_ != nullptr) [[unlikely]] {
        Addr ea = 0;
        if (is_memory(in.op)) {
          ea = a + imm;
        } else if (in.op == Op::kFlush || in.op == Op::kJalr) {
          ea = a;
        }
        trace_sink_->step(pc, in, ea);
      }
    }

    switch (in.op) {
      case Op::kAdd: machine_.instr(pc); set_reg(in.rd, a + b); break;
      case Op::kSub: machine_.instr(pc); set_reg(in.rd, a - b); break;
      case Op::kAnd: machine_.instr(pc); set_reg(in.rd, a & b); break;
      case Op::kOr:  machine_.instr(pc); set_reg(in.rd, a | b); break;
      case Op::kXor: machine_.instr(pc); set_reg(in.rd, a ^ b); break;
      case Op::kSll: machine_.instr(pc); set_reg(in.rd, a << (b & 31)); break;
      case Op::kSrl: machine_.instr(pc); set_reg(in.rd, a >> (b & 31)); break;
      case Op::kSra:
        machine_.instr(pc);
        set_reg(in.rd, static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(a) >> (b & 31)));
        break;
      case Op::kSlt:
        machine_.instr(pc);
        set_reg(in.rd, static_cast<std::int32_t>(a) <
                               static_cast<std::int32_t>(b)
                           ? 1
                           : 0);
        break;
      case Op::kSltu: machine_.instr(pc); set_reg(in.rd, a < b ? 1 : 0); break;
      case Op::kMul:  machine_.instr(pc); set_reg(in.rd, a * b); break;

      case Op::kAddi: machine_.instr(pc); set_reg(in.rd, a + imm); break;
      case Op::kAndi: machine_.instr(pc); set_reg(in.rd, a & imm); break;
      case Op::kOri:  machine_.instr(pc); set_reg(in.rd, a | imm); break;
      case Op::kXori: machine_.instr(pc); set_reg(in.rd, a ^ imm); break;
      case Op::kSlli: machine_.instr(pc); set_reg(in.rd, a << (imm & 31)); break;
      case Op::kSrli: machine_.instr(pc); set_reg(in.rd, a >> (imm & 31)); break;
      case Op::kSlti:
        machine_.instr(pc);
        set_reg(in.rd, static_cast<std::int32_t>(a) < in.imm ? 1 : 0);
        break;
      case Op::kLui: machine_.instr(pc); set_reg(in.rd, imm << 16); break;

      case Op::kLw: {
        const Addr ea = a + imm;
        machine_.load(pc, ea);
        set_reg(in.rd, memory_.load32(ea));
        break;
      }
      case Op::kLb: {
        const Addr ea = a + imm;
        machine_.load(pc, ea);
        set_reg(in.rd, static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(
                               static_cast<std::int8_t>(memory_.load8(ea)))));
        break;
      }
      case Op::kLbu: {
        const Addr ea = a + imm;
        machine_.load(pc, ea);
        set_reg(in.rd, memory_.load8(ea));
        break;
      }
      case Op::kSw: {
        const Addr ea = a + imm;
        machine_.store(pc, ea);
        store32_sync(ea, regs_[in.rd]);
        break;
      }
      case Op::kSb: {
        const Addr ea = a + imm;
        machine_.store(pc, ea);
        store8_sync(ea, static_cast<std::uint8_t>(regs_[in.rd]));
        break;
      }

      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge:
      case Op::kBltu:
      case Op::kBgeu: {
        const bool taken = branch_taken(in.op, a, b);
        machine_.branch(pc, taken);
        if (taken) {
          next_pc = pc + 4 + 4 * static_cast<Addr>(
                                     static_cast<std::int64_t>(in.imm));
        }
        break;
      }
      case Op::kJal:
        machine_.branch(pc, true);
        set_reg(in.rd, static_cast<std::uint32_t>(pc + 4));
        next_pc =
            pc + 4 + 4 * static_cast<Addr>(static_cast<std::int64_t>(in.imm));
        break;
      case Op::kJalr: {
        machine_.branch(pc, true);
        const Addr target = a;  // read rs1 before rd overwrites it
        set_reg(in.rd, static_cast<std::uint32_t>(pc + 4));
        next_pc = target;
        break;
      }

      case Op::kHalt:
        machine_.instr(pc);
        done = true;
        break;
      case Op::kNop:
        machine_.instr(pc);
        break;
      case Op::kFlush:
        // Flush the line containing the address in rs1 from every cache
        // level; functionally a no-op (no register or memory effect), but
        // the machine pays the present/absent-dependent flush latency.
        machine_.flush_line(pc, a);
        break;
    }

    pc = next_pc;
    if (done) {
      result.reason = StopReason::kHalt;
      result.cycles = machine_.now() - start_cycles;
      return result;
    }
  }

  if (result.steps >= max_steps) result.reason = StopReason::kStepLimit;
  result.cycles = machine_.now() - start_cycles;
  return result;
}

}  // namespace tsc::isa
