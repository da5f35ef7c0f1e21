// TSISA: a compact 32-bit RISC instruction set for the simulator.
//
// The pWCET and miss-rate experiments need *programs* whose instruction
// fetch and data traffic flow through the modeled hierarchy - timing
// analysis of a synthetic access trace would sidestep exactly the
// instruction-cache effects randomized placement is meant to tame.  TSISA is
// deliberately small (ARM920T-class workloads port in minutes) but complete:
// ALU ops, immediates, byte/word memory access, compares, branches, calls.
//
// Encoding (32-bit fixed width, little-endian in memory):
//   [31:26] opcode
//   R-type:  [25:22] rd   [21:18] rs1  [17:14] rs2
//   I-type:  [25:22] rd   [21:18] rs1  [15:0]  imm16 (sign-extended)
//   B-type:  [21:18] rs1  [17:14] rs2  [13:0]  imm14 word offset (signed)
//   J-type:  [25:22] rd   [21:0]  imm22 word offset (signed)
//
// Register r0 reads as zero; writes to it are discarded.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

namespace tsc::isa {

/// All TSISA opcodes.
enum class Op : std::uint8_t {
  // R-type ALU
  kAdd, kSub, kAnd, kOr, kXor, kSll, kSrl, kSra, kSlt, kSltu, kMul,
  // I-type ALU
  kAddi, kAndi, kOri, kXori, kSlli, kSrli, kSlti, kLui,
  // Memory (I-type: address = rs1 + imm)
  kLw, kLb, kLbu, kSw, kSb,
  // Control
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu, kJal, kJalr,
  kHalt, kNop,
  // Cache maintenance: flush the line containing the address in rs1 from
  // every cache level (R-type encoding, rd = rs2 = 0).  Appended after
  // kNop so every pre-existing encoding stays stable.
  kFlush,
};

/// Decoded instruction.
struct Instr {
  Op op = Op::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;

  friend bool operator==(const Instr&, const Instr&) = default;
};

/// Instruction classes (drive both encoding and the timing model).
enum class Format { kR, kI, kB, kJ, kNone };

/// Format of an opcode.
[[nodiscard]] Format format_of(Op op);

/// True for loads/stores.
[[nodiscard]] bool is_memory(Op op);
/// True for conditional branches.
[[nodiscard]] bool is_branch(Op op);

/// Does a conditional branch with source values `a` (rs1) and `b` (rs2)
/// take?  False for every other opcode.  The interpreter and the fetch
/// recorder both decide through this.
[[nodiscard]] inline bool branch_taken(Op op, std::uint32_t a,
                                       std::uint32_t b) {
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt:
      return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
    case Op::kBge:
      return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
    case Op::kBltu: return a < b;
    case Op::kBgeu: return a >= b;
    default: return false;
  }
}

/// Mnemonic of an opcode ("addi", "beq", ...).
[[nodiscard]] std::string mnemonic(Op op);
/// Opcode from mnemonic; nullopt if unknown.
[[nodiscard]] std::optional<Op> op_from_mnemonic(const std::string& name);

/// Encode to the 32-bit machine word.  Preconditions: register indices < 16
/// and the immediate fits its field (checked with assertions).
[[nodiscard]] std::uint32_t encode(const Instr& instr);

/// Decode a machine word.  Returns nullopt for invalid opcodes.
[[nodiscard]] std::optional<Instr> decode(std::uint32_t word);

/// Human-readable rendering ("addi r1, r0, 10").
[[nodiscard]] std::string to_string(const Instr& instr);

}  // namespace tsc::isa
