#include "isa/isa.h"

#include <cassert>
#include <cstdio>
#include <unordered_map>

#include "common/bitops.h"

namespace tsc::isa {
namespace {

constexpr int kOpcodeCount = static_cast<int>(Op::kFlush) + 1;

struct OpInfo {
  const char* name;
  Format format;
};

constexpr std::array<OpInfo, kOpcodeCount> kOpTable{{
    {"add", Format::kR},   {"sub", Format::kR},   {"and", Format::kR},
    {"or", Format::kR},    {"xor", Format::kR},   {"sll", Format::kR},
    {"srl", Format::kR},   {"sra", Format::kR},   {"slt", Format::kR},
    {"sltu", Format::kR},  {"mul", Format::kR},   {"addi", Format::kI},
    {"andi", Format::kI},  {"ori", Format::kI},   {"xori", Format::kI},
    {"slli", Format::kI},  {"srli", Format::kI},  {"slti", Format::kI},
    {"lui", Format::kI},   {"lw", Format::kI},    {"lb", Format::kI},
    {"lbu", Format::kI},   {"sw", Format::kI},    {"sb", Format::kI},
    {"beq", Format::kB},   {"bne", Format::kB},   {"blt", Format::kB},
    {"bge", Format::kB},   {"bltu", Format::kB},  {"bgeu", Format::kB},
    {"jal", Format::kJ},   {"jalr", Format::kI},  {"halt", Format::kNone},
    {"nop", Format::kNone}, {"flush", Format::kR},
}};

const OpInfo& info(Op op) { return kOpTable[static_cast<std::size_t>(op)]; }

constexpr std::int32_t sign_extend(std::uint32_t v, unsigned width) {
  const std::uint32_t mask = static_cast<std::uint32_t>(low_mask(width));
  v &= mask;
  const std::uint32_t sign = 1u << (width - 1);
  return static_cast<std::int32_t>((v ^ sign) - sign);
}

}  // namespace

Format format_of(Op op) { return info(op).format; }

bool is_memory(Op op) {
  return op == Op::kLw || op == Op::kLb || op == Op::kLbu || op == Op::kSw ||
         op == Op::kSb;
}

bool is_branch(Op op) {
  return op == Op::kBeq || op == Op::kBne || op == Op::kBlt ||
         op == Op::kBge || op == Op::kBltu || op == Op::kBgeu;
}

std::string mnemonic(Op op) { return info(op).name; }

std::optional<Op> op_from_mnemonic(const std::string& name) {
  static const std::unordered_map<std::string, Op> map = [] {
    std::unordered_map<std::string, Op> m;
    for (int i = 0; i < kOpcodeCount; ++i) {
      m.emplace(kOpTable[static_cast<std::size_t>(i)].name,
                static_cast<Op>(i));
    }
    return m;
  }();
  const auto it = map.find(name);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

std::uint32_t encode(const Instr& instr) {
  assert(instr.rd < 16 && instr.rs1 < 16 && instr.rs2 < 16);
  const auto opbits = static_cast<std::uint32_t>(instr.op) << 26;
  switch (format_of(instr.op)) {
    case Format::kR:
      return opbits | (static_cast<std::uint32_t>(instr.rd) << 22) |
             (static_cast<std::uint32_t>(instr.rs1) << 18) |
             (static_cast<std::uint32_t>(instr.rs2) << 14);
    case Format::kI: {
      assert(instr.imm >= -32768 && instr.imm <= 65535);
      return opbits | (static_cast<std::uint32_t>(instr.rd) << 22) |
             (static_cast<std::uint32_t>(instr.rs1) << 18) |
             (static_cast<std::uint32_t>(instr.imm) & 0xFFFFu);
    }
    case Format::kB: {
      assert(instr.imm >= -(1 << 13) && instr.imm < (1 << 13));
      return opbits | (static_cast<std::uint32_t>(instr.rs1) << 18) |
             (static_cast<std::uint32_t>(instr.rs2) << 14) |
             (static_cast<std::uint32_t>(instr.imm) & 0x3FFFu);
    }
    case Format::kJ: {
      assert(instr.imm >= -(1 << 21) && instr.imm < (1 << 21));
      return opbits | (static_cast<std::uint32_t>(instr.rd) << 22) |
             (static_cast<std::uint32_t>(instr.imm) & 0x3FFFFFu);
    }
    case Format::kNone:
      return opbits;
  }
  return opbits;
}

std::optional<Instr> decode(std::uint32_t word) {
  const auto opnum = word >> 26;
  if (opnum >= kOpcodeCount) return std::nullopt;
  Instr instr;
  instr.op = static_cast<Op>(opnum);
  switch (format_of(instr.op)) {
    case Format::kR:
      instr.rd = static_cast<std::uint8_t>((word >> 22) & 0xF);
      instr.rs1 = static_cast<std::uint8_t>((word >> 18) & 0xF);
      instr.rs2 = static_cast<std::uint8_t>((word >> 14) & 0xF);
      break;
    case Format::kI:
      instr.rd = static_cast<std::uint8_t>((word >> 22) & 0xF);
      instr.rs1 = static_cast<std::uint8_t>((word >> 18) & 0xF);
      // LUI and logical immediates use the raw 16-bit field; arithmetic and
      // memory offsets are signed.
      if (instr.op == Op::kLui || instr.op == Op::kAndi ||
          instr.op == Op::kOri || instr.op == Op::kXori) {
        instr.imm = static_cast<std::int32_t>(word & 0xFFFFu);
      } else {
        instr.imm = sign_extend(word, 16);
      }
      break;
    case Format::kB:
      instr.rs1 = static_cast<std::uint8_t>((word >> 18) & 0xF);
      instr.rs2 = static_cast<std::uint8_t>((word >> 14) & 0xF);
      instr.imm = sign_extend(word, 14);
      break;
    case Format::kJ:
      instr.rd = static_cast<std::uint8_t>((word >> 22) & 0xF);
      instr.imm = sign_extend(word, 22);
      break;
    case Format::kNone:
      break;
  }
  return instr;
}

std::string to_string(const Instr& instr) {
  char buf[64];
  const std::string name = mnemonic(instr.op);
  switch (format_of(instr.op)) {
    case Format::kR:
      if (instr.op == Op::kFlush) {
        std::snprintf(buf, sizeof buf, "%s r%d", name.c_str(), instr.rs1);
      } else {
        std::snprintf(buf, sizeof buf, "%s r%d, r%d, r%d", name.c_str(),
                      instr.rd, instr.rs1, instr.rs2);
      }
      break;
    case Format::kI:
      if (is_memory(instr.op)) {
        std::snprintf(buf, sizeof buf, "%s r%d, %d(r%d)", name.c_str(),
                      instr.rd, instr.imm, instr.rs1);
      } else {
        std::snprintf(buf, sizeof buf, "%s r%d, r%d, %d", name.c_str(),
                      instr.rd, instr.rs1, instr.imm);
      }
      break;
    case Format::kB:
      std::snprintf(buf, sizeof buf, "%s r%d, r%d, %d", name.c_str(),
                    instr.rs1, instr.rs2, instr.imm);
      break;
    case Format::kJ:
      std::snprintf(buf, sizeof buf, "%s r%d, %d", name.c_str(), instr.rd,
                    instr.imm);
      break;
    case Format::kNone:
      std::snprintf(buf, sizeof buf, "%s", name.c_str());
      break;
  }
  return buf;
}

}  // namespace tsc::isa
