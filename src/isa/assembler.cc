#include "isa/assembler.h"

#include <cctype>
#include <charconv>
#include <optional>
#include <sstream>

namespace tsc::isa {
namespace {

struct Statement {
  int line = 0;
  std::string head;                   // mnemonic or directive
  std::vector<std::string> operands;  // raw operand tokens
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw AssemblyError("line " + std::to_string(line) + ": " + message);
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Split "lw r2, 8(r1)" into head "lw" and operands {"r2", "8(r1)"}.
Statement split_statement(int line, const std::string& text) {
  Statement st;
  st.line = line;
  const std::size_t space = text.find_first_of(" \t");
  st.head = lower(text.substr(0, space));
  if (space == std::string::npos) return st;
  std::string rest = text.substr(space + 1);
  std::string token;
  std::stringstream ss(rest);
  while (std::getline(ss, token, ',')) {
    token = trim(token);
    if (!token.empty()) st.operands.push_back(token);
  }
  return st;
}

std::optional<std::uint8_t> parse_register(const std::string& token) {
  const std::string t = lower(token);
  if (t.size() < 2 || t.size() > 3 || t[0] != 'r') return std::nullopt;
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(t.data() + 1, t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) return std::nullopt;
  if (value < 0 || value > 15) return std::nullopt;
  return static_cast<std::uint8_t>(value);
}

std::optional<std::int64_t> parse_number(const std::string& token) {
  if (token.empty()) return std::nullopt;
  std::size_t pos = 0;
  bool negative = false;
  if (token[0] == '-' || token[0] == '+') {
    negative = token[0] == '-';
    pos = 1;
  }
  int base = 10;
  if (token.size() >= pos + 2 && token[pos] == '0' &&
      (token[pos + 1] == 'x' || token[pos + 1] == 'X')) {
    base = 16;
    pos += 2;
  }
  if (pos >= token.size()) return std::nullopt;
  std::uint64_t magnitude = 0;
  const auto [ptr, ec] = std::from_chars(
      token.data() + pos, token.data() + token.size(), magnitude, base);
  if (ec != std::errc{} || ptr != token.data() + token.size()) {
    return std::nullopt;
  }
  const auto value = static_cast<std::int64_t>(magnitude);
  return negative ? -value : value;
}

/// Images must end within the 32-bit address space `la` can reach.
constexpr Addr kAddressSpaceEnd = Addr{1} << 32;

// First pass produces statements + symbol table; sizes are fixed per head.
std::size_t words_for(const Statement& st) {
  if (st.head == ".word") return 1;
  if (st.head == ".space") {
    const auto n = parse_number(st.operands.empty() ? "" : st.operands[0]);
    if (!n.has_value() || *n < 0) fail(st.line, ".space needs a byte count");
    if (static_cast<Addr>(*n) > kAddressSpaceEnd) {
      fail(st.line, ".space exceeds the 32-bit address space");
    }
    return static_cast<std::size_t>((*n + 3) / 4);
  }
  if (st.head == "la" || st.head == "li") return 2;  // lui + ori
  return 1;
}

class Encoder {
 public:
  Encoder(const std::unordered_map<std::string, Addr>& symbols, Addr base)
      : symbols_(symbols), base_(base) {}

  void encode_statement(const Statement& st, Addr pc,
                        std::vector<std::uint32_t>& out) const {
    if (st.head == ".word") {
      out.push_back(static_cast<std::uint32_t>(
          value_or_symbol(st, 0, /*pc_relative=*/false, pc)));
      return;
    }
    if (st.head == ".space") {
      out.insert(out.end(), words_for(st), 0u);
      return;
    }
    if (st.head == "la" || st.head == "li") {
      expand_la_li(st, out);
      return;
    }

    const auto op = op_from_mnemonic(st.head);
    if (!op.has_value()) fail(st.line, "unknown mnemonic '" + st.head + "'");
    Instr instr;
    instr.op = *op;
    switch (format_of(*op)) {
      case Format::kR:
        if (*op == Op::kFlush) {
          // `flush rs1`: one register, the address whose line to flush
          // (rd and rs2 stay zero in the encoding).
          need_operands(st, 1);
          instr.rs1 = reg(st, 0);
          break;
        }
        need_operands(st, 3);
        instr.rd = reg(st, 0);
        instr.rs1 = reg(st, 1);
        instr.rs2 = reg(st, 2);
        break;
      case Format::kI:
        if (is_memory(*op)) {
          need_operands(st, 2);
          instr.rd = reg(st, 0);
          const auto [offset, basereg] = mem_operand(st, 1);
          instr.imm = offset;
          instr.rs1 = basereg;
        } else if (*op == Op::kLui) {
          need_operands(st, 2);
          instr.rd = reg(st, 0);
          instr.imm = static_cast<std::int32_t>(
              value_or_symbol(st, 1, false, pc) & 0xFFFF);
        } else if (*op == Op::kJalr) {
          need_operands(st, 2);
          instr.rd = reg(st, 0);
          instr.rs1 = reg(st, 1);
        } else {
          need_operands(st, 3);
          instr.rd = reg(st, 0);
          instr.rs1 = reg(st, 1);
          instr.imm = checked_imm16(st, value_or_symbol(st, 2, false, pc));
        }
        break;
      case Format::kB: {
        need_operands(st, 3);
        instr.rs1 = reg(st, 0);
        instr.rs2 = reg(st, 1);
        instr.imm = branch_offset(st, 2, pc, 13);
        break;
      }
      case Format::kJ:
        need_operands(st, 2);
        instr.rd = reg(st, 0);
        instr.imm = branch_offset(st, 1, pc, 21);
        break;
      case Format::kNone:
        break;
    }
    out.push_back(encode(instr));
  }

 private:
  void need_operands(const Statement& st, std::size_t n) const {
    if (st.operands.size() != n) {
      fail(st.line, "'" + st.head + "' expects " + std::to_string(n) +
                        " operands, got " + std::to_string(st.operands.size()));
    }
  }

  std::uint8_t reg(const Statement& st, std::size_t index) const {
    const auto r = parse_register(st.operands[index]);
    if (!r.has_value()) {
      fail(st.line, "expected register, got '" + st.operands[index] + "'");
    }
    return *r;
  }

  std::int64_t value_or_symbol(const Statement& st, std::size_t index,
                               bool pc_relative, Addr pc) const {
    const std::string& token = st.operands[index];
    if (const auto n = parse_number(token); n.has_value()) return *n;
    const auto it = symbols_.find(token);
    if (it == symbols_.end()) fail(st.line, "unknown symbol '" + token + "'");
    if (pc_relative) {
      return (static_cast<std::int64_t>(it->second) -
              static_cast<std::int64_t>(pc) - 4) /
             4;
    }
    return static_cast<std::int64_t>(it->second);
  }

  std::int32_t checked_imm16(const Statement& st, std::int64_t v) const {
    if (v < -32768 || v > 65535) {
      fail(st.line, "immediate " + std::to_string(v) +
                        " does not fit 16 bits (use li)");
    }
    return static_cast<std::int32_t>(v);
  }

  std::int32_t branch_offset(const Statement& st, std::size_t index, Addr pc,
                             unsigned bits) const {
    const std::int64_t words = value_or_symbol(st, index, true, pc);
    const std::int64_t limit = std::int64_t{1} << bits;
    if (words < -limit || words >= limit) {
      fail(st.line, "branch target out of range");
    }
    return static_cast<std::int32_t>(words);
  }

  // offset(base) memory operand.
  std::pair<std::int32_t, std::uint8_t> mem_operand(const Statement& st,
                                                    std::size_t index) const {
    const std::string& token = st.operands[index];
    const std::size_t open = token.find('(');
    const std::size_t close = token.find(')');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
      fail(st.line, "expected offset(base), got '" + token + "'");
    }
    const std::string offset_str = trim(token.substr(0, open));
    const auto offset =
        offset_str.empty() ? std::int64_t{0} : parse_number(offset_str)
            .value_or(std::int64_t{1} << 40);
    if (offset == (std::int64_t{1} << 40)) {
      fail(st.line, "bad memory offset in '" + token + "'");
    }
    const auto base = parse_register(
        trim(token.substr(open + 1, close - open - 1)));
    if (!base.has_value()) fail(st.line, "bad base register in '" + token + "'");
    if (offset < -32768 || offset > 32767) {
      fail(st.line, "memory offset out of range");
    }
    return {static_cast<std::int32_t>(offset), *base};
  }

  void expand_la_li(const Statement& st, std::vector<std::uint32_t>& out) const {
    if (st.operands.size() != 2) fail(st.line, "'la/li' expects rd, value");
    const auto rd = reg(st, 0);
    std::int64_t value = 0;
    if (const auto n = parse_number(st.operands[1]); n.has_value()) {
      value = *n;
    } else {
      const auto it = symbols_.find(st.operands[1]);
      if (it == symbols_.end()) {
        fail(st.line, "unknown symbol '" + st.operands[1] + "'");
      }
      value = static_cast<std::int64_t>(it->second);
    }
    const auto uvalue = static_cast<std::uint32_t>(value);
    Instr lui{.op = Op::kLui, .rd = rd, .rs1 = 0, .rs2 = 0,
              .imm = static_cast<std::int32_t>(uvalue >> 16)};
    Instr ori{.op = Op::kOri, .rd = rd, .rs1 = rd, .rs2 = 0,
              .imm = static_cast<std::int32_t>(uvalue & 0xFFFFu)};
    out.push_back(encode(lui));
    out.push_back(encode(ori));
  }

  const std::unordered_map<std::string, Addr>& symbols_;
  [[maybe_unused]] Addr base_;
};

}  // namespace

Program assemble(const std::string& source, Addr base) {
  // Pass 0: strip comments, collect labels and statements.
  std::vector<Statement> statements;
  std::unordered_map<std::string, Addr> symbols;
  Addr pc = base;

  std::stringstream ss(source);
  std::string raw;
  int line_no = 0;
  while (std::getline(ss, raw)) {
    ++line_no;
    const std::size_t comment = raw.find_first_of(";#");
    std::string text = trim(comment == std::string::npos
                                ? raw
                                : raw.substr(0, comment));
    // Peel any leading labels.
    for (;;) {
      const std::size_t colon = text.find(':');
      if (colon == std::string::npos) break;
      const std::string label = trim(text.substr(0, colon));
      if (label.empty() ||
          label.find_first_of(" \t") != std::string::npos) {
        fail(line_no, "malformed label");
      }
      if (!symbols.emplace(label, pc).second) {
        fail(line_no, "duplicate label '" + label + "'");
      }
      text = trim(text.substr(colon + 1));
    }
    if (text.empty()) continue;
    Statement st = split_statement(line_no, text);
    const Addr bytes = 4 * words_for(st);
    if (pc > kAddressSpaceEnd || bytes > kAddressSpaceEnd - pc) {
      fail(line_no, "image would end past the 32-bit address space");
    }
    pc += bytes;
    statements.push_back(std::move(st));
  }

  // Pass 2: encode with all symbols known.
  Program program;
  program.base = base;
  program.symbols = symbols;
  const Encoder encoder(program.symbols, base);
  pc = base;
  for (const Statement& st : statements) {
    encoder.encode_statement(st, pc, program.words);
    pc = base + 4 * program.words.size();
  }
  return program;
}

}  // namespace tsc::isa
