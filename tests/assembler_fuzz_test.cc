// Seeded-mutation tests for the assembler, the parser of untrusted program
// text: byte flips, inserts and deletes over every canned kernel source
// (isa/kernels.h) and a directive-heavy source.  assemble() must either
// return a program or throw AssemblyError - never another exception, never
// crash or read out of bounds (the ASan/UBSan build runs this binary), and
// never allocate far beyond the honest images.  The mutations come from a
// fixed seed, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <exception>
#include <random>
#include <string>
#include <vector>

#include "fuzz_support.h"
#include "isa/assembler.h"
#include "isa/kernels.h"

namespace tsc::runner {
namespace {

constexpr Addr kBase = 0x1000;

/// Labels, `la` of a forward label, `.word` and `.space`: the paths the
/// canned kernels never take.
const char* const kDirectives =
    "start: la r1, table\n"
    "  li r2, 0x12345678\n"
    "  lw r3, 4(r1)\n"
    "  beq r3, r0, done\n"
    "  jal r15, start\n"
    "done: halt\n"
    "table: .word 42\n"
    "  .word -7\n"
    "buf: .space 64\n"
    "  .space 3\n";

std::vector<std::string> corpus() {
  return {isa::vector_sum_source(0x40000, 64),
          isa::memcpy_source(0x40000, 0x60000, 32),
          isa::bubble_sort_source(0x40000, 16),
          isa::matmul_source(0x40000, 0x50000, 0x60000, 4),
          isa::stride_walk_source(0x40000, 64, 64, 1024),
          isa::flush_reload_source(0x40000, 8, 32),
          isa::ttable_lookup_source(0x40000, 0x50000, 16),
          isa::secret_branch_source(0x40000, 16),
          isa::flush_storm_source(0x40000, 8, 32, 2),
          kDirectives};
}

/// "ok", "AssemblyError", or a description of anything else that escaped.
std::string outcome_of(const std::string& source) {
  try {
    (void)isa::assemble(source, kBase);
    return "ok";
  } catch (const isa::AssemblyError&) {
    return "AssemblyError";
  } catch (const std::exception& e) {
    return std::string("escaped: ") + e.what();
  } catch (...) {
    return "escaped: non-std exception";
  }
}

TEST(AssemblerFuzz, HonestCorpusAssembles) {
  for (const std::string& source : corpus()) {
    EXPECT_EQ(outcome_of(source), "ok") << source;
  }
}

TEST(AssemblerFuzz, MutantsAssembleOrThrowAssemblyError) {
  std::mt19937_64 rng(0xA55E'B1E5);
  std::size_t rejected = 0;
  std::size_t total = 0;
  for (const std::string& source : corpus()) {
    const Bytes honest(source.begin(), source.end());
    for (int i = 0; i < 1000; ++i) {
      const Bytes damaged = mutate(honest, rng);
      const std::string text(damaged.begin(), damaged.end());
      reset_largest_alloc();
      const std::string outcome = outcome_of(text);
      ++total;
      if (outcome == "AssemblyError") ++rejected;
      ASSERT_NE(outcome.rfind("escaped", 0), 0u)
          << outcome << "\n--- mutant ---\n" << text;
      ASSERT_LE(largest_alloc(), kAllocLimit) << text;
    }
  }
  // The mutator must actually reach the error paths.
  EXPECT_GT(rejected, total / 10);
}

TEST(AssemblerFuzz, OversizedSpaceIsAnAssemblyErrorNamingTheLine) {
  for (const char* source : {
           // Overflowed the signed word count; escaped as std::length_error.
           "halt\n.space 0x7fffffffffffffff\n",
           // Assembled an image ending at 0x1'0000'000c, past what `la` (a
           // 32-bit address) can reach.
           "la r1, x\nhalt\nx:\n.space 0xfffff000\n"}) {
    reset_largest_alloc();
    try {
      (void)isa::assemble(source, kBase);
      ADD_FAILURE() << "assembled: " << source;
    } catch (const isa::AssemblyError& e) {
      EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped " << e.what() << " for: " << source;
    }
    EXPECT_LE(largest_alloc(), kAllocLimit) << source;
  }
}

TEST(AssemblerFuzz, ImageMayFillTheAddressSpaceExactly) {
  // The last byte at 0xffff'ffff is still addressable.
  const isa::Program program =
      isa::assemble("halt\n.space 4\n", 0xFFFF'FFF8);
  EXPECT_EQ(program.end(), Addr{1} << 32);
  EXPECT_THROW((void)isa::assemble("halt\n.space 5\n", 0xFFFF'FFF8),
               isa::AssemblyError);
}

}  // namespace
}  // namespace tsc::runner
