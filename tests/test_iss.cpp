#include <gtest/gtest.h>

#include "isa/rv32_assembler.h"
#include "isa/rv32_isa.h"
#include "iss/rv32_iss.h"

namespace pdat::iss {
namespace {

std::uint32_t run_program(const std::string& asm_text, unsigned result_reg = 10,
                          Rv32Iss* out = nullptr) {
  const auto prog = isa::assemble_rv32(asm_text);
  Rv32Iss iss;
  iss.load_words(0, prog.words);
  iss.reset();
  iss.run(1000000);
  EXPECT_TRUE(iss.halted());
  EXPECT_FALSE(iss.illegal());
  const std::uint32_t v = iss.reg(result_reg);
  if (out != nullptr) *out = iss;
  return v;
}

TEST(Iss, SumLoop) {
  EXPECT_EQ(run_program(R"(
    li a0, 0
    li t0, 1
  loop:
    add a0, a0, t0
    addi t0, t0, 1
    li t1, 11
    blt t0, t1, loop
    ebreak
  )"), 55u);
}

TEST(Iss, X0IsHardZero) {
  EXPECT_EQ(run_program("li a0, 7\naddi x0, a0, 1\nmv a0, x0\nebreak\n"), 0u);
}

TEST(Iss, MemoryByteHalfWord) {
  EXPECT_EQ(run_program(R"(
    li t0, 0x100
    li t1, 0x12345678
    sw t1, 0(t0)
    lb a0, 1(t0)      # 0x56
    lbu a1, 3(t0)     # 0x12
    lhu a2, 2(t0)     # 0x1234
    add a0, a0, a1
    add a0, a0, a2    # 0x56 + 0x12 + 0x1234 = 0x129c
    ebreak
  )"), 0x129cu);
}

TEST(Iss, SignedLoadsSignExtend) {
  EXPECT_EQ(run_program(R"(
    li t0, 0x100
    li t1, -2
    sb t1, 0(t0)
    lb a0, 0(t0)
    ebreak
  )"), 0xfffffffeu);
}

TEST(Iss, BranchesTakenAndNot) {
  EXPECT_EQ(run_program(R"(
    li a0, 0
    li t0, -1
    li t1, 1
    blt t0, t1, l1
    addi a0, a0, 100
  l1:
    addi a0, a0, 1
    bltu t0, t1, l2   # unsigned: 0xffffffff < 1 is false
    addi a0, a0, 10
  l2:
    ebreak
  )"), 11u);
}

TEST(Iss, JalAndJalrLinkage) {
  EXPECT_EQ(run_program(R"(
    li a0, 0
    call fn
    addi a0, a0, 1
    ebreak
  fn:
    addi a0, a0, 10
    ret
  )"), 11u);
}

TEST(Iss, MultiplyDivide) {
  EXPECT_EQ(run_program("li a0, -7\nli a1, 3\nmul a0, a0, a1\nebreak\n"), 0xffffffebu);  // -21
  EXPECT_EQ(run_program("li a0, -7\nli a1, 3\ndiv a0, a0, a1\nebreak\n"), 0xfffffffeu);  // -2
  EXPECT_EQ(run_program("li a0, -7\nli a1, 3\nrem a0, a0, a1\nebreak\n"), 0xffffffffu);  // -1
  EXPECT_EQ(run_program("li a0, 7\nli a1, 0\ndivu a0, a0, a1\nebreak\n"), 0xffffffffu);
  EXPECT_EQ(run_program("li a0, 7\nli a1, 0\nrem a0, a0, a1\nebreak\n"), 7u);
}

TEST(Iss, MulhVariants) {
  EXPECT_EQ(run_program("li a0, -1\nli a1, -1\nmulh a0, a0, a1\nebreak\n"), 0u);
  EXPECT_EQ(run_program("li a0, -1\nli a1, -1\nmulhu a0, a0, a1\nebreak\n"), 0xfffffffeu);
  EXPECT_EQ(run_program("li a0, -1\nli a1, -1\nmulhsu a0, a0, a1\nebreak\n"), 0xffffffffu);
}

TEST(Iss, ShiftsMatchCpp) {
  EXPECT_EQ(run_program("li a0, 0x80000000\nsrai a0, a0, 4\nebreak\n"), 0xf8000000u);
  EXPECT_EQ(run_program("li a0, 0x80000000\nsrli a0, a0, 4\nebreak\n"), 0x08000000u);
  EXPECT_EQ(run_program("li a0, 3\nli a1, 33\nsll a0, a0, a1\nebreak\n"), 6u) << "shift mod 32";
}

TEST(Iss, CsrCycleCounter) {
  Rv32Iss iss;
  const auto prog = isa::assemble_rv32("nop\nnop\nnop\ncsrrs a0, 0xc02, x0\nebreak\n");
  iss.load_words(0, prog.words);
  iss.reset();
  iss.run(100);
  EXPECT_EQ(iss.reg(10), 3u) << "instret after three nops";
}

TEST(Iss, IllegalInstructionHalts) {
  Rv32Iss iss;
  iss.load_words(0, {0xffffffffu});
  iss.reset();
  iss.run(10);
  EXPECT_TRUE(iss.halted());
  EXPECT_TRUE(iss.illegal());
}

TEST(Iss, CompressedExecutionViaExpansion) {
  // Hand-place c.li a0, 9 ; c.addi a0, 1 ; ebreak (32-bit).
  isa::RvFields f;
  f.rd = 10;
  f.imm = 9;
  const auto cli = static_cast<std::uint16_t>(isa::rv32_encode(isa::rv32_instr("c.li"), f));
  f.imm = 1;
  const auto caddi = static_cast<std::uint16_t>(isa::rv32_encode(isa::rv32_instr("c.addi"), f));
  Rv32Iss iss;
  iss.load_words(0, {static_cast<std::uint32_t>(cli) | (static_cast<std::uint32_t>(caddi) << 16),
                     isa::rv32_instr("ebreak").match});
  iss.reset();
  iss.run(10);
  EXPECT_TRUE(iss.halted());
  EXPECT_FALSE(iss.illegal());
  EXPECT_EQ(iss.reg(10), 10u);
}

TEST(Iss, TraceRecordsWritebacks) {
  const auto prog = isa::assemble_rv32("li a0, 3\nli t0, 0x40\nsw a0, 0(t0)\nebreak\n");
  Rv32Iss iss;
  iss.load_words(0, prog.words);
  iss.reset();
  iss.set_tracing(true);
  iss.run(100);
  ASSERT_EQ(iss.trace().size(), 3u);
  EXPECT_EQ(iss.trace()[0].rd, 10u);
  EXPECT_EQ(iss.trace()[0].rd_value, 3u);
  EXPECT_TRUE(iss.trace()[2].mem_write);
  EXPECT_EQ(iss.trace()[2].mem_addr, 0x40u);
  EXPECT_EQ(iss.trace()[2].mem_value, 3u);
}

TEST(Iss, MemoryIsSparseWrapsAndIsPrivate) {
  Rv32Iss a, b;
  EXPECT_EQ(a.load_word(0x1234), 0u) << "an unwritten byte reads 0";
  EXPECT_EQ(a.load_byte(0xfffff), 0u);
  a.store_word(0x100, 0xdeadbeef);
  EXPECT_EQ(a.load_word(0x100 + (1u << 20)), 0xdeadbeefu) << "memory wraps at 1 MiB";
  EXPECT_EQ(a.load_word(0x100 + (1u << 19)), 0u) << "and not before";
  a.store_word(0xffffe, 0x11223344);  // bytes 0xffffe, 0xfffff, 0, 1
  EXPECT_EQ(a.load_byte(0), 0x22u);
  EXPECT_EQ(a.load_byte(1), 0x11u);
  EXPECT_EQ(b.load_word(0x100), 0u) << "two ISSs share no page";
  Rv32Iss copy = a;
  copy.store_word(0x100, 1);
  EXPECT_EQ(a.load_word(0x100), 0xdeadbeefu) << "a copy shares no page";
}

}  // namespace
}  // namespace pdat::iss
