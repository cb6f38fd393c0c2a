#include <gtest/gtest.h>

#include "base/types.h"
#include "isa/thumb_assembler.h"
#include "isa/thumb_encoding.h"
#include "isa/thumb_subsets.h"

namespace pdat::isa {
namespace {

std::uint16_t one(const std::string& text) {
  const auto prog = assemble_thumb(text);
  EXPECT_EQ(prog.halves.size(), 1u) << text;
  return prog.halves.at(0);
}

TEST(ThumbAsm, CanonicalEncodings) {
  EXPECT_EQ(one("movs r3, #7"), 0x2307);
  EXPECT_EQ(one("adds r1, r2, r3"), 0x18d1);
  EXPECT_EQ(one("adds r1, r2, #3"), 0x1cd1);
  EXPECT_EQ(one("adds r1, #200"), 0x31c8);
  EXPECT_EQ(one("lsls r0, r1, #4"), 0x0108);
  EXPECT_EQ(one("cmp r0, r1"), 0x4288);
  EXPECT_EQ(one("muls r2, r3"), 0x435a);
  EXPECT_EQ(one("bx lr"), 0x4770);
  EXPECT_EQ(one("nop"), 0xbf00);
  // Blanks left before a stripped comment are no operand.
  EXPECT_EQ(one("nop   ; comment"), 0xbf00);
  EXPECT_EQ(one("nop \t@ comment"), 0xbf00);
  EXPECT_EQ(one("bkpt #1"), 0xbe01);
  EXPECT_EQ(one("str r1, [r2, #4]"), 0x6051);
  EXPECT_EQ(one("ldrb r1, [r2, #3]"), 0x78d1);
  EXPECT_EQ(one("ldr r1, [sp, #8]"), 0x9902);
  EXPECT_EQ(one("push {r0, r1, lr}"), 0xb503);
  EXPECT_EQ(one("pop {r4, pc}"), 0xbd10);
  EXPECT_EQ(one("add sp, #16"), 0xb004);
  EXPECT_EQ(one("sub sp, #16"), 0xb084);
  EXPECT_EQ(one("mov r9, r0"), 0x4681);
}

TEST(ThumbAsm, EveryEmittedHalfwordDecodes) {
  const auto prog = assemble_thumb(R"(
    start:
      movs r0, #1
      lsls r1, r0, #5
      adds r2, r0, r1
      bl fn
      b start
    fn:
      sxtb r3, r2
      rev r4, r2
      bx lr
  )");
  for (std::size_t i = 0; i < prog.halves.size(); ++i) {
    const std::uint16_t h = prog.halves[i];
    if (thumb_is_wide_prefix(h)) {
      ASSERT_LT(i + 1, prog.halves.size());
      EXPECT_NE(thumb_decode(h, prog.halves[i + 1]), nullptr);
      ++i;
    } else {
      EXPECT_NE(thumb_decode(h), nullptr) << std::hex << h;
    }
  }
}

TEST(ThumbAsm, BranchOffsetsResolveBothDirections) {
  const auto prog = assemble_thumb(R"(
    top:
      nop
      beq top
      bne down
      nop
    down:
      nop
  )");
  // beq at address 2: offset = 0 - (2+4) = -6.
  const ThumbFields f = thumb_extract(thumb_instr("b.cond"), prog.halves[1]);
  EXPECT_EQ(f.imm, -6);
  const ThumbFields g = thumb_extract(thumb_instr("b.cond"), prog.halves[2]);
  EXPECT_EQ(g.imm, 0);  // down is at 8; 8 - (4+4)
}

TEST(ThumbAsm, LiBuildsExactConstants) {
  for (std::uint32_t v : {0u, 1u, 255u, 256u, 0x1234u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    const auto prog = assemble_thumb("li r5, " + std::to_string(v) + "\nbkpt #0\n");
    // Decode-execute by hand: movs/lsls/adds only touch r5.
    std::uint32_t r5 = 0;
    for (std::uint16_t h : prog.halves) {
      const ThumbInstrSpec* spec = thumb_decode(h);
      ASSERT_NE(spec, nullptr);
      const ThumbFields f = thumb_extract(*spec, h);
      if (spec->name == "movs.i8") r5 = static_cast<std::uint32_t>(f.imm);
      else if (spec->name == "lsls") r5 <<= f.imm;
      else if (spec->name == "adds.i8") r5 += static_cast<std::uint32_t>(f.imm);
    }
    EXPECT_EQ(r5, v);
  }
}

TEST(ThumbAsm, Errors) {
  EXPECT_THROW(assemble_thumb("frob r0, r1\n"), PdatError);
  EXPECT_THROW(assemble_thumb("b nowhere\n"), PdatError);
  EXPECT_THROW(assemble_thumb("push {r9}\n"), PdatError);
  EXPECT_THROW(assemble_thumb("ldr r0, [r16, #0]\n"), PdatError);
}

TEST(ThumbAsm, RegListEncoding) {
  const auto prog = assemble_thumb("stm r0, {r1, r3, r5}\nldm r2, {r0}\n");
  const ThumbFields f = thumb_extract(thumb_instr("stm"), prog.halves[0]);
  EXPECT_EQ(f.rn, 0u);
  EXPECT_EQ(f.reglist, 0b101010u);
  const ThumbFields g = thumb_extract(thumb_instr("ldm"), prog.halves[1]);
  EXPECT_EQ(g.rn, 2u);
  EXPECT_EQ(g.reglist, 1u);
}

// --- subset edge cases (the fuzzer's generator contract, src/fuzz/) ---------

TEST(ThumbSubsetEdge, EmptySubsetContainsNothing) {
  const ThumbSubset empty = thumb_subset_from_names("empty", {});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_FALSE(empty.contains("movs.i8"));
  EXPECT_FALSE(empty.has_wide());
}

TEST(ThumbSubsetEdge, FullSubsetContainsEveryTableEntry) {
  const ThumbSubset all = thumb_subset_all();
  const auto& table = thumb_instructions();
  EXPECT_EQ(all.size(), table.size());
  for (const auto& spec : table) {
    EXPECT_TRUE(all.contains(spec.name)) << spec.name;
  }
  EXPECT_TRUE(all.has_wide());
}

TEST(ThumbSubsetEdge, InterestingSubsetIsNarrowOnly) {
  // The paper's §VII-B subset drops every 32-bit encoding; the Thumb fuzz
  // generator relies on this to emit a pure halfword stream.
  const ThumbSubset sub = thumb_subset_interesting();
  EXPECT_FALSE(sub.has_wide());
  EXPECT_FALSE(sub.contains("bl"));
  EXPECT_FALSE(sub.contains("muls"));
  EXPECT_TRUE(sub.contains("movs.i8"));
  const auto& table = thumb_instructions();
  for (int idx : sub.instrs) {
    const auto& spec = table[static_cast<std::size_t>(idx)];
    EXPECT_FALSE(spec.wide) << spec.name;
  }
}

TEST(ThumbSubsetEdge, AssembledProgramRoundTripsThroughMembership) {
  // Every halfword the assembler emits for in-subset mnemonics must decode
  // back to a spec the subset contains — the closure the fuzz generator
  // promises for its concrete encodings.
  const ThumbSubset sub = thumb_subset_interesting();
  const auto prog = assemble_thumb(R"(
    top:
      movs r0, #5
      lsls r1, r0, #2
      adds r2, r0, r1
      cmp r2, r0
      bne top
      str r2, [r1, #4]
      bkpt #0
  )");
  ASSERT_FALSE(prog.halves.empty());
  for (const std::uint16_t hw : prog.halves) {
    ASSERT_FALSE(thumb_is_wide_prefix(hw)) << std::hex << hw;
    const ThumbInstrSpec* spec = thumb_decode(hw);
    ASSERT_NE(spec, nullptr) << std::hex << hw;
    EXPECT_TRUE(sub.contains(spec->name)) << spec->name;
  }
}

}  // namespace
}  // namespace pdat::isa
