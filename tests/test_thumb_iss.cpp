// Direct ARMv6-M semantics checks of the Thumb ISS against hand-computed
// architectural values (the core is separately lockstep-checked against the
// ISS; this file anchors the ISS itself to the manual).
#include <gtest/gtest.h>

#include "isa/thumb_assembler.h"
#include "iss/thumb_iss.h"

namespace pdat::iss {
namespace {

ThumbIss run(const std::string& text) {
  const auto prog = isa::assemble_thumb(text);
  ThumbIss iss;
  iss.load_halfwords(0, prog.halves);
  iss.reset();
  iss.run(10000);
  EXPECT_TRUE(iss.halted());
  EXPECT_FALSE(iss.undefined());
  return iss;
}

TEST(ThumbFlags, AddsSetsCarryAndOverflow) {
  // 0x7fffffff + 1: N=1 Z=0 C=0 V=1.
  const auto s = run(R"(
      movs r0, #1
      mvns r0, r0          @ 0xFFFFFFFE
      lsrs r0, r0, #1      @ 0x7FFFFFFF
      movs r1, #1
      adds r2, r0, r1
      bkpt #0
  )");
  EXPECT_EQ(s.reg(2), 0x80000000u);
  EXPECT_TRUE(s.flag_n());
  EXPECT_FALSE(s.flag_z());
  EXPECT_FALSE(s.flag_c());
  EXPECT_TRUE(s.flag_v());
}

TEST(ThumbFlags, SubsBorrowConvention) {
  // ARM: C = NOT borrow. 5 - 7 -> C=0; 7 - 5 -> C=1.
  auto s = run("movs r0, #5\nmovs r1, #7\nsubs r2, r0, r1\nbkpt #0\n");
  EXPECT_FALSE(s.flag_c());
  EXPECT_TRUE(s.flag_n());
  s = run("movs r0, #7\nmovs r1, #5\nsubs r2, r0, r1\nbkpt #0\n");
  EXPECT_TRUE(s.flag_c());
  EXPECT_FALSE(s.flag_n());
  s = run("movs r0, #5\nsubs r0, #5\nbkpt #0\n");
  EXPECT_TRUE(s.flag_z());
  EXPECT_TRUE(s.flag_c());
}

TEST(ThumbFlags, AdcsUsesIncomingCarry) {
  // Set C via a subtraction that does not borrow, then adc.
  const auto s = run(R"(
      movs r0, #9
      subs r0, #4          @ C=1
      movs r1, #10
      movs r2, #20
      adcs r1, r2          @ 10+20+1
      bkpt #0
  )");
  EXPECT_EQ(s.reg(1), 31u);
}

TEST(ThumbFlags, SbcsWithBorrow) {
  const auto s = run(R"(
      movs r0, #4
      subs r0, #9          @ borrow -> C=0
      movs r1, #10
      movs r2, #3
      sbcs r1, r2          @ 10 - 3 - 1 = 6
      bkpt #0
  )");
  EXPECT_EQ(s.reg(1), 6u);
}

TEST(ThumbFlags, LslsCarryIsLastBitOut) {
  auto s = run("movs r0, #3\nlsls r0, r0, #31\nbkpt #0\n");
  EXPECT_EQ(s.reg(0), 0x80000000u);
  EXPECT_TRUE(s.flag_c());  // bit 1 of 3 shifted out last
  s = run("movs r0, #1\nlsls r0, r0, #31\nbkpt #0\n");
  EXPECT_FALSE(s.flag_c());
}

TEST(ThumbFlags, RegisterShiftsBeyond32) {
  // lsl by 32 -> result 0, C = old bit 0; by 33 -> result 0, C = 0.
  auto s = run(R"(
      movs r0, #1
      movs r1, #32
      lsls r0, r1
      bkpt #0
  )");
  EXPECT_EQ(s.reg(0), 0u);
  EXPECT_TRUE(s.flag_c());
  EXPECT_TRUE(s.flag_z());
  s = run(R"(
      movs r0, #1
      movs r1, #33
      lsls r0, r1
      bkpt #0
  )");
  EXPECT_EQ(s.reg(0), 0u);
  EXPECT_FALSE(s.flag_c());
}

TEST(ThumbFlags, AsrsSaturatesAtSign) {
  const auto s = run(R"(
      movs r0, #1
      lsls r0, r0, #31     @ 0x80000000
      movs r1, #40
      asrs r0, r1
      bkpt #0
  )");
  EXPECT_EQ(s.reg(0), 0xffffffffu);
  EXPECT_TRUE(s.flag_c());
}

TEST(ThumbFlags, RorsRotates) {
  const auto s = run(R"(
      movs r0, #0x81
      movs r1, #4
      rors r0, r1
      bkpt #0
  )");
  EXPECT_EQ(s.reg(0), 0x10000008u);
  EXPECT_FALSE(s.flag_n());
}

TEST(ThumbFlags, RsbsIsNegate) {
  const auto s = run("movs r0, #7\nrsbs r1, r0\nbkpt #0\n");
  EXPECT_EQ(s.reg(1), 0xfffffff9u);
  EXPECT_TRUE(s.flag_n());
  EXPECT_FALSE(s.flag_c());  // 0 - 7 borrows
}

TEST(ThumbFlags, MovsAndLogicLeaveCarryAlone) {
  const auto s = run(R"(
      movs r0, #9
      subs r0, #4          @ C=1
      movs r1, #0          @ sets Z, must keep C
      bkpt #0
  )");
  EXPECT_TRUE(s.flag_c());
  EXPECT_TRUE(s.flag_z());
}

TEST(ThumbIssAbi, PcReadsAreInstructionPlus4) {
  const auto s = run(R"(
      mov r0, pc           @ reads 0 + 4
      nop
      bkpt #0
  )");
  EXPECT_EQ(s.reg(0), 4u);
}

TEST(ThumbIssAbi, BlSetsThumbBitInLr) {
  const auto s = run(R"(
      bl fn
      bkpt #0
    fn:
      mov r4, lr
      bx lr
  )");
  EXPECT_EQ(s.reg(4), 5u);  // return address 4 | thumb bit
}

TEST(ThumbIssMem, StmLdmWriteback) {
  const auto s = run(R"(
      movs r0, #64
      movs r1, #11
      movs r2, #22
      stm r0, {r1, r2}
      bkpt #0
  )");
  EXPECT_EQ(s.reg(0), 72u) << "rn writeback";
  EXPECT_EQ(s.load_word(64), 11u);
  EXPECT_EQ(s.load_word(68), 22u);
}

TEST(ThumbIssMem, PushPopRoundTripSp) {
  const auto s = run(R"(
      movs r4, #44
      movs r5, #55
      push {r4, r5}
      movs r4, #0
      movs r5, #0
      pop {r4, r5}
      bkpt #0
  )");
  EXPECT_EQ(s.reg(4), 44u);
  EXPECT_EQ(s.reg(5), 55u);
  EXPECT_EQ(s.reg(13), 0x10000u);
}

TEST(ThumbIssMem, MemoryIsSparseWrapsAndIsPrivate) {
  ThumbIss a, b;
  EXPECT_EQ(a.load_word(0x1234), 0u) << "an unwritten byte reads 0";
  a.store_word(0x100, 0xdeadbeef);
  EXPECT_EQ(a.load_word(0x100 + (1u << 20)), 0xdeadbeefu) << "memory wraps at 1 MiB";
  EXPECT_EQ(a.load_word(0x100 + (1u << 19)), 0u) << "and not before";
  a.store_word(0xffffe, 0x11223344);  // bytes 0xffffe, 0xfffff, 0, 1
  EXPECT_EQ(a.load_byte(0), 0x22u);
  EXPECT_EQ(b.load_word(0x100), 0u) << "two ISSs share no page";
  ThumbIss copy = a;
  copy.store_word(0x100, 1);
  EXPECT_EQ(a.load_word(0x100), 0xdeadbeefu) << "a copy shares no page";
}

}  // namespace
}  // namespace pdat::iss
