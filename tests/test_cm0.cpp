#include <gtest/gtest.h>

#include "cores/cm0/cm0_core.h"
#include "cores/cm0/cm0_tb.h"
#include "isa/thumb_assembler.h"
#include "isa/thumb_subsets.h"
#include "iss/thumb_iss.h"
#include "netlist/check.h"

namespace pdat::cores {
namespace {

const Netlist& cm0() {
  static const Cm0Core core = build_cm0();
  return core.netlist;
}

std::string cosim(const std::string& asm_text) {
  return cm0_cosim_against_iss(cm0(), isa::assemble_thumb(asm_text).halves);
}

TEST(Cm0Core, BuildsWellFormedAtEmbeddedScale) {
  EXPECT_TRUE(check_netlist(cm0()).empty());
  EXPECT_GT(cm0().gate_count(), 4000u);
  EXPECT_LT(cm0().gate_count(), 60000u);
}

TEST(Cm0Iss, BasicArithmetic) {
  iss::ThumbIss iss;
  const auto prog = isa::assemble_thumb(R"(
      movs r0, #10
      movs r1, #3
      adds r2, r0, r1
      subs r3, r0, r1
      muls r3, r0
      bkpt #0
  )");
  iss.load_halfwords(0, prog.halves);
  iss.reset();
  iss.run(100);
  EXPECT_TRUE(iss.halted());
  EXPECT_EQ(iss.reg(2), 13u);
  EXPECT_EQ(iss.reg(3), 70u);
}

TEST(Cm0Cosim, AluAndFlags) {
  EXPECT_EQ(cosim(R"(
      movs r0, #200
      lsls r0, r0, #8
      adds r0, #255
      movs r1, #77
      ands r2, r1
      mov r2, r0
      eors r2, r1
      orrs r2, r1
      bics r2, r1
      mvns r3, r2
      rsbs r4, r3
      cmp r4, r3
      cmn r4, r3
      tst r0, r1
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, AddSubCarryChains) {
  EXPECT_EQ(cosim(R"(
      movs r0, #255
      lsls r0, r0, #24     ; big value
      movs r1, #1
      lsls r1, r1, #28
      adds r2, r0, r1      ; sets C/V
      adcs r2, r1
      subs r3, r0, r1
      sbcs r3, r1
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, ShiftVariants) {
  EXPECT_EQ(cosim(R"(
      li r0, 0x80000001
      lsrs r1, r0, #1
      asrs r2, r0, #1
      lsls r3, r0, #4
      lsrs r4, r0, #32     ; imm5 == 0 means 32
      movs r5, #33
      mov r6, r0
      lsls r6, r5          ; >= 32 register shift
      mov r7, r0
      rors r7, r5
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, MemoryWidths) {
  EXPECT_EQ(cosim(R"(
      li r0, 0x1000
      li r1, 0x87654321
      str r1, [r0, #0]
      ldrb r2, [r0, #1]
      ldrh r3, [r0, #2]
      strb r2, [r0, #5]
      strh r3, [r0, #6]
      ldr r4, [r0, #4]
      movs r5, #3
      ldrsb r6, [r0, r5]
      movs r5, #2
      ldrsh r7, [r0, r5]
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, SpRelativeAndAdr) {
  EXPECT_EQ(cosim(R"(
      sub sp, #16
      movs r0, #42
      str r0, [sp, #4]
      ldr r1, [sp, #4]
      add r2, sp, #8
      adr r3, data
      add sp, #16
      bkpt #0
    data:
      nop
  )"), "");
}

TEST(Cm0Cosim, BranchesAndConditions) {
  EXPECT_EQ(cosim(R"(
      movs r0, #0
      movs r1, #5
    loop:
      adds r0, #1
      cmp r0, r1
      blt loop
      beq done
      movs r7, #9
    done:
      movs r2, #1
      cmp r2, #2
      bhi bad
      bls good
    bad:
      movs r6, #99
    good:
      b fin
      movs r5, #88
    fin:
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, HiRegistersAndBx) {
  EXPECT_EQ(cosim(R"(
      movs r0, #100
      mov r9, r0
      add r9, r0
      mov r1, r9
      adr r2, target
      adds r2, #1          ; thumb bit
      bx r2
      movs r7, #77         ; skipped
    target:
      movs r3, #3
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, BlAndBlxLinkage) {
  EXPECT_EQ(cosim(R"(
      movs r0, #0
      bl fn
      adds r0, #1
      adr r4, fn
      adds r4, #1
      blx r4
      adds r0, #2
      bkpt #0
      nop                  ; align fn to a 4-byte boundary for adr
    fn:
      adds r0, #16
      bx lr
  )"), "");
}

TEST(Cm0Cosim, PushPopNesting) {
  EXPECT_EQ(cosim(R"(
      movs r0, #1
      movs r1, #2
      movs r2, #3
      push {r0, r1, r2}
      movs r0, #0
      movs r1, #0
      pop {r0, r1}
      push {r2, lr}
      pop {r0}
      pop {r3}
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, PopToPcReturns) {
  EXPECT_EQ(cosim(R"(
      movs r0, #0
      bl fn
      adds r0, #1
      bkpt #0
    fn:
      push {r1, lr}
      adds r0, #4
      pop {r1, pc}
  )"), "");
}

TEST(Cm0Cosim, StmLdmWalk) {
  EXPECT_EQ(cosim(R"(
      li r0, 0x2000
      movs r1, #17
      movs r2, #34
      movs r3, #51
      stm r0, {r1, r2, r3}
      li r4, 0x2000
      ldm r4, {r5, r6, r7}
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, FullListPushPopAndSingleRegisterStmLdm) {
  // Directed lockstep anchor for the fuzzer's multi-transfer coverage
  // (src/fuzz/): the densest reglist the generator can emit plus the
  // degenerate single-register stm/ldm forms.
  EXPECT_EQ(cosim(R"(
      movs r0, #1
      movs r1, #2
      movs r2, #3
      movs r3, #4
      movs r4, #5
      movs r5, #6
      movs r6, #7
      movs r7, #8
      push {r0, r1, r2, r3, r4, r5, r6, r7, lr}
      movs r0, #0
      movs r3, #0
      movs r7, #0
      pop {r0, r1, r2, r3, r4, r5, r6, r7}
      li r6, 0x2100
      stm r6, {r7}
      li r5, 0x2100
      ldm r5, {r0}
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, LdmStmWritebackFeedsNextInstruction) {
  // The base-register writeback of ldm/stm is itself a RAW hazard source:
  // use the written-back base as data and as an address immediately after.
  EXPECT_EQ(cosim(R"(
      li r4, 0x2200
      movs r0, #9
      stm r4, {r0}        @ writeback: r4 -> 0x2204
      subs r4, #4
      ldm r4, {r1, r2}    @ writeback: r4 -> 0x2208
      str r4, [r4, #0]    @ store the writeback value at itself
      ldr r3, [r4, #0]
      adds r3, r3, r1     # and fold in the ldm-loaded data
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, ExtendAndReverse) {
  EXPECT_EQ(cosim(R"(
      li r0, 0x8199aabb
      sxtb r1, r0
      sxth r2, r0
      uxtb r3, r0
      uxth r4, r0
      rev r5, r0
      rev16 r6, r0
      revsh r7, r0
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, MulsSerialUnit) {
  EXPECT_EQ(cosim(R"(
      li r0, 123456
      movs r1, #201
      muls r0, r1
      li r2, 0xffffffff
      li r3, 0xffffffff
      muls r2, r3
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, HintsAndBarriersAreNops) {
  EXPECT_EQ(cosim(R"(
      movs r0, #1
      nop
      sev
      wfe
      yield
      dmb
      dsb
      isb
      adds r0, #1
      bkpt #0
  )"), "");
}

TEST(Cm0Cosim, UndefinedHalts) {
  Cm0Testbench tb(cm0());
  tb.load_halfwords(0, {0xdeff});  // udf #0xff
  EXPECT_LT(tb.run(50), 50u);
}

TEST(Cm0Testbench, PackedLanesMatchSingleRuns) {
  // Lanes of one pack run different programs, including returns through
  // pop {pc} at different cycles: the only case in which the testbench
  // re-serves a lane's fetch within a cycle. Every lane must report exactly
  // what a run of its program alone reports.
  auto call_after = [](int delay) {
    std::string text = "movs r0, #0\n";
    for (int i = 0; i < delay; ++i) text += "adds r0, #1\n";
    return isa::assemble_thumb(text + R"(
        bl fn
        adds r0, #1
        bkpt #0
      fn:
        push {r1, lr}
        adds r0, #4
        pop {r1, pc}
    )").halves;
  };
  const std::vector<std::vector<std::uint16_t>> programs = {
      call_after(0), call_after(3), call_after(7),
      isa::assemble_thumb(R"(
        li r0, 0x2000
        movs r1, #17
        movs r2, #34
        stm r0, {r1, r2}
        li r4, 0x2000
        ldm r4, {r5, r6}
        cmp r5, r6
        bkpt #0
      )").halves,
      {0xdeff},  // udf: halts at once
  };
  constexpr unsigned kLanes = 13;
  Cm0Testbench pack(cm0());
  pack.reset(kLanes);
  for (unsigned lane = 0; lane < kLanes; ++lane)
    pack.load_halfwords(0, programs[lane % programs.size()], lane);
  pack.run(1000);
  Cm0Testbench single(cm0());
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    single.reset();
    single.load_halfwords(0, programs[lane % programs.size()]);
    single.run(1000);
    ASSERT_TRUE(pack.halted(lane)) << "lane " << lane;
    EXPECT_EQ(pack.cycles(lane), single.cycles()) << "lane " << lane;
    EXPECT_EQ(pack.final_flags(lane), single.final_flags()) << "lane " << lane;
    ASSERT_EQ(pack.reg_writes(lane).size(), single.reg_writes().size()) << "lane " << lane;
    for (std::size_t i = 0; i < single.reg_writes().size(); ++i) {
      EXPECT_EQ(pack.reg_writes(lane)[i].reg, single.reg_writes()[i].reg) << "lane " << lane;
      EXPECT_EQ(pack.reg_writes(lane)[i].value, single.reg_writes()[i].value) << "lane " << lane;
    }
    ASSERT_EQ(pack.mem_writes(lane).size(), single.mem_writes().size()) << "lane " << lane;
    for (std::size_t i = 0; i < single.mem_writes().size(); ++i) {
      EXPECT_EQ(pack.mem_writes(lane)[i].addr, single.mem_writes()[i].addr) << "lane " << lane;
      EXPECT_EQ(pack.mem_writes(lane)[i].value, single.mem_writes()[i].value) << "lane " << lane;
    }
  }
}

class Cm0RandomDp : public ::testing::TestWithParam<int> {};

// Random data-processing streams (no branches/stores) cross-checked.
TEST_P(Cm0RandomDp, StreamsMatchIss) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  std::vector<std::uint16_t> prog;
  const char* ops[] = {"lsls", "lsrs", "asrs", "adds", "subs", "adds.i3", "subs.i3", "movs.i8",
                       "cmp.i8", "adds.i8", "subs.i8", "ands", "eors", "lsls.r", "lsrs.r",
                       "asrs.r", "adcs", "sbcs", "rors", "tst", "rsbs", "cmp.r", "cmn", "orrs",
                       "bics", "mvns", "sxth", "sxtb", "uxth", "uxtb", "rev", "rev16", "revsh"};
  for (int i = 0; i < 80; ++i) {
    const auto& spec = isa::thumb_instr(ops[rng.below(std::size(ops))]);
    prog.push_back(static_cast<std::uint16_t>(isa::thumb_sample(spec, rng)));
  }
  prog.push_back(static_cast<std::uint16_t>(isa::thumb_instr("bkpt").match));
  EXPECT_EQ(cm0_cosim_against_iss(cm0(), prog), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Cm0RandomDp, ::testing::Range(1, 11));

TEST(ThumbTable, SizeNearPaperCount) {
  // The paper counts 83 ARMv6-M instructions; our mnemonic granularity
  // lands at 81 (documented in EXPERIMENTS.md).
  EXPECT_GE(isa::thumb_instructions().size(), 78u);
  EXPECT_LE(isa::thumb_instructions().size(), 84u);
}

TEST(ThumbEncoding, SampleDecodeRoundTrip) {
  Rng rng(11);
  for (const auto& spec : isa::thumb_instructions()) {
    for (int k = 0; k < 40; ++k) {
      const std::uint32_t w = isa::thumb_sample(spec, rng);
      const auto* dec = spec.wide
                            ? isa::thumb_decode(static_cast<std::uint16_t>(w),
                                                static_cast<std::uint16_t>(w >> 16))
                            : isa::thumb_decode(static_cast<std::uint16_t>(w));
      ASSERT_NE(dec, nullptr) << spec.name << " " << std::hex << w;
      EXPECT_EQ(dec->name, spec.name) << std::hex << w;
    }
  }
}

TEST(ThumbSubsets, InterestingSubsetIsAll16Bit) {
  const auto s = isa::thumb_subset_interesting();
  EXPECT_FALSE(s.has_wide());
  EXPECT_FALSE(s.contains("muls"));
  EXPECT_TRUE(s.contains("adds"));
  EXPECT_LT(s.size(), isa::thumb_subset_all().size());
}

}  // namespace
}  // namespace pdat::cores
