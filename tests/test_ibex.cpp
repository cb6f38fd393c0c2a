#include <gtest/gtest.h>

#include "cores/ibex/ibex_core.h"
#include "cores/ibex/ibex_tb.h"
#include "cores/ibex/rvc_expander.h"
#include "isa/rv32_assembler.h"
#include "isa/rv32_isa.h"
#include "netlist/check.h"
#include "sim/bitsim.h"

namespace pdat::cores {
namespace {

const Netlist& full_core() {
  static const IbexCore core = build_ibex();
  return core.netlist;
}

TEST(RvcExpander, HardwareMatchesSoftwareOnSamples) {
  Netlist nl;
  synth::Builder b(nl);
  auto lo = b.input("lo", 16);
  const RvcExpanderOut out = build_rvc_expander(b, lo);
  b.output("word", out.word32);
  b.output("illegal", {out.illegal});
  BitSim sim(nl);
  Rng rng(123);
  for (const auto& spec : isa::rv32_instructions()) {
    if (!spec.compressed) continue;
    for (int k = 0; k < 60; ++k) {
      const std::uint32_t w = isa::rv32_sample(spec, rng) & 0xffff;
      sim.set_port_uniform(*nl.find_input("lo"), w);
      sim.eval();
      EXPECT_EQ(sim.read_port(*nl.find_output("illegal"), 0), 0u) << spec.name;
      EXPECT_EQ(sim.read_port(*nl.find_output("word"), 0),
                isa::rvc_expand(static_cast<std::uint16_t>(w)))
          << spec.name << " encoding 0x" << std::hex << w;
    }
  }
  // Illegal compressed encodings flag as illegal.
  for (std::uint32_t w : {0x0000u}) {
    sim.set_port_uniform(*nl.find_input("lo"), w);
    sim.eval();
    EXPECT_EQ(sim.read_port(*nl.find_output("illegal"), 0), 1u);
  }
}

TEST(RvcExpander, RandomHalvesAgreeWithSoftware) {
  Netlist nl;
  synth::Builder b(nl);
  auto lo = b.input("lo", 16);
  const RvcExpanderOut out = build_rvc_expander(b, lo);
  b.output("word", out.word32);
  b.output("illegal", {out.illegal});
  BitSim sim(nl);
  Rng rng(321);
  for (int k = 0; k < 3000; ++k) {
    std::uint32_t w = static_cast<std::uint32_t>(rng.next()) & 0xffff;
    if ((w & 3) == 3) w &= ~2u;  // force a compressed quadrant
    sim.set_port_uniform(*nl.find_input("lo"), w);
    sim.eval();
    const std::uint32_t sw = isa::rvc_expand(static_cast<std::uint16_t>(w));
    const bool hw_illegal = sim.read_port(*nl.find_output("illegal"), 0) != 0;
    EXPECT_EQ(hw_illegal, sw == 0) << std::hex << w;
    if (sw != 0 && !hw_illegal) {
      EXPECT_EQ(sim.read_port(*nl.find_output("word"), 0), sw) << std::hex << w;
    }
  }
}

TEST(IbexCore, BuildsWellFormed) {
  const Netlist& nl = full_core();
  EXPECT_TRUE(check_netlist(nl).empty());
  // Sanity: embedded-class core scale (paper Table II: ~10k gates).
  EXPECT_GT(nl.gate_count(), 4000u);
  EXPECT_LT(nl.gate_count(), 60000u);
  EXPECT_GT(nl.num_flops(), 1100u) << "regfile + pipeline + CSR state expected";
}

TEST(IbexCore, ConfigsScaleDown) {
  const std::size_t full = build_ibex().netlist.gate_count();
  IbexConfig no_m;
  no_m.has_m = false;
  IbexConfig no_c;
  no_c.has_c = false;
  IbexConfig no_z;
  no_z.has_z = false;
  EXPECT_LT(build_ibex(no_m).netlist.gate_count(), full);
  EXPECT_LT(build_ibex(no_c).netlist.gate_count(), full);
  EXPECT_LT(build_ibex(no_z).netlist.gate_count(), full);
}

std::string cosim_asm(const std::string& text) {
  return cosim_against_iss(full_core(), isa::assemble_rv32(text).words);
}

TEST(IbexCosim, ArithmeticLoop) {
  EXPECT_EQ(cosim_asm(R"(
      li a0, 0
      li t0, 1
    loop:
      add a0, a0, t0
      slli t1, t0, 2
      xor a0, a0, t1
      addi t0, t0, 1
      li t2, 20
      blt t0, t2, loop
      ebreak
  )"), "");
}

TEST(IbexCosim, MemoryMixedWidths) {
  EXPECT_EQ(cosim_asm(R"(
      li t0, 0x400
      li t1, 0x87654321
      sw t1, 0(t0)
      lb a0, 0(t0)
      lbu a1, 3(t0)
      lh a2, 0(t0)
      lhu a3, 2(t0)
      sb a1, 5(t0)
      sh a2, 6(t0)
      lw a4, 4(t0)
      ebreak
  )"), "");
}

TEST(IbexCosim, MisalignedAccessesCrossWordBoundaries) {
  // lh/lw/sh/sw at offsets 1..3 exercise the two-phase LSU sequencer.
  EXPECT_EQ(cosim_asm(R"(
      li t0, 0x500
      li t1, 0xA1B2C3D4
      sw t1, 1(t0)        # w @ off 1 (crosses)
      lw a0, 1(t0)
      sw t1, 2(t0)        # w @ off 2 (crosses)
      lw a1, 2(t0)
      sw t1, 3(t0)        # w @ off 3 (crosses)
      lw a2, 3(t0)
      sh t1, 7(t0)        # h @ off 3 (crosses)
      lh a3, 7(t0)
      lhu a4, 7(t0)
      lw a5, 4(t0)        # aligned readback of the mixed bytes
      lw a6, 8(t0)
      ebreak
  )"), "");
}

TEST(IbexCosim, MisalignedRawPairsInterlockWithTwoPhaseLsu) {
  // Directed lockstep anchor for the fuzzer's MisMem/RAW bias (src/fuzz/):
  // every split access's result is consumed by the very next instruction,
  // so the two-phase LSU sequencer must interlock with RAW forwarding —
  // through the register file, through memory, and through the address path.
  EXPECT_EQ(cosim_asm(R"(
      li t0, 0x604
      li t1, 0xDEADBEEF
      sw t1, 3(t0)        # split store...
      lw a0, 3(t0)        #   ...reloaded split (RAW through memory)
      addi a1, a0, 1      # load-use RAW straight after phase 2
      lhu a2, 3(t0)       # split halfword load
      add a3, a2, a2      # its result feeds the ALU...
      sh a3, 1(t0)        #   ...and then a split store's data
      li t2, 0x700
      li t3, 0x705
      sw t3, 2(t2)        # store a pointer, misaligned
      lw t4, 2(t2)        # reload it
      sb t4, 0(t4)        # and use it as the base address immediately
      lbu a4, 5(t2)
      lw a5, 0(t0)        # aligned readback of the mixed bytes
      lw a6, 4(t0)
      ebreak
  )"), "");
}

TEST(IbexCosim, BranchesAndJumps) {
  EXPECT_EQ(cosim_asm(R"(
      li a0, 0
      li t0, -5
      li t1, 5
      beq t0, t1, bad
      bne t0, t1, l1
    bad:
      li a0, 999
      ebreak
    l1:
      blt t0, t1, l2
      j bad
    l2:
      bltu t0, t1, bad    # unsigned -5 > 5
      bge t1, t0, l3
      j bad
    l3:
      call fn
      addi a0, a0, 1
      ebreak
    fn:
      addi a0, a0, 10
      ret
  )"), "");
}

TEST(IbexCosim, MulDivAllVariants) {
  EXPECT_EQ(cosim_asm(R"(
      li t0, -7
      li t1, 3
      mul a0, t0, t1
      mulh a1, t0, t1
      mulhu a2, t0, t1
      mulhsu a3, t0, t1
      div a4, t0, t1
      divu a5, t0, t1
      rem a6, t0, t1
      remu a7, t0, t1
      li t0, 0x80000000
      li t1, -1
      div s0, t0, t1
      rem s1, t0, t1
      li t1, 0
      div s2, t0, t1
      divu s3, t0, t1
      rem s4, t0, t1
      remu s5, t0, t1
      ebreak
  )"), "");
}

TEST(IbexCosim, ShiftsAndCompares) {
  EXPECT_EQ(cosim_asm(R"(
      li t0, 0x80000001
      srai a0, t0, 7
      srli a1, t0, 7
      slli a2, t0, 3
      li t1, 35
      sll a3, t0, t1
      sra a4, t0, t1
      slt a5, t0, x0
      sltu a6, t0, x0
      slti a7, t0, -1
      sltiu s0, t0, -1
      ebreak
  )"), "");
}

TEST(IbexCosim, CsrCounters) {
  EXPECT_EQ(cosim_asm(R"(
      nop
      nop
      csrrs a0, 0xc02, x0    # instret
      csrrw a1, 0x340, a0    # mscratch swap
      csrrs a2, 0x340, x0
      csrrwi a3, 0x340, 5
      csrrsi a4, 0x340, 2
      csrrci a5, 0x340, 1
      csrrs a6, 0x340, x0
      ebreak
  )"), "");
}

TEST(IbexCosim, LuiAuipcFence) {
  EXPECT_EQ(cosim_asm(R"(
      lui a0, 0x12345
      auipc a1, 0x1000
      fence
      fence.i
      addi a1, a1, 0x21
      ebreak
  )"), "");
}

TEST(IbexCosim, CompressedInstructionsExecute) {
  // Build a mixed 16/32-bit stream by hand:
  //   c.li a0, 9 ; c.addi a0, 7 ; c.slli a0, 2 ; c.nop-pad ; ebreak
  using namespace isa;
  RvFields f;
  f.rd = 10;
  f.imm = 9;
  const auto c_li = static_cast<std::uint16_t>(rv32_encode(rv32_instr("c.li"), f));
  f.imm = 7;
  const auto c_addi = static_cast<std::uint16_t>(rv32_encode(rv32_instr("c.addi"), f));
  RvFields s;
  s.rd = 10;
  s.shamt = 2;
  const auto c_slli = static_cast<std::uint16_t>(rv32_encode(rv32_instr("c.slli"), s));
  RvFields nopf;
  nopf.rd = 0;
  nopf.imm = 0;
  const auto c_nop = static_cast<std::uint16_t>(rv32_encode(rv32_instr("c.addi"), nopf));
  std::vector<std::uint32_t> words = {
      static_cast<std::uint32_t>(c_li) | (static_cast<std::uint32_t>(c_addi) << 16),
      static_cast<std::uint32_t>(c_slli) | (static_cast<std::uint32_t>(c_nop) << 16),
      rv32_instr("ebreak").match};
  EXPECT_EQ(cosim_against_iss(full_core(), words), "");
}

TEST(IbexCosim, IllegalInstructionHaltsCore) {
  IbexTestbench tb(full_core());
  tb.load_words(0, {0xffffffffu});
  const auto cycles = tb.run(100);
  EXPECT_LT(cycles, 100u);
}

TEST(IbexCosim, NoCConfigTreatsCompressedAsIllegal) {
  IbexConfig cfg;
  cfg.has_c = false;
  const IbexCore core = build_ibex(cfg);
  IbexTestbench tb(core.netlist);
  tb.load_words(0, {0x00000001u});  // c.nop — illegal without the C extension
  EXPECT_LT(tb.run(100), 100u);
  EXPECT_EQ(tb.retired(), 1u) << "the illegal instruction itself retires into a halt";
}

class IbexRandomPrograms : public ::testing::TestWithParam<int> {};

// Random straight-line programs over the full ISA surface (no branches, so
// any operand values are safe), ending in ebreak.
TEST_P(IbexRandomPrograms, TraceMatchesIss) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::vector<std::uint32_t> words;
  const char* ops[] = {"add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
                       "addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai",
                       "lui", "auipc", "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem",
                       "remu"};
  for (int i = 0; i < 60; ++i) {
    const auto& spec = isa::rv32_instr(ops[rng.below(std::size(ops))]);
    isa::RvFields f;
    f.rd = static_cast<unsigned>(rng.below(32));
    f.rs1 = static_cast<unsigned>(rng.below(32));
    f.rs2 = static_cast<unsigned>(rng.below(32));
    f.imm = static_cast<std::int32_t>(rng.next() & 0xfff) - 2048;
    if (spec.fmt == isa::RvFormat::U) f.imm = static_cast<std::int32_t>(rng.next() & 0xfffff000);
    f.shamt = static_cast<unsigned>(rng.below(32));
    words.push_back(isa::rv32_encode(spec, f));
  }
  words.push_back(isa::rv32_instr("ebreak").match);
  EXPECT_EQ(cosim_against_iss(full_core(), words), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IbexRandomPrograms, ::testing::Range(1, 13));

}  // namespace
}  // namespace pdat::cores
