#include "validate/lockstep.h"

#include "cores/ibex/ibex_tb.h"
#include "isa/rv32_assembler.h"

namespace pdat::validate {

std::vector<std::vector<std::uint32_t>> rv32_smoke_programs() {
  std::vector<std::vector<std::uint32_t>> progs;
  // 1. ALU mix: dependent adds/xors/shifts through a loop.
  progs.push_back(isa::assemble_rv32(R"(
      li a0, 0
      li t0, 1
    loop:
      add a0, a0, t0
      slli t1, t0, 2
      xor a0, a0, t1
      addi t0, t0, 1
      li t2, 12
      blt t0, t2, loop
      ebreak
  )").words);
  // 2. Memory traffic: word store/load round-trips plus byte accesses.
  progs.push_back(isa::assemble_rv32(R"(
      li sp, 1024
      li a0, 0x1234
      sw a0, 0(sp)
      lw a1, 0(sp)
      add a2, a0, a1
      sb a2, 8(sp)
      lbu a3, 8(sp)
      sw a3, 12(sp)
      lw a4, 12(sp)
      ebreak
  )").words);
  // 3. Control flow: taken/untaken branches and a call/return pair.
  progs.push_back(isa::assemble_rv32(R"(
      li a0, 5
      li a1, 0
    head:
      beq a0, zero, done
      addi a1, a1, 3
      addi a0, a0, -1
      call twice
      j head
    twice:
      slli a1, a1, 1
      srai a1, a1, 1
      ret
    done:
      ebreak
  )").words);
  return progs;
}

LockstepResult lockstep_rv32(const Netlist& nl,
                             const std::vector<std::vector<std::uint32_t>>& programs,
                             std::uint64_t max_cycles) {
  LockstepResult res;
  res.verdict = Verdict::Pass;
  for (const auto& prog : programs) {
    const std::string mismatch = cores::cosim_against_iss(nl, prog, max_cycles);
    ++res.programs_run;
    if (!mismatch.empty()) {
      res.verdict = Verdict::Fail;
      res.detail = "lockstep program " + std::to_string(res.programs_run) + ": " + mismatch;
      return res;
    }
  }
  return res;
}

LockstepFn rv32_lockstep_fn(std::uint64_t max_cycles) {
  return [max_cycles](const Netlist& nl) -> std::string {
    const LockstepResult r = lockstep_rv32(nl, rv32_smoke_programs(), max_cycles);
    return r.verdict == Verdict::Fail ? r.detail : std::string();
  };
}

}  // namespace pdat::validate
