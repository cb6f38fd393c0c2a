// RV32IMC + Zicsr/Zifencei instruction encodings (the Ibex ISA surface).
//
// Each instruction is described by a match/mask pair over its 32-bit (or
// 16-bit compressed) encoding plus an operand format, from which the rest of
// the framework derives: random valid-encoding samplers (environment
// stimulus), ISA-membership predicate circuits (environment restrictions),
// and the assembler/ISS operand layouts.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/rng.h"

namespace pdat::isa {

enum class RvExt : std::uint8_t { I, M, C, Zicsr, Zifencei };

enum class RvFormat : std::uint8_t {
  R,     // rd, rs1, rs2
  I,     // rd, rs1, imm12
  Shamt, // rd, rs1, shamt5 (bit 25 fixed 0)
  S,     // rs1, rs2, imm12 split
  B,     // rs1, rs2, branch offset
  U,     // rd, imm20
  J,     // rd, jump offset
  Csr,   // rd, rs1, csr12
  CsrI,  // rd, zimm5, csr12
  Fixed, // fully fixed encoding (ecall, ebreak, fence.i variant)
  Fence, // fence pred/succ
  // Compressed formats:
  CIW, CL, CS, CI, CI16, CLUI, CShamt, CAnd, CA, CJ, CB, CR, CSS, CLSP,
};

struct RvInstrSpec {
  std::string_view name;     // canonical mnemonic, e.g. "addi", "c.lw"
  RvExt ext;
  RvFormat fmt;
  std::uint32_t match;       // value of the fixed bits
  std::uint32_t mask;        // which bits are fixed
  bool compressed = false;   // 16-bit encoding (low half)

  bool matches(std::uint32_t word) const {
    const std::uint32_t w = compressed ? (word & 0xffff) : word;
    return (w & mask) == match;
  }
};

/// All instructions Ibex supports (RV32I + M + C + Zicsr + Zifencei).
const std::vector<RvInstrSpec>& rv32_instructions();

/// Index lookup by mnemonic; throws PdatError if unknown.
const RvInstrSpec& rv32_instr(std::string_view name);
int rv32_instr_index(std::string_view name);

/// Uniform-ish random valid encoding of the given instruction. Register
/// fields are restricted to < 16 when `rve` (RV32E sampling). Guarantees the
/// result decodes back to this instruction (canonicalizes reserved cases).
std::uint32_t rv32_sample(const RvInstrSpec& spec, Rng& rng, bool rve = false);

/// Decodes a word to the matching instruction spec (first match wins; specs
/// are ordered most-specific-first). Returns nullptr for illegal encodings.
const RvInstrSpec* rv32_decode_spec(std::uint32_t word);

/// Operand field extraction used by the ISS and tests.
struct RvFields {
  unsigned rd = 0, rs1 = 0, rs2 = 0;
  std::int32_t imm = 0;      // sign-extended where applicable
  unsigned csr = 0, shamt = 0, zimm = 0;
};
RvFields rv32_extract(const RvInstrSpec& spec, std::uint32_t word);

}  // namespace pdat::isa
