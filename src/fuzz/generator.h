// Subset-aware abstract-program generators for the differential fuzzer.
//
// Both generators obey the *subset contract*: every fetched encoding —
// prologue, body, and terminator — is a member of the configured subset, so
// programs are valid stimulus for a PDAT-reduced core (whose correctness is
// only claimed for subset-closed programs).
//
// Operand policies keep programs deterministic and self-contained:
//  * a dedicated base register (x10 / r6) is pointed at a data window above
//    the code so random stores can never rewrite the program;
//  * control transfers are forward-only (no loops), targets expressed as
//    "skip n ops" so delta debugging keeps them valid;
//  * registers with machine roles (sp, the base registers) are never
//    written by sampled instructions.
#pragma once

#include "fuzz/fuzz.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_subsets.h"

namespace pdat::fuzz {

class Rv32Generator : public Generator {
 public:
  /// Throws PdatError when the subset lacks a halting terminator
  /// (ebreak/ecall/c.ebreak) or contains no generatable instruction.
  Rv32Generator(isa::RvSubset subset, std::size_t max_ops = kDefaultMaxOps);

  std::vector<std::uint32_t> encode_units(const AbsProgram& p) const override;

 private:
  // Encodes one op at byte offset `at`; `target_off` is the byte offset of
  // the op's control-transfer target (terminator offset when past the end).
  std::uint32_t encode_op(const AbsOp& op, std::uint32_t at, std::uint32_t target_off) const;
  unsigned op_bytes(const AbsOp& op) const;

  isa::RvSubset subset_;
  bool have_lui_ = false;         // base/sp prologue uses lui
  bool have_clui_ = false;        // ... or c.lui (base only)
  bool have_addi_ = false;        // ... or addi (low base, short offsets)
  bool sp_set_ = false;           // c.lwsp/c.swsp usable
  std::uint32_t data_base_ = 0;   // value placed in x10
  std::int32_t mem_imm_max_ = 0;  // inclusive aligned-offset bound
};

class ThumbGenerator : public Generator {
 public:
  ThumbGenerator(isa::ThumbSubset subset, std::size_t max_ops = kDefaultMaxOps);

  std::vector<std::uint32_t> encode_units(const AbsProgram& p) const override;

 private:
  std::uint32_t encode_op(const AbsOp& op, std::uint32_t at_hw, std::uint32_t target_hw) const;
  unsigned op_halfwords(const AbsOp& op) const;

  isa::ThumbSubset subset_;
  bool mem_ok_ = false;  // movs.i8 + lsls present => base registers settable
};

}  // namespace pdat::fuzz
