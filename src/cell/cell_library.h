// Standard-cell library used by every netlist in the repo.
//
// The library models a small but representative subset of the NANGATE45
// open cell library the paper synthesizes against: basic combinational
// gates, a 2:1 mux, two complex gates (AOI21/OAI21), tie cells, and a
// D flip-flop. Areas are the NANGATE45 X1-drive footprints in um^2.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "base/types.h"

namespace pdat {

enum class CellKind : std::uint8_t {
  Const0,  // tie-low,  output only
  Const1,  // tie-high, output only
  Buf,     // Z  = A
  Inv,     // ZN = ~A
  And2,    // ZN = A1 & A2
  Or2,     // ZN = A1 | A2
  Nand2,   // ZN = ~(A1 & A2)
  Nor2,    // ZN = ~(A1 | A2)
  Xor2,    // Z  = A ^ B
  Xnor2,   // ZN = ~(A ^ B)
  And3,    // ZN = A1 & A2 & A3
  Or3,     // ZN = A1 | A2 | A3
  Nand3,   // ZN = ~(A1 & A2 & A3)
  Nor3,    // ZN = ~(A1 | A2 | A3)
  Mux2,    // Z  = S ? B : A          (in0=A, in1=B, in2=S)
  Aoi21,   // ZN = ~((A1 & A2) | B)
  Oai21,   // ZN = ~((A1 | A2) & B)
  Dff,     // Q <= D at posedge of the single global clock
  kCount,
};

inline constexpr std::size_t kNumCellKinds = static_cast<std::size_t>(CellKind::kCount);

/// Number of input pins for a cell kind.
int cell_num_inputs(CellKind kind);

/// NANGATE45-like area in um^2.
double cell_area(CellKind kind);

/// Library cell name as it appears in emitted structural Verilog.
std::string_view cell_name(CellKind kind);

/// Input pin name by position (e.g. And2 -> "A1","A2"), output pin name.
std::string_view cell_input_pin(CellKind kind, int idx);
std::string_view cell_output_pin(CellKind kind);

/// Parse a library cell name back to a kind. Throws PdatError on unknown.
CellKind cell_kind_from_name(std::string_view name);

/// True for Dff.
inline bool cell_is_sequential(CellKind kind) { return kind == CellKind::Dff; }

/// True for tie cells (no inputs).
inline bool cell_is_const(CellKind kind) {
  return kind == CellKind::Const0 || kind == CellKind::Const1;
}

/// Two-valued evaluation over 64 parallel simulation slots.
/// Inputs beyond the cell arity are ignored. Inline so that a caller with a
/// constant kind (BitSim's per-kind loops) compiles to the bare expression.
inline std::uint64_t cell_eval64(CellKind kind, std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) {
  switch (kind) {
    case CellKind::Const0: return 0;
    case CellKind::Const1: return ~0ULL;
    case CellKind::Buf: return a;
    case CellKind::Inv: return ~a;
    case CellKind::And2: return a & b;
    case CellKind::Or2: return a | b;
    case CellKind::Nand2: return ~(a & b);
    case CellKind::Nor2: return ~(a | b);
    case CellKind::Xor2: return a ^ b;
    case CellKind::Xnor2: return ~(a ^ b);
    case CellKind::And3: return a & b & c;
    case CellKind::Or3: return a | b | c;
    case CellKind::Nand3: return ~(a & b & c);
    case CellKind::Nor3: return ~(a | b | c);
    case CellKind::Mux2: return (a & ~c) | (b & c);
    case CellKind::Aoi21: return ~((a & b) | c);
    case CellKind::Oai21: return ~((a | b) & c);
    case CellKind::Dff: return a;  // next-state function
    default: throw PdatError("cell_eval64: bad kind");
  }
}

/// Three-valued evaluation (single slot).
Tri cell_eval_tri(CellKind kind, Tri a, Tri b, Tri c);

}  // namespace pdat
