#include "cell/cell_library.h"

#include <string>

namespace pdat {
namespace {

struct CellInfo {
  std::string_view name;
  int ninputs;
  double area;
  std::array<std::string_view, 3> in_pins;
  std::string_view out_pin;
};

// Areas follow the NANGATE45 X1 cells (um^2). DFF is DFF_X1.
constexpr std::array<CellInfo, kNumCellKinds> kInfo = {{
    {"LOGIC0_X1", 0, 0.000, {"", "", ""}, "Z"},
    {"LOGIC1_X1", 0, 0.000, {"", "", ""}, "Z"},
    {"BUF_X1", 1, 0.798, {"A", "", ""}, "Z"},
    {"INV_X1", 1, 0.532, {"A", "", ""}, "ZN"},
    {"AND2_X1", 2, 1.064, {"A1", "A2", ""}, "ZN"},
    {"OR2_X1", 2, 1.064, {"A1", "A2", ""}, "ZN"},
    {"NAND2_X1", 2, 0.798, {"A1", "A2", ""}, "ZN"},
    {"NOR2_X1", 2, 0.798, {"A1", "A2", ""}, "ZN"},
    {"XOR2_X1", 2, 1.596, {"A", "B", ""}, "Z"},
    {"XNOR2_X1", 2, 1.596, {"A", "B", ""}, "ZN"},
    {"AND3_X1", 3, 1.330, {"A1", "A2", "A3"}, "ZN"},
    {"OR3_X1", 3, 1.330, {"A1", "A2", "A3"}, "ZN"},
    {"NAND3_X1", 3, 1.064, {"A1", "A2", "A3"}, "ZN"},
    {"NOR3_X1", 3, 1.064, {"A1", "A2", "A3"}, "ZN"},
    {"MUX2_X1", 3, 1.862, {"A", "B", "S"}, "Z"},
    {"AOI21_X1", 3, 1.064, {"A1", "A2", "B"}, "ZN"},
    {"OAI21_X1", 3, 1.064, {"A1", "A2", "B"}, "ZN"},
    {"DFF_X1", 1, 4.522, {"D", "", ""}, "Q"},
}};

const CellInfo& info(CellKind kind) { return kInfo[static_cast<std::size_t>(kind)]; }

}  // namespace

int cell_num_inputs(CellKind kind) { return info(kind).ninputs; }
double cell_area(CellKind kind) { return info(kind).area; }
std::string_view cell_name(CellKind kind) { return info(kind).name; }
std::string_view cell_input_pin(CellKind kind, int idx) { return info(kind).in_pins[static_cast<std::size_t>(idx)]; }
std::string_view cell_output_pin(CellKind kind) { return info(kind).out_pin; }

CellKind cell_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kNumCellKinds; ++i) {
    if (kInfo[i].name == name) return static_cast<CellKind>(i);
  }
  throw PdatError("unknown cell name: " + std::string(name));
}

Tri cell_eval_tri(CellKind kind, Tri a, Tri b, Tri c) {
  switch (kind) {
    case CellKind::Const0: return Tri::F;
    case CellKind::Const1: return Tri::T;
    case CellKind::Buf: return a;
    case CellKind::Inv: return tri_not(a);
    case CellKind::And2: return tri_and(a, b);
    case CellKind::Or2: return tri_or(a, b);
    case CellKind::Nand2: return tri_not(tri_and(a, b));
    case CellKind::Nor2: return tri_not(tri_or(a, b));
    case CellKind::Xor2: return tri_xor(a, b);
    case CellKind::Xnor2: return tri_not(tri_xor(a, b));
    case CellKind::And3: return tri_and(tri_and(a, b), c);
    case CellKind::Or3: return tri_or(tri_or(a, b), c);
    case CellKind::Nand3: return tri_not(tri_and(tri_and(a, b), c));
    case CellKind::Nor3: return tri_not(tri_or(tri_or(a, b), c));
    case CellKind::Mux2: return tri_mux(c, a, b);
    case CellKind::Aoi21: return tri_not(tri_or(tri_and(a, b), c));
    case CellKind::Oai21: return tri_not(tri_and(tri_or(a, b), c));
    case CellKind::Dff: return a;
    default: throw PdatError("cell_eval_tri: bad kind");
  }
}

}  // namespace pdat
