// Netlist obfuscation, modeling the obfuscated Cortex-M0 netlist of §VII-B.
//
// The pass hides design intent without changing function: net/port debug
// names are scrambled, multi-input gates are decomposed into NAND/NOR/INV
// networks, inverter pairs are inserted on random nets, and muxes with a
// redundant constant-selected branch camouflage simple gates. The result is
// functionally identical (checked in tests by bit-parallel co-simulation)
// but structurally dissimilar and larger — as the paper observes, some of
// the area PDAT later removes "may be attributable to ARM's obfuscation".
#pragma once

#include <cstdint>

#include "netlist/netlist.h"

namespace pdat::opt {

void obfuscate(Netlist& nl, std::uint64_t seed = 0xa5a5);

}  // namespace pdat::opt
