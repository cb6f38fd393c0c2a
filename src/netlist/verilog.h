// Structural-Verilog writer and reader.
//
// The emitted format is the flat gate-level style Design Compiler produces:
// one module, scalar wires, and library-cell instances with named pin
// connections. The reader accepts exactly what the writer emits (plus
// whitespace variations), which is enough to round-trip netlists between
// pipeline stages and to ingest the "firm IP" inputs the paper targets.
#pragma once

#include <iosfwd>
#include <string>

#include "netlist/netlist.h"

namespace pdat {

void write_verilog(std::ostream& os, const Netlist& nl, const std::string& module_name);
std::string to_verilog(const Netlist& nl, const std::string& module_name);

/// Parses a netlist previously produced by write_verilog.
/// DFF initial values are read from `// init=<0|1|x>` comments.
Netlist read_verilog_string(const std::string& text);

}  // namespace pdat
