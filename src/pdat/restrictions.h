// Environment-restriction builders (paper §IV.3, §V).
//
// These mutate an *analysis copy* of a core's netlist: cutting nets where
// cutpoint-based constraints are requested, appending ISA-membership
// constraint circuits, and registering matching stimulus drivers for the
// candidate-filtering simulation. The appended constraint logic never
// reaches the transformed design — rewiring is applied to a fresh copy of
// the original netlist.
#pragma once

#include <vector>

#include "formal/environment.h"
#include "formal/property.h"
#include "isa/rv32_subsets.h"
#include "isa/thumb_subsets.h"
#include "netlist/netlist.h"

namespace pdat {

struct RestrictionResult {
  Environment env;
  /// Nets freed by cutpoints. Each must be owned by one of `env.drivers`:
  /// run_pdat rejects a restriction that leaves one unowned.
  std::vector<NetId> cut_nets;
  /// Extra candidate invariants handed to the property checker (proved, not
  /// assumed). Used where plain 1-induction is weaker than the commercial
  /// checker's reachability analysis — e.g. "the fetch register always holds
  /// a subset instruction" for port-based constraints.
  std::vector<GateProperty> strengthen;
};

/// Cutpoint-based ISA restriction (paper Fig. 4): detaches the fetch-decode
/// pipeline register outputs and constrains them to hold an instruction
/// from `subset` at every cycle.
RestrictionResult restrict_isa_cutpoint(Netlist& analysis, const std::vector<NetId>& instr_reg_q,
                                        const isa::RvSubset& subset);

/// Port-based ISA restriction: constrains a 32-bit primary-input instruction
/// port (e.g. imem_rdata) to the subset without cutting anything.
RestrictionResult restrict_isa_port(Netlist& analysis, const std::string& port_name,
                                    const isa::RvSubset& subset);

/// Port-based Thumb restriction (paper §VII-B): constrains a 16-bit
/// primary-input halfword port (e.g. a CM0's imem_rdata) to the subset's
/// halfword stream. The stimulus keeps each two-halfword encoding in order
/// per simulation slot.
RestrictionResult restrict_thumb_port(Netlist& analysis, const std::string& port_name,
                                      const isa::ThumbSubset& subset);

/// Adds a strengthening candidate: "the 32-bit register `regs` always holds
/// an instruction from `subset`" (a matcher circuit is appended to the
/// analysis netlist; the resulting Const1 candidate is strengthening-only).
void strengthen_subset_membership(Netlist& analysis, RestrictionResult& r,
                                  const std::vector<NetId>& regs, const isa::RvSubset& subset);

/// Cutpoint form of an I/O-protocol restriction (paper Fig. 3): detaches the
/// given nets from their drivers and constrains them to constant 0. Used by
/// the "Aligned" variant on the data-address low bits, where a conditional
/// assume cannot make the byte-lane logic constant but a cutpoint can.
void restrict_cut_to_zero(Netlist& analysis, RestrictionResult& r,
                          const std::vector<NetId>& nets);

}  // namespace pdat
