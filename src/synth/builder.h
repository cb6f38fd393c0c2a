// Word-level circuit builder: a small structural HDL embedded in C++.
//
// Cores in src/cores are written against this API; every operation
// elaborates immediately into standard cells of the target library, playing
// the role of the RTL-to-gates synthesis front-end (Design Compiler in the
// paper's methodology). Buses are little-endian vectors of nets (bit 0 =
// LSB). All registers share the single implicit global clock.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace pdat::synth {

using Bus = std::vector<NetId>;

class Builder {
 public:
  explicit Builder(Netlist& nl) : nl_(&nl) {}

  Netlist& netlist() { return *nl_; }

  // --- constants and ports --------------------------------------------------
  NetId bit(bool v) { return nl_->const_net(v); }
  Bus constant(std::uint64_t value, std::size_t width);
  Bus input(const std::string& name, std::size_t width) { return nl_->add_input(name, width); }
  void output(const std::string& name, const Bus& bus) { nl_->add_output(name, bus); }

  // --- single-bit gates ------------------------------------------------------
  NetId not_(NetId a) { return nl_->add_cell(CellKind::Inv, a); }
  NetId and_(NetId a, NetId b) { return nl_->add_cell(CellKind::And2, a, b); }
  NetId or_(NetId a, NetId b) { return nl_->add_cell(CellKind::Or2, a, b); }
  NetId nor_(NetId a, NetId b) { return nl_->add_cell(CellKind::Nor2, a, b); }
  NetId xor_(NetId a, NetId b) { return nl_->add_cell(CellKind::Xor2, a, b); }
  NetId xnor_(NetId a, NetId b) { return nl_->add_cell(CellKind::Xnor2, a, b); }
  /// s ? b : a
  NetId mux(NetId s, NetId a, NetId b) { return nl_->add_cell(CellKind::Mux2, a, b, s); }
  NetId and_(NetId a, NetId b, NetId c) { return nl_->add_cell(CellKind::And3, a, b, c); }
  NetId or_(NetId a, NetId b, NetId c) { return nl_->add_cell(CellKind::Or3, a, b, c); }
  NetId implies(NetId a, NetId b) { return or_(not_(a), b); }

  /// Balanced reduction trees.
  NetId all(std::span<const NetId> bits);   // AND-reduce (1 for empty)
  NetId any(std::span<const NetId> bits);   // OR-reduce (0 for empty)
  NetId parity(std::span<const NetId> bits);
  NetId all(const Bus& b) { return all(std::span<const NetId>(b)); }
  NetId any(const Bus& b) { return any(std::span<const NetId>(b)); }
  NetId parity(const Bus& b) { return parity(std::span<const NetId>(b)); }

  // --- bitwise bus ops --------------------------------------------------------
  Bus not_(const Bus& a);
  Bus and_(const Bus& a, const Bus& b);
  Bus or_(const Bus& a, const Bus& b);
  Bus xor_(const Bus& a, const Bus& b);
  Bus and_(const Bus& a, NetId b);  // mask every bit with b
  Bus mux(NetId s, const Bus& a, const Bus& b);

  // --- structure ---------------------------------------------------------------
  static Bus slice(const Bus& a, std::size_t lo, std::size_t width);
  static Bus concat(const Bus& lo, const Bus& hi);
  Bus zext(const Bus& a, std::size_t width);
  Bus sext(const Bus& a, std::size_t width);
  Bus repeat(NetId b, std::size_t width) { return Bus(width, b); }

  // --- comparisons ---------------------------------------------------------------
  NetId eq(const Bus& a, const Bus& b);
  NetId eq_const(const Bus& a, std::uint64_t value);
  NetId ne(const Bus& a, const Bus& b) { return not_(eq(a, b)); }
  NetId ult(const Bus& a, const Bus& b);
  NetId slt(const Bus& a, const Bus& b);
  NetId is_zero(const Bus& a) { return not_(any(a)); }

  // --- arithmetic (arith.cpp) -------------------------------------------------
  /// Ripple-carry a + b + cin; cout optionally returned.
  Bus add(const Bus& a, const Bus& b, NetId cin = kNoNet, NetId* cout = nullptr);
  Bus sub(const Bus& a, const Bus& b, NetId* borrow_n = nullptr);  // borrow_n: 1 if a>=b
  Bus neg(const Bus& a);
  Bus add_const(const Bus& a, std::uint64_t value);
  /// Barrel shifters; amt is log2(width) bits (extra amt bits must be
  /// handled by the caller).
  Bus shl(const Bus& a, const Bus& amt);
  Bus lshr(const Bus& a, const Bus& amt);
  Bus ashr(const Bus& a, const Bus& amt);
  /// Combinational array multiplier; result truncated to a.size()+b.size().
  Bus mul(const Bus& a, const Bus& b);

  // --- selection ----------------------------------------------------------------
  /// options.size() must be a power of two == 1 << sel.size().
  Bus mux_tree(const Bus& sel, const std::vector<Bus>& options);
  /// One-hot select: OR of (sel_i AND option_i). Caller guarantees one-hot
  /// (or zero, yielding 0).
  Bus onehot_mux(const std::vector<NetId>& sels, const std::vector<Bus>& options);
  /// Binary decoder: out[i] = (a == i), out size 1<<a.size().
  std::vector<NetId> decode(const Bus& a);

  // --- state (memory.cpp) -------------------------------------------------------
  /// Register with known next-state: q <= d.
  Bus reg(const Bus& d, std::uint64_t init = 0);
  NetId reg_bit(NetId d, bool init = false);

  /// Declare-then-connect for feedback: creates flops with placeholder D.
  struct RegHandle {
    Bus q;
    std::vector<CellId> flops;
    bool connected = false;
  };
  RegHandle reg_decl(std::size_t width, std::uint64_t init = 0);
  RegHandle reg_decl_x(std::size_t width);  // power-on X (uninitialized)
  void connect(RegHandle& r, const Bus& d);
  /// q <= en ? d : q (builds the feedback mux, then connects).
  void connect_en(RegHandle& r, NetId en, const Bus& d);

  /// Register file: `entries` x `width` flops with one write port.
  /// Returns per-entry Q buses; reads are built by the caller with mux_tree.
  std::vector<Bus> regfile(std::size_t entries, std::size_t width, const Bus& waddr, NetId wen,
                           const Bus& wdata, bool entry0_zero = false);

 private:
  Netlist* nl_;

  void check_same_width(const Bus& a, const Bus& b, const char* op) const;
};

}  // namespace pdat::synth
