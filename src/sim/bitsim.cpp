#include "sim/bitsim.h"

#include <algorithm>

#include "base/types.h"

namespace pdat {
namespace {

// Transposes a 64x64 bit matrix in place: bit j of a[i] swaps with bit i of
// a[j]. Six rounds of block swaps (32x32 blocks, then 16x16, ...).
void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000ffffffffULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

}  // namespace

BitSim::BitSim(const Netlist& nl) : nl_(nl), lv_(levelize(nl)) {
  vals_.assign(nl.num_nets(), 0);
  flop_q_.assign(nl.num_cells_raw(), 0);
  reset();
}

void BitSim::reset() {
  for (CellId id : lv_.flops) {
    const Cell& c = nl_.cell(id);
    flop_q_[id] = (c.init == Tri::T) ? ~0ULL : 0ULL;
    vals_[c.out] = flop_q_[id];
  }
}

void BitSim::set_input(NetId net, std::uint64_t word) { vals_[net] = word; }

void BitSim::set_port_uniform(const Port& port, std::uint64_t value) {
  for (std::size_t i = 0; i < port.bits.size(); ++i) {
    vals_[port.bits[i]] = ((value >> i) & 1) ? ~0ULL : 0ULL;
  }
}

void BitSim::set_port_per_slot(const Port& port, const std::uint64_t* values) {
  if (port.bits.size() > 64) throw PdatError("set_port_per_slot: port wider than 64 bits");
  std::uint64_t words[64];
  std::copy(values, values + 64, words);
  transpose64(words);
  for (std::size_t bit = 0; bit < port.bits.size(); ++bit) vals_[port.bits[bit]] = words[bit];
}

void BitSim::eval() {
  for (CellId id : lv_.flops) vals_[nl_.cell(id).out] = flop_q_[id];
  for (CellId id : lv_.comb_order) {
    const Cell& c = nl_.cell(id);
    const std::uint64_t a = c.in[0] == kNoNet ? 0 : vals_[c.in[0]];
    const std::uint64_t b = c.in[1] == kNoNet ? 0 : vals_[c.in[1]];
    const std::uint64_t d = c.in[2] == kNoNet ? 0 : vals_[c.in[2]];
    vals_[c.out] = cell_eval64(c.kind, a, b, d);
  }
}

void BitSim::latch() {
  for (CellId id : lv_.flops) flop_q_[id] = vals_[nl_.cell(id).in[0]];
  for (CellId id : lv_.flops) vals_[nl_.cell(id).out] = flop_q_[id];
}

void BitSim::step() {
  eval();
  latch();
}

std::uint64_t BitSim::read_port(const Port& port, int slot) const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < port.bits.size(); ++i) {
    v |= ((vals_[port.bits[i]] >> slot) & 1ULL) << i;
  }
  return v;
}

void BitSim::read_port_per_slot(const Port& port, std::uint64_t* values) const {
  if (port.bits.size() > 64) throw PdatError("read_port_per_slot: port wider than 64 bits");
  for (std::size_t i = 0; i < 64; ++i) values[i] = i < port.bits.size() ? vals_[port.bits[i]] : 0;
  transpose64(values);
}

void BitSim::set_flop_state(CellId flop, std::uint64_t word) {
  flop_q_[flop] = word;
  vals_[nl_.cell(flop).out] = word;
}

std::uint64_t BitSim::flop_state(CellId flop) const { return flop_q_[flop]; }

}  // namespace pdat
