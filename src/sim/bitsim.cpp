#include "sim/bitsim.h"

#include <algorithm>
#include <array>
#include <utility>

#include "base/types.h"

namespace pdat {

// Six rounds of block swaps (32x32 blocks, then 16x16, ...).
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

void BitSim::Cone::push(CellKind kind, const Entry& cell) {
  cells_.push_back(cell);
  const auto end = static_cast<std::uint32_t>(cells_.size());
  if (runs_.empty() || runs_.back().kind != kind)
    runs_.push_back({kind, end});
  else
    runs_.back().end = end;
}

BitSim::BitSim(const Netlist& nl) : nl_(nl), lv_(levelize(nl)) {
  const auto zero = static_cast<NetId>(nl.num_nets());
  std::vector<CellId> order = lv_.comb_order;
  std::stable_sort(order.begin(), order.end(), [&](CellId x, CellId y) {
    const int lx = lv_.net_level[nl.cell(x).out], ly = lv_.net_level[nl.cell(y).out];
    return lx != ly ? lx < ly : nl.cell(x).kind < nl.cell(y).kind;
  });
  tape_.cells_.reserve(order.size());
  for (CellId id : order) {
    const Cell& c = nl.cell(id);
    const int arity = cell_num_inputs(c.kind);
    const auto pin = [&](int i) {
      const NetId in = c.in[static_cast<std::size_t>(i)];
      return i < arity && in != kNoNet ? in : zero;
    };
    tape_.push(c.kind, {pin(0), pin(1), pin(2), c.out});
  }
  for (CellId id : lv_.flops) flops_.push_back({id, nl.cell(id).in[0], nl.cell(id).out});
  vals_.assign(nl.num_nets() + 1, 0);
  flop_q_.assign(nl.num_cells_raw(), 0);
  reset();
}

void BitSim::reset() {
  for (const Flop& f : flops_) {
    flop_q_[f.cell] = (nl_.cell(f.cell).init == Tri::T) ? ~0ULL : 0ULL;
    vals_[f.q] = flop_q_[f.cell];
  }
}

void BitSim::set_input(NetId net, std::uint64_t word) { vals_[net] = word; }

void BitSim::set_port_uniform(const Port& port, std::uint64_t value) {
  if (port.bits.size() > 64) throw PdatError("set_port_uniform: port wider than 64 bits");
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

template <CellKind K>
void BitSim::eval_run(const Cone::Entry* first, const Cone::Entry* last, std::uint64_t* vals) {
  for (; first != last; ++first)
    vals[first->out] = cell_eval64(K, vals[first->a], vals[first->b], vals[first->c]);
}

void BitSim::eval() {
  for (const Flop& f : flops_) vals_[f.q] = flop_q_[f.cell];
  eval(tape_);
}

void BitSim::eval(const Cone& cone) {
  using Kernel = void (*)(const Cone::Entry*, const Cone::Entry*, std::uint64_t*);
  static constexpr auto kKernels = []<std::size_t... K>(std::index_sequence<K...>) {
    return std::array<Kernel, sizeof...(K)>{&eval_run<static_cast<CellKind>(K)>...};
  }(std::make_index_sequence<kNumCellKinds>());
  const Cone::Entry* first = cone.cells_.data();
  for (const Cone::Run& r : cone.runs_) {
    const Cone::Entry* last = cone.cells_.data() + r.end;
    kKernels[static_cast<std::size_t>(r.kind)](first, last, vals_.data());
    first = last;
  }
}

BitSim::Cone BitSim::cone(const std::vector<NetId>& sources) const {
  std::vector<char> fed(vals_.size(), 0);
  for (NetId n : sources) fed[n] = 1;
  Cone out;
  std::uint32_t i = 0;
  for (const Cone::Run& r : tape_.runs_) {
    for (; i < r.end; ++i) {
      const Cone::Entry& e = tape_.cells_[i];
      if (fed[e.a] | fed[e.b] | fed[e.c]) {
        fed[e.out] = 1;
        out.push(r.kind, e);
      }
    }
  }
  return out;
}

void BitSim::latch() {
  for (const Flop& f : flops_) flop_q_[f.cell] = vals_[f.d];
  for (const Flop& f : flops_) vals_[f.q] = flop_q_[f.cell];
}

void BitSim::step() {
  eval();
  latch();
}

std::uint64_t BitSim::read_port(const Port& port, int slot) const {
  if (port.bits.size() > 64) throw PdatError("read_port: port wider than 64 bits");
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

}  // namespace pdat
