#include "netlist/netlist.h"

namespace pdat {

NetId Netlist::new_net() {
  net_driver_.push_back(kNoCell);
  return static_cast<NetId>(net_driver_.size() - 1);
}

std::vector<NetId> Netlist::new_nets(std::size_t n) {
  std::vector<NetId> v(n);
  for (auto& id : v) id = new_net();
  return v;
}

NetId Netlist::add_cell(CellKind kind, NetId a, NetId b, NetId c) {
  NetId out = new_net();
  add_cell_driving(out, kind, a, b, c);
  return out;
}

CellId Netlist::add_cell_driving(NetId out, CellKind kind, NetId a, NetId b, NetId c) {
  if (net_driver_[out] != kNoCell) throw PdatError("net already driven");
  Cell cell;
  cell.kind = kind;
  cell.in = {a, b, c};
  cell.out = out;
  const int n = cell_num_inputs(kind);
  for (int i = 0; i < n; ++i) {
    if (cell.in[static_cast<std::size_t>(i)] == kNoNet) throw PdatError("missing cell input");
  }
  for (int i = n; i < 3; ++i) cell.in[static_cast<std::size_t>(i)] = kNoNet;
  cells_.push_back(cell);
  const CellId id = static_cast<CellId>(cells_.size() - 1);
  net_driver_[out] = id;
  return id;
}

NetId Netlist::const0() {
  // Validate the cache: optimizer passes may have swept the tie cell after
  // its last user disappeared.
  if (const0_ != kNoNet) {
    const CellId d = net_driver_[const0_];
    if (d != kNoCell && !cells_[d].dead) return const0_;
  }
  const0_ = add_cell(CellKind::Const0);
  return const0_;
}

NetId Netlist::const1() {
  if (const1_ != kNoNet) {
    const CellId d = net_driver_[const1_];
    if (d != kNoCell && !cells_[d].dead) return const1_;
  }
  const1_ = add_cell(CellKind::Const1);
  return const1_;
}

std::vector<NetId> Netlist::add_input(const std::string& name, std::size_t width) {
  Port p;
  p.name = name;
  p.bits = new_nets(width);
  for (std::size_t i = 0; i < width; ++i) {
    name_net(p.bits[i], width == 1 ? name : name + "[" + std::to_string(i) + "]");
  }
  inputs_.push_back(p);
  return inputs_.back().bits;
}

void Netlist::add_output(const std::string& name, const std::vector<NetId>& bits) {
  outputs_.push_back(Port{name, bits});
}

void Netlist::name_net(NetId net, const std::string& name) { net_names_[net] = name; }

NetId Netlist::find_net(const std::string& name) const {
  for (const auto& [net, n] : net_names_) {
    if (n == name) return net;
  }
  return kNoNet;
}

const Port* Netlist::find_input(const std::string& name) const {
  for (const auto& p : inputs_)
    if (p.name == name) return &p;
  return nullptr;
}

const Port* Netlist::find_output(const std::string& name) const {
  for (const auto& p : outputs_)
    if (p.name == name) return &p;
  return nullptr;
}

void Netlist::redrive_net(NetId net, CellKind kind, NetId a, NetId b, NetId c) {
  const CellId old = net_driver_[net];
  if (old != kNoCell) {
    // Move the old driver's output to a fresh dangling net.
    NetId dangling = new_net();
    cells_[old].out = dangling;
    net_driver_[dangling] = old;
    net_driver_[net] = kNoCell;
  }
  add_cell_driving(net, kind, a, b, c);
}

NetId Netlist::detach_driver(NetId net) {
  const CellId old = net_driver_[net];
  if (old == kNoCell) return kNoNet;
  const NetId dangling = new_net();
  cells_[old].out = dangling;
  net_driver_[dangling] = old;
  net_driver_[net] = kNoCell;
  return dangling;
}

void Netlist::kill_cell(CellId id) {
  Cell& c = cells_[id];
  if (c.dead) return;
  c.dead = true;
  if (c.out != kNoNet && net_driver_[c.out] == id) net_driver_[c.out] = kNoCell;
}

std::size_t Netlist::gate_count() const {
  std::size_t n = 0;
  for (const auto& c : cells_) {
    if (!c.dead && !cell_is_const(c.kind)) ++n;
  }
  return n;
}

double Netlist::area() const {
  double a = 0;
  for (const auto& c : cells_) {
    if (!c.dead) a += cell_area(c.kind);
  }
  return a;
}

std::size_t Netlist::num_flops() const {
  std::size_t n = 0;
  for (const auto& c : cells_) {
    if (!c.dead && c.kind == CellKind::Dff) ++n;
  }
  return n;
}

std::array<std::size_t, kNumCellKinds> Netlist::kind_histogram() const {
  std::array<std::size_t, kNumCellKinds> h{};
  for (const auto& c : cells_) {
    if (!c.dead) ++h[static_cast<std::size_t>(c.kind)];
  }
  return h;
}

std::vector<CellId> Netlist::live_cells() const {
  std::vector<CellId> v;
  v.reserve(cells_.size());
  for (CellId i = 0; i < cells_.size(); ++i) {
    if (!cells_[i].dead) v.push_back(i);
  }
  return v;
}

std::vector<NetId> Netlist::compact() {
  // Identify used nets: port bits + live-cell pins.
  std::vector<bool> used(net_driver_.size(), false);
  for (const auto& p : inputs_)
    for (NetId n : p.bits) used[n] = true;
  for (const auto& p : outputs_)
    for (NetId n : p.bits) used[n] = true;
  for (const auto& c : cells_) {
    if (c.dead) continue;
    used[c.out] = true;
    for (NetId n : c.in)
      if (n != kNoNet) used[n] = true;
  }

  std::vector<NetId> net_map(net_driver_.size(), kNoNet);
  NetId next = 0;
  for (NetId n = 0; n < net_driver_.size(); ++n) {
    if (used[n]) net_map[n] = next++;
  }

  std::vector<Cell> new_cells;
  new_cells.reserve(cells_.size());
  std::vector<CellId> new_driver(next, kNoCell);
  for (const auto& c : cells_) {
    if (c.dead) continue;
    Cell nc = c;
    nc.out = net_map[c.out];
    for (auto& in : nc.in)
      if (in != kNoNet) in = net_map[in];
    new_cells.push_back(nc);
    new_driver[nc.out] = static_cast<CellId>(new_cells.size() - 1);
  }
  cells_ = std::move(new_cells);
  net_driver_ = std::move(new_driver);
  for (auto& p : inputs_)
    for (auto& n : p.bits) n = net_map[n];
  for (auto& p : outputs_)
    for (auto& n : p.bits) n = net_map[n];

  std::unordered_map<NetId, std::string> new_names;
  for (const auto& [net, name] : net_names_) {
    if (net < net_map.size() && net_map[net] != kNoNet) new_names[net_map[net]] = name;
  }
  net_names_ = std::move(new_names);

  auto remap_tie = [&](NetId old_id) -> NetId {
    if (old_id == kNoNet) return kNoNet;
    const NetId mapped = net_map[old_id];
    if (mapped == kNoNet || net_driver_[mapped] == kNoCell) return kNoNet;
    return mapped;
  };
  const0_ = remap_tie(const0_);
  const1_ = remap_tie(const1_);
  return net_map;
}

}  // namespace pdat
