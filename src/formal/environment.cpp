#include "formal/environment.h"

#include <unordered_set>

namespace pdat {

NetId cut_net(Netlist& nl, NetId net) {
  nl.detach_driver(net);
  return net;
}

void SampledWordDriver::drive(BitSim& sim, Rng& rng) {
  std::uint64_t slots[64];
  for (auto& s : slots) s = sample_(rng);
  Port tmp;
  tmp.bits = bus_;
  sim.set_port_per_slot(tmp, slots);
}

std::vector<NetId> free_inputs(const Netlist& nl, const Environment& env) {
  std::unordered_set<NetId> owned;
  for (const auto& d : env.drivers) {
    for (NetId n : d->owned_nets()) owned.insert(n);
  }
  std::vector<NetId> free;
  for (const auto& p : nl.inputs()) {
    for (NetId n : p.bits) {
      if (!owned.count(n)) free.push_back(n);
    }
  }
  return free;
}

void drive_inputs(const std::vector<NetId>& free, const Environment& env, BitSim& sim, Rng& rng) {
  for (NetId n : free) sim.set_input(n, rng.next());
  for (const auto& d : env.drivers) d->drive(sim, rng);
}

}  // namespace pdat
