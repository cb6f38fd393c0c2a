// Environment restrictions (paper §IV.3).
//
// An Environment constrains all analyses: `assumes` lists nets that must be
// logic-1 in every cycle (these are outputs of constraint circuits built
// into the *analysis copy* of the netlist, e.g. "instr port holds an
// instruction from the target ISA subset"). `drivers` provide matching
// stimulus for the constrained inputs so that candidate-filtering simulation
// explores only allowed executions.
//
// Cutpoint-based constraints (paper §V) are applied by cut_net(): the net is
// detached from its real driver and becomes a free input that constraint
// circuits can then restrict.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "netlist/netlist.h"
#include "sim/bitsim.h"

namespace pdat {

/// Drives some primary-input (or cutpoint) nets each simulated cycle with
/// values satisfying the environment restriction.
class StimulusDriver {
 public:
  virtual ~StimulusDriver() = default;
  virtual void drive(BitSim& sim, Rng& rng) = 0;
  /// Nets this driver owns (so the default random driver skips them).
  virtual std::vector<NetId> owned_nets() const = 0;
  /// Deep copy, including any sequencing state. The parallel proof engine
  /// gives every proof job its own driver copies so that stateful stimulus
  /// stays deterministic (and race-free) regardless of worker count.
  virtual std::unique_ptr<StimulusDriver> clone() const = 0;
};

struct Environment {
  std::vector<NetId> assumes;
  std::vector<std::shared_ptr<StimulusDriver>> drivers;

  void add_assume(NetId n) { assumes.push_back(n); }
};

/// Deep-copies an environment (drivers cloned, not shared).
inline Environment clone_environment(const Environment& env) {
  Environment out;
  out.assumes = env.assumes;
  out.drivers.reserve(env.drivers.size());
  for (const auto& d : env.drivers) out.drivers.push_back(d->clone());
  return out;
}

/// Detaches `net` from its driver, turning it into a free (cutpoint) net.
/// The old driver keeps evaluating into a dangling net. Returns `net`.
NetId cut_net(Netlist& nl, NetId net);

/// Convenience driver: drives a fixed set of nets with uniform random bits.
class RandomDriver final : public StimulusDriver {
 public:
  explicit RandomDriver(std::vector<NetId> nets) : nets_(std::move(nets)) {}
  void drive(BitSim& sim, Rng& rng) override {
    for (NetId n : nets_) sim.set_input(n, rng.next());
  }
  std::vector<NetId> owned_nets() const override { return nets_; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<RandomDriver>(*this);
  }

 private:
  std::vector<NetId> nets_;
};

/// Ties nets to fixed values during candidate-filtering simulation (e.g. a
/// disabled interrupt or debug-enable input).
class ConstantDriver final : public StimulusDriver {
 public:
  ConstantDriver(std::vector<NetId> nets, bool value) : nets_(std::move(nets)), value_(value) {}
  void drive(BitSim& sim, Rng&) override {
    for (NetId n : nets_) sim.set_input(n, value_ ? ~0ULL : 0);
  }
  std::vector<NetId> owned_nets() const override { return nets_; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<ConstantDriver>(*this);
  }

 private:
  std::vector<NetId> nets_;
  bool value_;
};

/// Drives a bus by sampling 32-bit words from a user-supplied generator
/// (e.g. an ISA-subset instruction sampler), one independent draw per slot.
class SampledWordDriver final : public StimulusDriver {
 public:
  SampledWordDriver(std::vector<NetId> bus, std::function<std::uint64_t(Rng&)> sample)
      : bus_(std::move(bus)), sample_(std::move(sample)) {}
  void drive(BitSim& sim, Rng& rng) override;
  std::vector<NetId> owned_nets() const override { return bus_; }
  std::unique_ptr<StimulusDriver> clone() const override {
    return std::make_unique<SampledWordDriver>(*this);
  }

 private:
  std::vector<NetId> bus_;
  std::function<std::uint64_t(Rng&)> sample_;
};

/// The primary-input bits no environment driver owns, in port order: the
/// nets drive_inputs randomizes. A cut net is not a primary input: its
/// restriction's driver must own it (run_pdat rejects a restriction that
/// leaves one unowned). Compute it once per simulation loop.
std::vector<NetId> free_inputs(const Netlist& nl, const Environment& env);

/// Drives every net of `free` (from free_inputs) with uniform random bits,
/// in order, then runs the environment drivers.
void drive_inputs(const std::vector<NetId>& free, const Environment& env, BitSim& sim, Rng& rng);

}  // namespace pdat
