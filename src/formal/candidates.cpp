#include "formal/candidates.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "netlist/levelize.h"
#include "trace/trace.h"

namespace pdat {

SimFilterResult sim_filter(const Netlist& nl, const Environment& env,
                           std::vector<GateProperty> candidates, const SimFilterOptions& opt) {
  SimFilterResult res;
  trace::Span span("candidates.sim_filter",
                   {"candidates", static_cast<std::int64_t>(candidates.size())},
                   {"restarts", opt.restarts}, {"cycles", opt.cycles});
  BitSim sim(nl);
  Rng rng(opt.seed);
  const std::vector<NetId> free = free_inputs(nl, env);

  // Indices of the candidates no cycle has violated yet, ascending.
  std::vector<std::size_t> alive(candidates.size());
  std::iota(alive.begin(), alive.end(), 0);
  for (int r = 0; r < opt.restarts; ++r) {
    sim.reset();
    for (int cyc = 0; cyc < opt.cycles; ++cyc) {
      drive_inputs(free, env, sim, rng);
      sim.eval();
      if (!assumes_hold(sim, env)) {
        ++res.assume_violation_cycles;
      } else {
        std::erase_if(alive, [&](std::size_t i) { return violated_in_sim(sim, candidates[i]); });
      }
      // Advance state (uses the values already evaluated this cycle).
      sim.latch();
    }
  }

  for (const std::size_t i : alive) res.survivors.push_back(candidates[i]);
  res.dropped = candidates.size() - alive.size();
  trace::add(trace::Counter::SimFilterCycles,
             static_cast<std::uint64_t>(opt.restarts) * static_cast<std::uint64_t>(opt.cycles));
  trace::add(trace::Counter::SimFilterAssumeViolationCycles,
             static_cast<std::uint64_t>(res.assume_violation_cycles));
  trace::add(trace::Counter::SimFilterDropped, static_cast<std::uint64_t>(res.dropped));
  span.arg("dropped", res.dropped);
  return res;
}

std::vector<GateProperty> equivalence_candidates(const Netlist& nl, const Environment& env,
                                                 std::size_t design_nets,
                                                 const SimFilterOptions& opt) {
  constexpr std::size_t kMaxClassSize = 64;  // ignore huge signature classes
  trace::Span span("candidates.equivalence");
  BitSim sim(nl);
  const Levelization& lv = sim.levels();
  Rng rng(opt.seed ^ 0xE9);
  const std::vector<NetId> free = free_inputs(nl, env);

  // Candidate nets: design-net outputs of non-tie cells.
  std::vector<NetId> nets;
  for (CellId id : nl.live_cells()) {
    const Cell& c = nl.cell(id);
    if (cell_is_const(c.kind) || c.out >= design_nets) continue;
    nets.push_back(c.out);
  }

  // Signatures: multiply-xor fold of the sampled 64-slot words over all
  // environment-consistent cycles.
  std::vector<std::uint64_t> sig(nl.num_nets(), 0x9e3779b97f4a7c15ULL);
  for (int r = 0; r < opt.restarts; ++r) {
    sim.reset();
    for (int cyc = 0; cyc < opt.cycles; ++cyc) {
      drive_inputs(free, env, sim, rng);
      sim.eval();
      if (assumes_hold(sim, env)) {
        for (NetId n : nets) {
          sig[n] = (sig[n] ^ sim.value(n)) * 0x100000001b3ULL;
        }
      }
      sim.latch();
    }
  }

  std::unordered_map<std::uint64_t, std::vector<NetId>> classes;
  for (NetId n : nets) classes[sig[n]].push_back(n);

  // Canonical emission order: classes sorted by representative net, members
  // by (level, id). unordered_map iteration order is implementation-defined;
  // the candidate list must be byte-identical for a given seed on any
  // standard library (it feeds proof batching and journal fingerprints).
  std::vector<std::vector<NetId>*> ordered;
  std::uint64_t used_classes = 0;
  for (auto& [key, members] : classes) {
    if (members.size() < 2 || members.size() > kMaxClassSize) continue;
    ++used_classes;
    // Representative: minimal (level, id). Equal signatures can still be
    // hash collisions or coincidences — SAT decides later.
    std::sort(members.begin(), members.end(), [&](NetId x, NetId y) {
      if (lv.net_level[x] != lv.net_level[y]) return lv.net_level[x] < lv.net_level[y];
      return x < y;
    });
    ordered.push_back(&members);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const std::vector<NetId>* x, const std::vector<NetId>* y) {
              return x->front() < y->front();
            });

  std::vector<GateProperty> out;
  for (const std::vector<NetId>* cls : ordered) {
    const std::vector<NetId>& members = *cls;
    const NetId rep = members.front();
    for (std::size_t i = 1; i < members.size(); ++i) {
      GateProperty p;
      p.kind = PropKind::Equiv;
      p.a = rep;
      p.b = members[i];
      p.cell = nl.driver(members[i]);
      out.push_back(p);
    }
  }
  trace::add(trace::Counter::EquivClasses, used_classes);
  trace::add(trace::Counter::EquivCandidates, out.size());
  span.arg("classes", static_cast<std::int64_t>(used_classes));
  span.arg("candidates", static_cast<std::int64_t>(out.size()));
  return out;
}

}  // namespace pdat
