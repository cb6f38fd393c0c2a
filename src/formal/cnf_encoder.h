// Tseitin encoding of netlist time-frames into CNF.
//
// A Frame gives every net a SAT variable; combinational cells become their
// standard CNF definitions. Flop outputs are free state variables within a
// frame; link() ties consecutive frames (next.Q = prev.D) and fix_initial()
// pins a frame's state to the power-on values (X-initialized flops stay
// free, which is the conservative choice for base-case checks). unroll()
// chains those into the k-frame template every formal check starts from,
// and the property helpers below put a GateProperty into such frames.
#pragma once

#include <span>
#include <vector>

#include "formal/property.h"
#include "netlist/levelize.h"
#include "netlist/netlist.h"
#include "sat/solver.h"

namespace pdat {

struct Frame {
  std::vector<sat::Var> net_var;  // indexed by NetId

  sat::Lit lit(NetId n, bool value_true = true) const {
    return sat::mk_lit(net_var[n], !value_true);
  }
};

class FrameEncoder {
 public:
  explicit FrameEncoder(const Netlist& nl);

  /// Creates variables and combinational clauses for one time-frame.
  Frame encode(sat::Solver& s) const;

  /// For every flop: next.Q == prev.D.
  void link(sat::Solver& s, const Frame& prev, const Frame& next) const;

  /// Pins frame state to the initial values; Tri::X flops remain free.
  void fix_initial(sat::Solver& s, const Frame& f) const;

  /// Encodes `frames` linked frames, pins frame 0 to the initial values
  /// when `from_reset` (otherwise its state is free), and asserts every
  /// `assumes` net at every frame. Clauses are emitted frame by frame.
  std::vector<Frame> unroll(sat::Solver& s, int frames, bool from_reset,
                            const std::vector<NetId>& assumes) const;

  const Levelization& levels() const { return lv_; }
  const Netlist& netlist() const { return nl_; }

 private:
  const Netlist& nl_;
  Levelization lv_;
};

/// Emits CNF clauses defining `out = kind(a, b, c)` (combinational kinds).
void encode_cell_cnf(sat::Solver& s, CellKind kind, sat::Lit out, sat::Lit a, sat::Lit b,
                     sat::Lit c);

/// Creates a fresh aux literal with aux -> "`p` is violated in `f`".
/// Assuming it asks the solver for a violation; adding ~aux retires it.
sat::Lit make_violation_aux(sat::Solver& s, const GateProperty& p, const Frame& f);

/// Returns literals whose conjunction asserts `p` in every frame of
/// `frames`. A constant is its own net literal in each frame. An
/// implication or equivalence gets one fresh activation literal `act`, with
/// clauses act -> "`p` holds" per frame. Assuming the literals asserts the
/// hypothesis and dropping them retracts it; adding them as unit clauses
/// asserts it for good.
std::vector<sat::Lit> make_hypothesis(sat::Solver& s, const GateProperty& p,
                                      std::span<const Frame> frames);

/// True iff the solver's last model violates `p` in frame `f`.
bool violated_in_model(const sat::Solver& s, const GateProperty& p, const Frame& f);

}  // namespace pdat
