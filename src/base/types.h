// Fundamental identifier and error types shared across the PDAT codebase.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace pdat {

/// Index of a net in a Netlist. Nets are single-bit wires.
using NetId = std::uint32_t;
/// Index of a cell (gate or flip-flop) in a Netlist.
using CellId = std::uint32_t;

/// Sentinel for "no net" / "no cell".
inline constexpr NetId kNoNet = std::numeric_limits<NetId>::max();
inline constexpr CellId kNoCell = std::numeric_limits<CellId>::max();

/// Thrown on malformed netlists, bad parses, or API misuse.
class PdatError : public std::runtime_error {
 public:
  explicit PdatError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a proof cannot be vouched for: a --certify DRAT check fails
/// (a line is not RUP, a model falsifies a clause, an UNSAT core is not
/// derivable) or the induction engine's independent check refutes the set
/// it would return. Never downgraded to a conservative drop — the solver,
/// the checker or the engine is wrong, and the pipeline must stop.
class CertificationError : public PdatError {
 public:
  explicit CertificationError(const std::string& what) : PdatError(what) {}
};

/// Three-valued logic: flop initial values (X = unknown power-on state) and
/// cell_eval_tri, which constant propagation folds with.
enum class Tri : std::uint8_t { F = 0, T = 1, X = 2 };

inline Tri tri_not(Tri a) {
  if (a == Tri::X) return Tri::X;
  return a == Tri::T ? Tri::F : Tri::T;
}

inline Tri tri_and(Tri a, Tri b) {
  if (a == Tri::F || b == Tri::F) return Tri::F;
  if (a == Tri::T && b == Tri::T) return Tri::T;
  return Tri::X;
}

inline Tri tri_or(Tri a, Tri b) {
  if (a == Tri::T || b == Tri::T) return Tri::T;
  if (a == Tri::F && b == Tri::F) return Tri::F;
  return Tri::X;
}

inline Tri tri_xor(Tri a, Tri b) {
  if (a == Tri::X || b == Tri::X) return Tri::X;
  return a == b ? Tri::F : Tri::T;
}

inline Tri tri_mux(Tri s, Tri a, Tri b) {
  if (s == Tri::F) return a;
  if (s == Tri::T) return b;
  return a == b ? a : Tri::X;  // X select: defined only if both sides agree
}

inline char tri_char(Tri t) { return t == Tri::F ? '0' : (t == Tri::T ? '1' : 'x'); }

}  // namespace pdat
