// CDCL SAT solver in the MiniSat lineage.
//
// Features: two-watched-literal propagation, first-UIP clause learning with
// self-subsumption minimization, VSIDS branching with phase saving, Luby
// restarts, LBD-based learned-clause reduction, incremental solving under
// assumptions, and a per-call conflict budget (the PDAT pipeline treats a
// budget hit as "inconclusive" and conservatively keeps the gate).
//
// Storage: every clause lives in one arena, a 3-word header (size; learnt
// bit | LBD << 1; activity as float bits) followed by its literals, and a
// clause reference is the header's offset. A binary clause propagates from
// its watcher alone: the watcher's reference carries a tag bit and its
// blocker is the other literal, so the search never reads the arena for it.
// Conflict analysis and add_clause work in member scratch buffers and do not
// allocate once those have grown.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace pdat::sat {

using Var = int;

/// Literal: variable with sign, encoded as 2*var + (negated ? 1 : 0).
struct Lit {
  int x = -2;

  Lit() = default;
  Lit(Var v, bool neg) : x(2 * v + (neg ? 1 : 0)) {}

  Var var() const { return x >> 1; }
  bool sign() const { return (x & 1) != 0; }  // true = negated
  Lit operator~() const {
    Lit q;
    q.x = x ^ 1;
    return q;
  }
  bool operator==(const Lit& o) const { return x == o.x; }
  bool operator!=(const Lit& o) const { return x != o.x; }
};

inline Lit mk_lit(Var v, bool neg = false) { return Lit(v, neg); }

enum class LBool : std::uint8_t { False = 0, True = 1, Undef = 2 };

enum class SolveResult { Sat, Unsat, Unknown };

class DratLog;  // sat/dratcheck.h

/// Per-call limits for the supervised proof runtime. The conflict limit is
/// deterministic (a pure function of the solver run); the interrupt flag
/// is not, and callers that need bit-reproducible verdicts must treat a
/// hit on it as "abort everything", never as a per-candidate verdict.
struct SolveLimits {
  std::int64_t conflict_budget = -1;     // < 0 = unlimited
  const std::atomic<bool>* interrupt = nullptr;  // cooperative cancel (SIGINT/SIGTERM)
};

class Solver {
 public:
  Solver();

  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause over current variables. Returns false if the solver is
  /// already in an unsatisfiable state.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(Lit a) { return add_clause(std::span<const Lit>(&a, 1)); }
  bool add_clause(Lit a, Lit b) {
    const Lit c[] = {a, b};
    return add_clause(c);
  }
  bool add_clause(Lit a, Lit b, Lit c) {
    const Lit cl[] = {a, b, c};
    return add_clause(cl);
  }

  /// Solves under assumptions. conflict_budget < 0 means unlimited.
  SolveResult solve(const std::vector<Lit>& assumptions = {}, std::int64_t conflict_budget = -1);

  /// Solves under a full per-call limit set (returns Unknown on the
  /// conflict limit or an interrupt).
  SolveResult solve(const std::vector<Lit>& assumptions, const SolveLimits& limits);

  /// Model access after Sat.
  bool model_value(Var v) const { return model_[static_cast<std::size_t>(v)] == LBool::True; }

  /// After Unsat with assumptions: subset of assumptions used (the "core").
  const std::vector<Lit>& conflict_core() const { return conflict_core_; }

  bool okay() const { return ok_; }

  /// Attaches incremental DRAT proof logging (sat/dratcheck.h). The current
  /// clause database is snapshotted into the log as Original lines (problem
  /// clauses, root-level unit clauses, and the clause that made the solver
  /// unsatisfiable, if any), so logging may be attached to a solver copied
  /// from a shared CNF template. Must be called before any clause has been
  /// learnt — the snapshot cannot vouch for clauses derived by search —
  /// and throws PdatError otherwise. Disabled logging costs one branch per
  /// emission site. Pass nullptr (or call stop_proof) to detach.
  void start_proof(DratLog* log);
  void stop_proof() { drat_ = nullptr; }

  /// Test hook (ISSUE 6 acceptance): deliberately corrupts the next learnt
  /// clause of size >= 3 by dropping its last literal, in both the clause
  /// database and the proof log — a single mis-learnt clause the DRAT
  /// checker must catch. Size < 3 learnts keep the hook armed so the
  /// corruption never turns a binary clause into a bogus unit.
  void test_corrupt_next_learnt() { corrupt_next_learnt_ = true; }

  // Statistics. Cumulative over the solver's lifetime; per-call deltas are
  // flushed to the global telemetry counters (src/trace/) when collection is
  // enabled, one flush per solve() call so the conflict loop stays clean.
  std::uint64_t num_conflicts() const { return conflicts_; }
  std::uint64_t num_decisions() const { return decisions_; }
  std::uint64_t num_propagations() const { return propagations_; }
  std::uint64_t num_restarts() const { return restarts_; }

 private:
  /// Arena offset of a clause's header. In a watcher or a reason, kBinary
  /// marks a binary clause.
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoClause = UINT32_MAX;
  static constexpr ClauseRef kBinary = 1u << 31;
  static constexpr std::uint32_t kHeaderWords = 3;

  struct Watcher {
    ClauseRef cref;
    Lit blocker;  // for a binary clause, always the other literal
  };

  // The clause arena: per clause, kHeaderWords header words followed by the
  // literals. A header word is held in the slot's raw Lit::x.
  std::vector<Lit> arena_;
  std::vector<ClauseRef> learnts_;
  std::vector<ClauseRef> problem_clauses_;

  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit.x
  std::vector<LBool> assigns_;
  std::vector<std::uint8_t> polarity_;  // saved phase (1 = negative)
  std::vector<double> activity_;
  std::vector<ClauseRef> reason_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::vector<std::uint8_t> seen_;
  std::vector<LBool> model_;
  std::vector<Lit> conflict_core_;

  // Scratch buffers, reused across calls.
  std::vector<Lit> add_tmp_;          // add_clause's canonical form
  std::vector<Lit> learnt_;           // analyze's learnt clause
  std::vector<Lit> analyze_stack_;    // lit_redundant's DFS
  std::vector<Lit> analyze_toclear_;  // every seen_ mark analyze leaves
  std::vector<std::uint64_t> level_stamp_;  // LBD: last stamp per level
  std::uint64_t lbd_stamp_ = 0;
  Lit bin_conflict_[2];  // a binary conflict, as [other, ~p]

  // VSIDS order: binary heap keyed by activity.
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;

  // Proof logging (null = off). root_conflict_clause_ preserves the original
  // literals of the add_clause call that canonicalized to the empty clause,
  // so a later start_proof snapshot can still justify ok_ == false.
  DratLog* drat_ = nullptr;
  std::vector<Lit> root_conflict_clause_;
  bool have_root_conflict_clause_ = false;
  bool corrupt_next_learnt_ = false;

  double var_inc_ = 1.0;
  double var_decay_ = 0.95;
  bool ok_ = true;
  int qhead_ = 0;

  std::uint64_t conflicts_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t propagations_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t db_reductions_ = 0;
  std::uint64_t learned_clauses_ = 0;
  std::uint64_t learned_literals_ = 0;
  std::uint64_t max_learnts_ = 8192;
  bool stats_collect_ = false;  // cached trace::collecting() for the current call

  // assigns_ holds False = 0, True = 1, Undef = 2; XOR with the sign flips
  // only the low bit, so Undef reads back as 2 or 3. Compare the result
  // against True or False only.
  LBool lit_value(Lit p) const {
    const auto v = static_cast<std::uint8_t>(assigns_[static_cast<std::size_t>(p.var())]);
    return static_cast<LBool>(v ^ static_cast<std::uint8_t>(p.x & 1));
  }

  // Clause header and literals.
  std::uint32_t clause_size(ClauseRef cr) const { return static_cast<std::uint32_t>(arena_[cr].x); }
  bool clause_learnt(ClauseRef cr) const { return (arena_[cr + 1].x & 1) != 0; }
  std::uint32_t clause_lbd(ClauseRef cr) const {
    return static_cast<std::uint32_t>(arena_[cr + 1].x) >> 1;
  }
  float clause_activity(ClauseRef cr) const;
  void bump_clause(ClauseRef cr);
  Lit* clause_lits(ClauseRef cr) { return &arena_[cr + kHeaderWords]; }
  const Lit* clause_lits(ClauseRef cr) const { return &arena_[cr + kHeaderWords]; }
  /// The literals of reason `cr` other than the one it implied on `v`.
  std::span<const Lit> reason_rest(ClauseRef cr, Var v) const;
  /// Whether clause `cr` is the reason of a current assignment.
  bool locked(ClauseRef cr) const;

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  SolveResult solve_internal(const std::vector<Lit>& assumptions, const SolveLimits& limits);
  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt, std::uint32_t lbd);
  void attach_clause(ClauseRef cref);
  void detach_clause(ClauseRef cref);
  void uncheck_enqueue(Lit p, ClauseRef from);
  ClauseRef propagate();
  void analyze(ClauseRef confl, int& out_btlevel, std::uint32_t& out_lbd);
  void analyze_final(Lit p);
  bool lit_redundant(Lit p, std::uint32_t abstract_levels);
  void cancel_until(int lvl);
  Lit pick_branch_lit();
  void var_bump(Var v);
  void var_decay_all();
  void reduce_db();

  // Heap helpers.
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_sift_up(int i);
  void heap_sift_down(int i);
};

}  // namespace pdat::sat
