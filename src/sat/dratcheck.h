// Independent DRAT/RUP proof checking for the CDCL solver (ISSUE 6).
//
// The solver, when a DratLog is attached via Solver::start_proof, emits an
// operational DRAT trace: every original clause as it is added, every learnt
// clause (a RUP addition), and every learnt clause it deletes. DratChecker
// replays that trace with its own clause store, watch lists, and unit
// propagation — it shares nothing with the solver beyond the Lit encoding —
// and accepts an addition only when the clause is RUP (assuming its negation
// and propagating yields a conflict). On top of the checker, CertifySession
// certifies individual solve() verdicts:
//
//   Unsat  — the reported conflict core (or, with no assumptions, the empty
//            clause) must itself be RUP against the checked database;
//   Sat    — the returned model must satisfy every original clause ever
//            logged, and every assumption (checked directly against the log,
//            no propagation involved);
//   Unknown — no verdict to certify, but the trace emitted so far must
//            still check, so a mis-learnt clause cannot poison later calls.
//
// A failed check throws CertificationError: the pipeline treats it as a hard
// stage failure, never as a conservative drop, because it means either the
// solver or the checker is wrong about a fact that gates hold netlist edits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sat/solver.h"

namespace pdat::sat {

enum class DratLineKind : std::uint8_t {
  Original = 0,  // input clause, installed without checking
  Add = 1,       // learnt clause, must be RUP
  Delete = 2,    // learnt clause removed from the solver's database
};

/// Append-only in-memory DRAT trace. Flat storage (one literal vector plus
/// per-line offsets) so logging from the solver's conflict loop is a pair of
/// vector appends and disabled logging costs a single branch.
class DratLog {
 public:
  void append(DratLineKind kind, const Lit* lits, std::size_t n) {
    kinds_.push_back(kind);
    starts_.push_back(static_cast<std::uint32_t>(lits_.size()));
    lits_.insert(lits_.end(), lits, lits + n);
  }

  std::size_t num_lines() const { return kinds_.size(); }
  DratLineKind kind(std::size_t line) const { return kinds_[line]; }
  const Lit* line_lits(std::size_t line) const { return lits_.data() + starts_[line]; }
  std::size_t line_size(std::size_t line) const {
    const std::size_t end = line + 1 < starts_.size() ? starts_[line + 1] : lits_.size();
    return end - starts_[line];
  }

  /// Wire-footprint estimate used by the cert.proof_bytes counter.
  std::size_t byte_size() const { return lits_.size() * sizeof(Lit) + kinds_.size(); }

  void clear() {
    lits_.clear();
    starts_.clear();
    kinds_.clear();
  }

 private:
  std::vector<Lit> lits_;
  std::vector<std::uint32_t> starts_;
  std::vector<DratLineKind> kinds_;
};

/// Forward RUP/DRAT checker with its own two-watched-literal propagation.
/// Deletions follow operational DRAT semantics: removing a clause never
/// retracts root assignments it already produced (the solver has the same
/// behaviour — it only deletes unlocked learnt clauses).
class DratChecker {
 public:
  /// Replays log lines [from, log.num_lines()). Returns false — with a
  /// diagnostic in error() — as soon as an Add line fails its RUP check.
  bool consume(const DratLog& log, std::size_t from);

  /// RUP check of an arbitrary clause against the current database; does not
  /// install the clause. Trivially true once a root conflict was derived.
  bool check_rup(const Lit* lits, std::size_t n);
  bool check_rup(const std::vector<Lit>& lits) { return check_rup(lits.data(), lits.size()); }

  /// The replayed database derived the empty clause (root-level conflict).
  bool root_conflict() const { return root_conflict_; }

  const std::string& error() const { return error_; }

 private:
  enum class Val : std::uint8_t { False = 0, True = 1, Undef = 2 };

  struct CClause {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    bool attached = false;
    bool live = true;
  };

  void ensure_var(Var v);
  Val value(Lit p) const {
    const Val v = assigns_[static_cast<std::size_t>(p.var())];
    if (v == Val::Undef) return Val::Undef;
    return (v == Val::True) != p.sign() ? Val::True : Val::False;
  }
  void enqueue(Lit p) {
    assigns_[static_cast<std::size_t>(p.var())] = p.sign() ? Val::False : Val::True;
    trail_.push_back(p);
  }
  void unwind(std::size_t mark);
  bool propagate();  // returns true on conflict
  void install(const Lit* lits, std::size_t n);
  void remove(const Lit* lits, std::size_t n);
  static std::uint64_t clause_hash(const std::vector<Lit>& sorted);

  std::vector<Lit> arena_;
  std::vector<CClause> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;  // indexed by Lit.x
  std::vector<Val> assigns_;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  bool root_conflict_ = false;
  std::string error_;
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_content_;
  std::vector<Lit> canon_;  // scratch
};

/// Re-evaluates every Original line of `log` under `model` (indexed by Var;
/// true = positive). Returns false and describes the first falsified clause.
bool verify_model(const DratLog& log, const std::vector<bool>& model, std::string* error);

/// Attaches proof logging to a solver for its scope and certifies verdicts.
///
/// Construction snapshots the solver's current clause database into the log
/// (Solver::start_proof), so sessions may wrap solvers copied from a shared
/// CNF template; destruction detaches logging. After each solve() call the
/// owner passes the verdict (and the assumptions used) to check(), which
/// replays the new trace suffix and certifies the verdict as described in
/// the file header. Throws pdat::CertificationError on any mismatch.
class CertifySession {
 public:
  explicit CertifySession(Solver& s);
  ~CertifySession();
  CertifySession(const CertifySession&) = delete;
  CertifySession& operator=(const CertifySession&) = delete;

  /// Certifies the verdict of the immediately preceding solve() call.
  /// `where` names the proof obligation in diagnostics.
  void check(SolveResult result, const std::vector<Lit>& assumptions, const char* where);

  const DratLog& log() const { return log_; }

 private:
  Solver& solver_;
  DratLog log_;
  DratChecker checker_;
  std::size_t consumed_lines_ = 0;
  std::size_t consumed_bytes_ = 0;
};

}  // namespace pdat::sat
