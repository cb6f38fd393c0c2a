#include "sat/solver.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/types.h"
#include "sat/dratcheck.h"
#include "trace/trace.h"

namespace pdat::sat {
namespace {

// Luby restart sequence scaled by `unit`.
std::uint64_t luby(std::uint64_t unit, int i) {
  int size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return unit << seq;
}

// A clause header word, held in an arena slot's raw Lit::x.
Lit header_word(std::uint32_t v) {
  Lit w;
  w.x = static_cast<int>(v);
  return w;
}

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(0);
  activity_.push_back(0.0);
  reason_.push_back(kNoClause);
  level_.push_back(0);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

float Solver::clause_activity(ClauseRef cr) const { return std::bit_cast<float>(arena_[cr + 2].x); }

void Solver::bump_clause(ClauseRef cr) {
  arena_[cr + 2].x = std::bit_cast<int>(clause_activity(cr) + 1.0f);
}

std::span<const Lit> Solver::reason_rest(ClauseRef cr, Var v) const {
  if ((cr & kBinary) != 0) {
    // A binary clause is never reordered; the implied literal is the one on v.
    const Lit* lits = clause_lits(cr & ~kBinary);
    return {lits[0].var() == v ? lits + 1 : lits, 1};
  }
  // A long clause keeps the literal it implied at position 0.
  return {clause_lits(cr) + 1, clause_size(cr) - 1};
}

bool Solver::locked(ClauseRef cr) const {
  const Lit* lits = clause_lits(cr);
  if (clause_size(cr) == 2) {
    const ClauseRef wr = cr | kBinary;
    return reason_[static_cast<std::size_t>(lits[0].var())] == wr ||
           reason_[static_cast<std::size_t>(lits[1].var())] == wr;
  }
  return reason_[static_cast<std::size_t>(lits[0].var())] == cr;
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits, bool learnt, std::uint32_t lbd) {
  const std::size_t cr = arena_.size();
  if (cr + kHeaderWords + lits.size() >= kBinary)
    throw PdatError("sat: the clause arena outgrew 2^31 words");
  arena_.push_back(header_word(static_cast<std::uint32_t>(lits.size())));
  arena_.push_back(header_word((lbd << 1) | (learnt ? 1u : 0u)));
  arena_.push_back(header_word(std::bit_cast<std::uint32_t>(0.0f)));
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  return static_cast<ClauseRef>(cr);
}

void Solver::attach_clause(ClauseRef cref) {
  const Lit* lits = clause_lits(cref);
  const ClauseRef wr = clause_size(cref) == 2 ? cref | kBinary : cref;
  watches_[static_cast<std::size_t>((~lits[0]).x)].push_back({wr, lits[1]});
  watches_[static_cast<std::size_t>((~lits[1]).x)].push_back({wr, lits[0]});
}

void Solver::detach_clause(ClauseRef cref) {
  const Lit* lits = clause_lits(cref);
  const ClauseRef wr = clause_size(cref) == 2 ? cref | kBinary : cref;
  for (int w = 0; w < 2; ++w) {
    auto& ws = watches_[static_cast<std::size_t>((~lits[w]).x)];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == wr) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  // Log the clause as handed in, before canonicalization: the checker does
  // its own dedup/tautology handling, and dropping root-false literals here
  // is exactly root propagation, which the checker reproduces (its root
  // assignment grows through the same lines in the same order).
  if (drat_ != nullptr) drat_->append(DratLineKind::Original, lits.data(), lits.size());
  if (decision_level() != 0) cancel_until(0);
  add_tmp_.assign(lits.begin(), lits.end());
  std::sort(add_tmp_.begin(), add_tmp_.end(), [](Lit a, Lit b) { return a.x < b.x; });
  // Remove duplicates and root-false literals in place; detect tautology.
  std::size_t n = 0;
  Lit prev;
  for (const Lit p : add_tmp_) {
    if (p == prev) continue;
    if (p == ~prev) return true;  // tautology
    const LBool v = lit_value(p);
    if (v == LBool::True && level_[static_cast<std::size_t>(p.var())] == 0) return true;
    if (v == LBool::False && level_[static_cast<std::size_t>(p.var())] == 0) {
      prev = p;
      continue;  // falsified at root: drop
    }
    add_tmp_[n++] = p;
    prev = p;
  }
  if (n == 0) {
    // Every literal was root-false (or the clause was empty). Nothing was
    // written back, so add_tmp_ still holds the sorted input: keep it so a
    // later proof snapshot can re-derive ok_ == false.
    root_conflict_clause_ = add_tmp_;
    have_root_conflict_clause_ = true;
    ok_ = false;
    return false;
  }
  add_tmp_.resize(n);
  if (n == 1) {
    uncheck_enqueue(add_tmp_[0], kNoClause);
    ok_ = (propagate() == kNoClause);
    return ok_;
  }
  const ClauseRef cref = alloc_clause(add_tmp_, false, 0);
  problem_clauses_.push_back(cref);
  attach_clause(cref);
  return true;
}

void Solver::start_proof(DratLog* log) {
  drat_ = log;
  if (log == nullptr) return;
  if (!learnts_.empty())
    throw PdatError("start_proof: solver already holds learnt clauses; the snapshot "
                    "cannot vouch for clauses derived by search");
  if (decision_level() != 0) cancel_until(0);
  // Snapshot the database as Original lines. Root-level *propagated* units
  // (reason != kNoClause) are deliberately omitted: the checker re-derives
  // them itself, keeping the trusted surface to actual input clauses. Units
  // that came in as (canonicalized) unit input clauses have no stored clause
  // to replay, so they are logged directly.
  for (const ClauseRef cref : problem_clauses_) {
    log->append(DratLineKind::Original, clause_lits(cref), clause_size(cref));
  }
  for (const Lit p : trail_) {
    if (reason_[static_cast<std::size_t>(p.var())] == kNoClause)
      log->append(DratLineKind::Original, &p, 1);
  }
  if (!ok_ && have_root_conflict_clause_) {
    log->append(DratLineKind::Original, root_conflict_clause_.data(),
                root_conflict_clause_.size());
  }
}

void Solver::uncheck_enqueue(Lit p, ClauseRef from) {
  const auto v = static_cast<std::size_t>(p.var());
  assigns_[v] = static_cast<LBool>((p.x & 1) ^ 1);
  reason_[v] = from;
  level_[v] = decision_level();
  trail_.push_back(p);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoClause;
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    const Lit false_lit = ~p;
    auto& ws = watches_[static_cast<std::size_t>(p.x)];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i++;
      ++propagations_;
      if (lit_value(w.blocker) == LBool::True) {
        *j++ = w;
        continue;
      }
      if ((w.cref & kBinary) != 0) {
        // The blocker is the other literal: unit or conflicting.
        *j++ = w;
        if (lit_value(w.blocker) == LBool::False) {
          bin_conflict_[0] = w.blocker;
          bin_conflict_[1] = false_lit;
          confl = w.cref;
          qhead_ = static_cast<int>(trail_.size());
          while (i != end) *j++ = *i++;
          break;
        }
        uncheck_enqueue(w.blocker, w.cref);
        continue;
      }
      Lit* lits = clause_lits(w.cref);
      // Make sure the false literal is lits[1].
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const Lit first = lits[0];
      const Watcher kept{w.cref, first};
      if (first != w.blocker && lit_value(first) == LBool::True) {
        *j++ = kept;
        continue;
      }
      // Look for a new watch.
      const std::uint32_t size = clause_size(w.cref);
      bool found = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (lit_value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>((~lits[1]).x)].push_back(kept);
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      *j++ = kept;
      if (lit_value(first) == LBool::False) {
        confl = w.cref;
        qhead_ = static_cast<int>(trail_.size());
        while (i != end) *j++ = *i++;
        break;
      }
      uncheck_enqueue(first, w.cref);
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
    if (confl != kNoClause) break;
  }
  return confl;
}

void Solver::var_bump(Var v) {
  activity_[static_cast<std::size_t>(v)] += var_inc_;
  if (activity_[static_cast<std::size_t>(v)] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) heap_update(v);
}

void Solver::var_decay_all() { var_inc_ /= var_decay_; }

void Solver::analyze(ClauseRef confl, int& out_btlevel, std::uint32_t& out_lbd) {
  int path_count = 0;
  Lit p;
  p.x = -2;
  learnt_.clear();
  learnt_.push_back(p);  // placeholder for UIP
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    const ClauseRef cr = confl & ~kBinary;
    if (clause_learnt(cr)) bump_clause(cr);
    std::span<const Lit> lits;
    if (p.x != -2) {
      lits = reason_rest(confl, p.var());
    } else if ((confl & kBinary) != 0) {
      lits = bin_conflict_;
    } else {
      lits = {clause_lits(cr), clause_size(cr)};
    }
    for (const Lit q : lits) {
      const auto v = static_cast<std::size_t>(q.var());
      if (!seen_[v] && level_[v] > 0) {
        var_bump(q.var());
        seen_[v] = 1;
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          learnt_.push_back(q);
        }
      }
    }
    // Next literal to look at.
    while (!seen_[static_cast<std::size_t>(trail_[static_cast<std::size_t>(index)].var())]) --index;
    p = trail_[static_cast<std::size_t>(index--)];
    confl = reason_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  learnt_[0] = ~p;

  // Minimize: remove literals implied by the rest. analyze_toclear_ collects
  // every seen_ mark left behind: the clause as learnt, plus the literals
  // lit_redundant proved implied (a stale mark would corrupt later analyses).
  analyze_toclear_.assign(learnt_.begin(), learnt_.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    abstract_levels |= 1u << (level_[static_cast<std::size_t>(learnt_[i].var())] & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt_.size(); ++i) {
    const auto v = static_cast<std::size_t>(learnt_[i].var());
    if (reason_[v] == kNoClause || !lit_redundant(learnt_[i], abstract_levels)) {
      learnt_[keep++] = learnt_[i];
    }
  }
  learnt_.resize(keep);

  // Compute backtrack level and LBD.
  out_btlevel = 0;
  if (learnt_.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt_.size(); ++i) {
      if (level_[static_cast<std::size_t>(learnt_[i].var())] >
          level_[static_cast<std::size_t>(learnt_[max_i].var())])
        max_i = i;
    }
    std::swap(learnt_[1], learnt_[max_i]);
    out_btlevel = level_[static_cast<std::size_t>(learnt_[1].var())];
  }
  // LBD: the number of distinct levels, counted by stamping each level.
  if (level_stamp_.size() <= static_cast<std::size_t>(decision_level()))
    level_stamp_.resize(static_cast<std::size_t>(decision_level()) + 1, 0);
  ++lbd_stamp_;
  out_lbd = 0;
  for (const Lit q : learnt_) {
    const int lvl = level_[static_cast<std::size_t>(q.var())];
    std::uint64_t& stamp = level_stamp_[static_cast<std::size_t>(lvl)];
    if (stamp != lbd_stamp_) {
      stamp = lbd_stamp_;
      ++out_lbd;
    }
  }

  for (const Lit q : analyze_toclear_) seen_[static_cast<std::size_t>(q.var())] = 0;
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  // Iterative DFS checking that p is implied by the learnt clause's literals.
  // Every literal pushed has a reason. On success the marks stay (MiniSat's
  // rule): a literal proved implied here is implied for every later check
  // too, so the minimized clause is the same as when each check starts
  // afresh. On failure this call's marks are undone.
  const std::size_t top = analyze_toclear_.size();
  analyze_stack_.clear();
  analyze_stack_.push_back(p);
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    for (const Lit r : reason_rest(reason_[static_cast<std::size_t>(q.var())], q.var())) {
      const auto v = static_cast<std::size_t>(r.var());
      if (seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNoClause || ((1u << (level_[v] & 31)) & abstract_levels) == 0) {
        for (std::size_t i = top; i < analyze_toclear_.size(); ++i)
          seen_[static_cast<std::size_t>(analyze_toclear_[i].var())] = 0;
        analyze_toclear_.resize(top);
        return false;
      }
      seen_[v] = 1;
      analyze_stack_.push_back(r);
      analyze_toclear_.push_back(r);
    }
  }
  return true;
}

void Solver::analyze_final(Lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) return;
  seen_[static_cast<std::size_t>(p.var())] = 1;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[0]; --i) {
    const Lit q = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(q.var());
    if (!seen_[v]) continue;
    const ClauseRef cr = reason_[v];
    if (cr == kNoClause) {
      if (level_[v] > 0) conflict_core_.push_back(~q);
    } else {
      for (const Lit r : reason_rest(cr, q.var())) {
        const auto rv = static_cast<std::size_t>(r.var());
        if (level_[rv] > 0) seen_[rv] = 1;
      }
    }
    seen_[v] = 0;
  }
  seen_[static_cast<std::size_t>(p.var())] = 0;
}

void Solver::cancel_until(int lvl) {
  if (decision_level() <= lvl) return;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[static_cast<std::size_t>(lvl)];
       --i) {
    const auto v = static_cast<std::size_t>(trail_[static_cast<std::size_t>(i)].var());
    assigns_[v] = LBool::Undef;
    polarity_[v] = trail_[static_cast<std::size_t>(i)].sign();
    reason_[v] = kNoClause;
    if (heap_pos_[v] < 0) heap_insert(static_cast<Var>(v));
  }
  trail_.resize(static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(lvl)]));
  trail_lim_.resize(static_cast<std::size_t>(lvl));
  qhead_ = static_cast<int>(trail_.size());
}

Lit Solver::pick_branch_lit() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (assigns_[static_cast<std::size_t>(v)] == LBool::Undef) {
      return Lit(v, polarity_[static_cast<std::size_t>(v)] != 0);
    }
  }
  return Lit();
}

void Solver::reduce_db() {
  ++db_reductions_;
  // Keep the half with lowest LBD (ties by activity).
  std::sort(learnts_.begin(), learnts_.end(), [&](ClauseRef a, ClauseRef b) {
    if (clause_lbd(a) != clause_lbd(b)) return clause_lbd(a) < clause_lbd(b);
    return clause_activity(a) > clause_activity(b);
  });
  // Locked clauses (reason for a current assignment) must be kept.
  const std::size_t target = learnts_.size() / 2;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef cr = learnts_[i];
    if (i < target || locked(cr) || clause_lbd(cr) <= 2) {
      learnts_[keep++] = cr;
    } else {
      if (drat_ != nullptr) drat_->append(DratLineKind::Delete, clause_lits(cr), clause_size(cr));
      detach_clause(cr);
    }
  }
  learnts_.resize(keep);
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions, std::int64_t conflict_budget) {
  SolveLimits limits;
  limits.conflict_budget = conflict_budget;
  return solve(assumptions, limits);
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions, const SolveLimits& limits) {
  // The telemetry check is sampled once per call, not per conflict: the
  // conflict loop reads the cached member and flushes a single delta here.
  stats_collect_ = trace::collecting();
  if (!stats_collect_) return solve_internal(assumptions, limits);

  const std::uint64_t c0 = conflicts_;
  const std::uint64_t d0 = decisions_;
  const std::uint64_t p0 = propagations_;
  const std::uint64_t r0 = restarts_;
  const std::uint64_t db0 = db_reductions_;
  const std::uint64_t lc0 = learned_clauses_;
  const std::uint64_t ll0 = learned_literals_;
  const SolveResult res = solve_internal(assumptions, limits);
  trace::add(trace::Counter::SatSolveCalls, 1);
  switch (res) {
    case SolveResult::Sat: trace::add(trace::Counter::SatSolveSat, 1); break;
    case SolveResult::Unsat: trace::add(trace::Counter::SatSolveUnsat, 1); break;
    case SolveResult::Unknown: trace::add(trace::Counter::SatSolveUnknown, 1); break;
  }
  trace::add(trace::Counter::SatConflicts, conflicts_ - c0);
  trace::add(trace::Counter::SatDecisions, decisions_ - d0);
  trace::add(trace::Counter::SatPropagations, propagations_ - p0);
  trace::add(trace::Counter::SatRestarts, restarts_ - r0);
  trace::add(trace::Counter::SatDbReductions, db_reductions_ - db0);
  trace::add(trace::Counter::SatLearnedClauses, learned_clauses_ - lc0);
  trace::add(trace::Counter::SatLearnedLiterals, learned_literals_ - ll0);
  trace::observe(trace::Histogram::SatConflictsPerCall, conflicts_ - c0);
  return res;
}

SolveResult Solver::solve_internal(const std::vector<Lit>& assumptions, const SolveLimits& limits) {
  if (!ok_) return SolveResult::Unsat;
  cancel_until(0);
  conflict_core_.clear();
  model_.clear();

  const std::int64_t conflict_budget = limits.conflict_budget;

  std::uint64_t start_conflicts = conflicts_;
  int restart_idx = 0;
  std::uint64_t restart_limit = luby(64, restart_idx);
  std::uint64_t restart_base = conflicts_;

  for (;;) {
    const ClauseRef confl = propagate();
    if (confl != kNoClause) {
      ++conflicts_;
      if (decision_level() == 0) {
        ok_ = false;
        return SolveResult::Unsat;
      }
      int btlevel;
      std::uint32_t lbd;
      analyze(confl, btlevel, lbd);
      if (corrupt_next_learnt_ && learnt_.size() >= 3) {
        // Deliberate mis-learn (test hook): negating the asserting literal
        // records the opposite of what conflict analysis derived, so the
        // logged clause is (almost) never RUP. Size and watch positions are
        // unchanged, so the solver keeps running — just unsoundly.
        learnt_[0] = ~learnt_[0];
        corrupt_next_learnt_ = false;
      }
      if (drat_ != nullptr) drat_->append(DratLineKind::Add, learnt_.data(), learnt_.size());
      if (stats_collect_) {
        ++learned_clauses_;
        learned_literals_ += learnt_.size();
        trace::observe(trace::Histogram::SatLearnedClauseSize, learnt_.size());
        trace::observe(trace::Histogram::SatLearnedClauseLbd, lbd);
      }
      // Never backtrack past the assumptions.
      cancel_until(btlevel);
      if (learnt_.size() == 1) {
        // Unit clauses must go to level 0; redo assumptions afterwards.
        cancel_until(0);
        uncheck_enqueue(learnt_[0], kNoClause);
      } else {
        const ClauseRef cr = alloc_clause(learnt_, true, lbd);
        learnts_.push_back(cr);
        attach_clause(cr);
        uncheck_enqueue(learnt_[0], cr);
      }
      var_decay_all();
      if (conflict_budget >= 0 &&
          conflicts_ - start_conflicts >= static_cast<std::uint64_t>(conflict_budget)) {
        cancel_until(0);
        return SolveResult::Unknown;
      }
      // Cooperative interrupt: sampled every 256 conflicts to keep the
      // atomic loads off the hot path.
      if ((conflicts_ & 0xff) == 0) {
        if (limits.interrupt != nullptr && limits.interrupt->load(std::memory_order_relaxed)) {
          cancel_until(0);
          return SolveResult::Unknown;
        }
      }
      if (conflicts_ - restart_base >= restart_limit) {
        ++restart_idx;
        restart_limit = luby(64, restart_idx);
        restart_base = conflicts_;
        ++restarts_;
        cancel_until(0);
      }
      if (learnts_.size() >= max_learnts_) {
        reduce_db();
        max_learnts_ += max_learnts_ / 4;
      }
      continue;
    }

    // No conflict: extend assumptions or decide.
    if (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit p = assumptions[static_cast<std::size_t>(decision_level())];
      const LBool v = lit_value(p);
      if (v == LBool::True) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
        continue;
      }
      if (v == LBool::False) {
        analyze_final(~p);
        cancel_until(0);
        return SolveResult::Unsat;
      }
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      uncheck_enqueue(p, kNoClause);
      continue;
    }

    const Lit next = pick_branch_lit();
    if (next.x == -2) {
      // All variables assigned: SAT.
      model_.assign(assigns_.begin(), assigns_.end());
      cancel_until(0);
      return SolveResult::Sat;
    }
    ++decisions_;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    uncheck_enqueue(next, kNoClause);
  }
}

// --- binary heap keyed by activity -----------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_update(Var v) {
  const int i = heap_pos_[static_cast<std::size_t>(v)];
  if (i >= 0) heap_sift_up(i);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    if (activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(parent)])] >=
        activity_[static_cast<std::size_t>(v)])
      break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_sift_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n &&
        activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child + 1)])] >
            activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child)])])
      ++child;
    if (activity_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(child)])] <=
        activity_[static_cast<std::size_t>(v)])
      break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

}  // namespace pdat::sat
