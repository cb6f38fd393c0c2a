#include "sat/solver.h"

#include <algorithm>
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

}  // namespace

Solver::Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  assigns_.push_back(LBool::Undef);
  polarity_.push_back(false);
  activity_.push_back(0.0);
  reason_.push_back(kNoClause);
  level_.push_back(0);
  seen_.push_back(false);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

Solver::ClauseRef Solver::alloc_clause(const std::vector<Lit>& lits, bool learnt) {
  Clause c;
  c.offset = static_cast<std::uint32_t>(arena_.size());
  c.size = static_cast<std::uint32_t>(lits.size());
  c.learnt = learnt;
  c.activity = 0;
  c.lbd = 0;
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  clauses_.push_back(c);
  return static_cast<ClauseRef>(clauses_.size() - 1);
}

void Solver::attach_clause(ClauseRef cref) {
  const Clause& c = clauses_[cref];
  Lit* lits = &arena_[c.offset];
  watches_[static_cast<std::size_t>((~lits[0]).x)].push_back({cref, lits[1]});
  watches_[static_cast<std::size_t>((~lits[1]).x)].push_back({cref, lits[0]});
}

void Solver::detach_clause(ClauseRef cref) {
  const Clause& c = clauses_[cref];
  Lit* lits = &arena_[c.offset];
  for (int w = 0; w < 2; ++w) {
    auto& ws = watches_[static_cast<std::size_t>((~lits[w]).x)];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].cref == cref) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return false;
  // Log the clause as handed in, before canonicalization: the checker does
  // its own dedup/tautology handling, and dropping root-false literals here
  // is exactly root propagation, which the checker reproduces (its root
  // assignment grows through the same lines in the same order).
  if (drat_ != nullptr) drat_->append(DratLineKind::Original, lits.data(), lits.size());
  if (decision_level() != 0) cancel_until(0);
  std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) { return a.x < b.x; });
  // Remove duplicates; detect tautology.
  std::vector<Lit> out;
  Lit prev;
  for (Lit p : lits) {
    if (p == prev) continue;
    if (p == ~prev) return true;  // tautology
    const LBool v = lit_value(p);
    if (v == LBool::True && level_[static_cast<std::size_t>(p.var())] == 0) return true;
    if (v == LBool::False && level_[static_cast<std::size_t>(p.var())] == 0) {
      prev = p;
      continue;  // falsified at root: drop
    }
    out.push_back(p);
    prev = p;
  }
  if (out.empty()) {
    // Every literal was root-false (or the clause was empty): keep the
    // original literals so a later proof snapshot can re-derive ok_ == false.
    root_conflict_clause_ = lits;
    have_root_conflict_clause_ = true;
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    uncheck_enqueue(out[0], kNoClause);
    ok_ = (propagate() == kNoClause);
    return ok_;
  }
  const ClauseRef cref = alloc_clause(out, false);
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
    const Clause& c = clauses_[cref];
    log->append(DratLineKind::Original, &arena_[c.offset], c.size);
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
  assigns_[v] = p.sign() ? LBool::False : LBool::True;
  reason_[v] = from;
  level_[v] = decision_level();
  trail_.push_back(p);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoClause;
  while (qhead_ < static_cast<int>(trail_.size())) {
    const Lit p = trail_[static_cast<std::size_t>(qhead_++)];
    auto& ws = watches_[static_cast<std::size_t>(p.x)];
    std::size_t i = 0, j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const Watcher w = ws[i++];
      ++propagations_;
      if (lit_value(w.blocker) == LBool::True) {
        ws[j++] = w;
        continue;
      }
      Clause& c = clauses_[w.cref];
      Lit* lits = &arena_[c.offset];
      // Make sure the false literal is lits[1].
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const Lit first = lits[0];
      if (first != w.blocker && lit_value(first) == LBool::True) {
        ws[j++] = {w.cref, first};
        continue;
      }
      // Look for a new watch.
      bool found = false;
      for (std::uint32_t k = 2; k < c.size; ++k) {
        if (lit_value(lits[k]) != LBool::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>((~lits[1]).x)].push_back({w.cref, first});
          found = true;
          break;
        }
      }
      if (found) continue;
      // Clause is unit or conflicting.
      ws[j++] = {w.cref, first};
      if (lit_value(first) == LBool::False) {
        confl = w.cref;
        qhead_ = static_cast<int>(trail_.size());
        while (i < n) ws[j++] = ws[i++];
        break;
      }
      uncheck_enqueue(first, w.cref);
    }
    ws.resize(j);
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

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
                     std::uint32_t& out_lbd) {
  int path_count = 0;
  Lit p;
  p.x = -2;
  out_learnt.clear();
  out_learnt.push_back(p);  // placeholder for UIP
  int index = static_cast<int>(trail_.size()) - 1;

  do {
    Clause& c = clauses_[confl];
    if (c.learnt) c.activity += 1.0f;
    Lit* lits = &arena_[c.offset];
    for (std::uint32_t k = (p.x == -2 ? 0 : 1); k < c.size; ++k) {
      const Lit q = lits[k];
      const auto v = static_cast<std::size_t>(q.var());
      if (!seen_[v] && level_[v] > 0) {
        var_bump(q.var());
        seen_[v] = true;
        if (level_[v] >= decision_level()) {
          ++path_count;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Next literal to look at.
    while (!seen_[static_cast<std::size_t>(trail_[static_cast<std::size_t>(index)].var())]) --index;
    p = trail_[static_cast<std::size_t>(index--)];
    confl = reason_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = false;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Minimize: remove literals implied by the rest. Keep the pre-minimization
  // set around so every seen_ mark is cleared afterwards (a stale mark would
  // corrupt later conflict analyses).
  const std::vector<Lit> pre_minimize = out_learnt;
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[static_cast<std::size_t>(out_learnt[i].var())] & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    const auto v = static_cast<std::size_t>(out_learnt[i].var());
    if (reason_[v] == kNoClause || !lit_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[keep++] = out_learnt[i];
    }
  }
  out_learnt.resize(keep);

  // Compute backtrack level and LBD.
  out_btlevel = 0;
  if (out_learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_[static_cast<std::size_t>(out_learnt[i].var())] >
          level_[static_cast<std::size_t>(out_learnt[max_i].var())])
        max_i = i;
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[static_cast<std::size_t>(out_learnt[1].var())];
  }
  std::vector<int> lvls;
  for (Lit q : out_learnt) lvls.push_back(level_[static_cast<std::size_t>(q.var())]);
  std::sort(lvls.begin(), lvls.end());
  out_lbd = static_cast<std::uint32_t>(std::unique(lvls.begin(), lvls.end()) - lvls.begin());

  for (Lit q : pre_minimize) seen_[static_cast<std::size_t>(q.var())] = false;
}

bool Solver::lit_redundant(Lit p, std::uint32_t abstract_levels) {
  // Iterative DFS checking that p is implied by the learnt clause's literals.
  std::vector<Lit> stack{p};
  std::vector<Var> cleared;
  bool redundant = true;
  while (!stack.empty() && redundant) {
    const Lit q = stack.back();
    stack.pop_back();
    const ClauseRef cr = reason_[static_cast<std::size_t>(q.var())];
    if (cr == kNoClause) {
      redundant = false;
      break;
    }
    const Clause& c = clauses_[cr];
    const Lit* lits = &arena_[c.offset];
    for (std::uint32_t k = 1; k < c.size; ++k) {
      const Lit r = lits[k];
      const auto v = static_cast<std::size_t>(r.var());
      if (seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNoClause || ((1u << (level_[v] & 31)) & abstract_levels) == 0) {
        redundant = false;
        break;
      }
      seen_[v] = true;
      cleared.push_back(r.var());
      stack.push_back(r);
    }
  }
  if (!redundant) {
    for (Var v : cleared) seen_[static_cast<std::size_t>(v)] = false;
  }
  // Note: when redundant, the seen_ marks stay set; they make later
  // redundancy checks cheaper and are cleared with the learnt clause. To be
  // safe we clear them here too.
  if (redundant) {
    for (Var v : cleared) seen_[static_cast<std::size_t>(v)] = false;
  }
  return redundant;
}

void Solver::analyze_final(Lit p) {
  conflict_core_.clear();
  conflict_core_.push_back(p);
  if (decision_level() == 0) return;
  seen_[static_cast<std::size_t>(p.var())] = true;
  for (int i = static_cast<int>(trail_.size()) - 1; i >= trail_lim_[0]; --i) {
    const Lit q = trail_[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::size_t>(q.var());
    if (!seen_[v]) continue;
    const ClauseRef cr = reason_[v];
    if (cr == kNoClause) {
      if (level_[v] > 0) conflict_core_.push_back(~q);
    } else {
      const Clause& c = clauses_[cr];
      const Lit* lits = &arena_[c.offset];
      for (std::uint32_t k = 1; k < c.size; ++k) {
        if (level_[static_cast<std::size_t>(lits[k].var())] > 0)
          seen_[static_cast<std::size_t>(lits[k].var())] = true;
      }
    }
    seen_[v] = false;
  }
  seen_[static_cast<std::size_t>(p.var())] = false;
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
      return Lit(v, polarity_[static_cast<std::size_t>(v)]);
    }
  }
  return Lit();
}

void Solver::reduce_db() {
  ++db_reductions_;
  // Keep the half with lowest LBD (ties by activity).
  std::vector<ClauseRef> sorted = learnts_;
  std::sort(sorted.begin(), sorted.end(), [&](ClauseRef a, ClauseRef b) {
    const Clause& ca = clauses_[a];
    const Clause& cb = clauses_[b];
    if (ca.lbd != cb.lbd) return ca.lbd < cb.lbd;
    return ca.activity > cb.activity;
  });
  std::vector<ClauseRef> keep;
  // Locked clauses (reason for a current assignment) must be kept.
  std::vector<bool> locked(clauses_.size(), false);
  for (Lit p : trail_) {
    const ClauseRef cr = reason_[static_cast<std::size_t>(p.var())];
    if (cr != kNoClause) locked[cr] = true;
  }
  const std::size_t target = sorted.size() / 2;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i < target || locked[sorted[i]] || clauses_[sorted[i]].lbd <= 2) {
      keep.push_back(sorted[i]);
    } else {
      if (drat_ != nullptr) {
        const Clause& c = clauses_[sorted[i]];
        drat_->append(DratLineKind::Delete, &arena_[c.offset], c.size);
      }
      detach_clause(sorted[i]);
    }
  }
  learnts_ = std::move(keep);
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
      std::vector<Lit> learnt;
      int btlevel;
      std::uint32_t lbd;
      analyze(confl, learnt, btlevel, lbd);
      if (corrupt_next_learnt_ && learnt.size() >= 3) {
        // Deliberate mis-learn (test hook): negating the asserting literal
        // records the opposite of what conflict analysis derived, so the
        // logged clause is (almost) never RUP. Size and watch positions are
        // unchanged, so the solver keeps running — just unsoundly.
        learnt[0] = ~learnt[0];
        corrupt_next_learnt_ = false;
      }
      if (drat_ != nullptr) drat_->append(DratLineKind::Add, learnt.data(), learnt.size());
      if (stats_collect_) {
        ++learned_clauses_;
        learned_literals_ += learnt.size();
        trace::observe(trace::Histogram::SatLearnedClauseSize, learnt.size());
        trace::observe(trace::Histogram::SatLearnedClauseLbd, lbd);
      }
      // Never backtrack past the assumptions.
      cancel_until(btlevel);
      if (learnt.size() == 1) {
        // Unit clauses must go to level 0; redo assumptions afterwards.
        cancel_until(0);
        uncheck_enqueue(learnt[0], kNoClause);
      } else {
        const ClauseRef cr = alloc_clause(learnt, true);
        clauses_[cr].lbd = lbd;
        learnts_.push_back(cr);
        attach_clause(cr);
        uncheck_enqueue(learnt[0], cr);
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
