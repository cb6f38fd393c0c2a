#include "sat/dratcheck.h"

#include <algorithm>
#include <chrono>

#include "base/types.h"
#include "trace/trace.h"

namespace pdat::sat {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

void sort_unique(std::vector<Lit>& lits) {
  std::sort(lits.begin(), lits.end(), [](Lit a, Lit b) { return a.x < b.x; });
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
}

}  // namespace

// --- DratChecker ------------------------------------------------------------

void DratChecker::ensure_var(Var v) {
  const std::size_t need = static_cast<std::size_t>(v) + 1;
  if (assigns_.size() >= need) return;
  assigns_.resize(need, Val::Undef);
  watches_.resize(2 * need);
}

void DratChecker::unwind(std::size_t mark) {
  for (std::size_t i = trail_.size(); i > mark; --i)
    assigns_[static_cast<std::size_t>(trail_[i - 1].var())] = Val::Undef;
  trail_.resize(mark);
  qhead_ = mark;
}

bool DratChecker::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    auto& ws = watches_[static_cast<std::size_t>(p.x)];
    std::size_t i = 0, j = 0;
    const std::size_t n = ws.size();
    while (i < n) {
      const std::uint32_t id = ws[i++];
      CClause& c = clauses_[id];
      Lit* lits = &arena_[c.offset];
      const Lit false_lit = ~p;
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      const Lit first = lits[0];
      if (value(first) == Val::True) {
        ws[j++] = id;
        continue;
      }
      bool found = false;
      for (std::uint32_t k = 2; k < c.size; ++k) {
        if (value(lits[k]) != Val::False) {
          std::swap(lits[1], lits[k]);
          watches_[static_cast<std::size_t>((~lits[1]).x)].push_back(id);
          found = true;
          break;
        }
      }
      if (found) continue;
      ws[j++] = id;
      if (value(first) == Val::False) {
        while (i < n) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return true;
      }
      enqueue(first);
    }
    ws.resize(j);
  }
  return false;
}

void DratChecker::install(const Lit* lits, std::size_t n) {
  canon_.assign(lits, lits + n);
  sort_unique(canon_);
  for (const Lit p : canon_) ensure_var(p.var());
  bool tautology = false;
  for (std::size_t i = 0; i + 1 < canon_.size(); ++i) {
    if (canon_[i + 1] == ~canon_[i]) {
      tautology = true;
      break;
    }
  }

  CClause c;
  c.offset = static_cast<std::uint32_t>(arena_.size());
  c.size = static_cast<std::uint32_t>(canon_.size());
  arena_.insert(arena_.end(), canon_.begin(), canon_.end());
  const auto id = static_cast<std::uint32_t>(clauses_.size());
  clauses_.push_back(c);
  by_content_.emplace(clause_hash(canon_), id);

  // A tautology never propagates; once the empty clause is derived nothing
  // else matters. Either way the clause stays recorded for deletion matching.
  if (tautology || root_conflict_) return;

  Lit* a = &arena_[clauses_[id].offset];
  int nf0 = -1, nf1 = -1;
  for (std::uint32_t k = 0; k < clauses_[id].size; ++k) {
    const Val v = value(a[k]);
    if (v == Val::True) return;  // satisfied at root forever: no attach needed
    if (v == Val::Undef) {
      if (nf0 < 0) {
        nf0 = static_cast<int>(k);
      } else if (nf1 < 0) {
        nf1 = static_cast<int>(k);
      }
    }
  }
  if (nf0 < 0) {
    root_conflict_ = true;
    return;
  }
  if (nf1 < 0) {
    enqueue(a[nf0]);
    if (propagate()) root_conflict_ = true;
    return;
  }
  std::swap(a[0], a[static_cast<std::size_t>(nf0)]);
  std::swap(a[1], a[static_cast<std::size_t>(nf1)]);
  clauses_[id].attached = true;
  watches_[static_cast<std::size_t>((~a[0]).x)].push_back(id);
  watches_[static_cast<std::size_t>((~a[1]).x)].push_back(id);
}

void DratChecker::remove(const Lit* lits, std::size_t n) {
  canon_.assign(lits, lits + n);
  sort_unique(canon_);
  const std::uint64_t h = clause_hash(canon_);
  auto range = by_content_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    CClause& c = clauses_[it->second];
    if (!c.live || c.size != canon_.size()) continue;
    std::vector<Lit> have(arena_.begin() + c.offset, arena_.begin() + c.offset + c.size);
    std::sort(have.begin(), have.end(), [](Lit a, Lit b) { return a.x < b.x; });
    if (!std::equal(have.begin(), have.end(), canon_.begin(),
                    [](Lit a, Lit b) { return a.x == b.x; }))
      continue;
    c.live = false;
    if (c.attached) {
      const Lit* a = &arena_[c.offset];
      for (int w = 0; w < 2; ++w) {
        auto& ws = watches_[static_cast<std::size_t>((~a[w]).x)];
        for (std::size_t i = 0; i < ws.size(); ++i) {
          if (ws[i] == it->second) {
            ws[i] = ws.back();
            ws.pop_back();
            break;
          }
        }
      }
      c.attached = false;
    }
    by_content_.erase(it);
    return;
  }
  // Unmatched deletion: ignored, like standard DRAT tools (the solver may
  // legitimately delete a clause the checker folded into a root assignment).
}

std::uint64_t DratChecker::clause_hash(const std::vector<Lit>& sorted) {
  std::uint64_t h = kFnvOffset;
  for (const Lit p : sorted)
    h = fnv_mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)));
  return h;
}

bool DratChecker::check_rup(const Lit* lits, std::size_t n) {
  if (root_conflict_) return true;
  const std::size_t mark = trail_.size();
  bool conflict = false;
  for (std::size_t i = 0; i < n && !conflict; ++i) {
    ensure_var(lits[i].var());
    switch (value(lits[i])) {
      case Val::True:
        conflict = true;  // negating a root-true literal conflicts immediately
        break;
      case Val::False:
        break;  // negation already holds
      case Val::Undef:
        enqueue(~lits[i]);
        break;
    }
  }
  if (!conflict) conflict = propagate();
  unwind(mark);
  return conflict;
}

bool DratChecker::consume(const DratLog& log, std::size_t from) {
  for (std::size_t i = from; i < log.num_lines(); ++i) {
    const Lit* lits = log.line_lits(i);
    const std::size_t n = log.line_size(i);
    switch (log.kind(i)) {
      case DratLineKind::Original:
        install(lits, n);
        break;
      case DratLineKind::Add:
        if (!check_rup(lits, n)) {
          error_ = "DRAT line " + std::to_string(i) + ": learnt clause of size " +
                   std::to_string(n) + " is not RUP";
          return false;
        }
        install(lits, n);
        break;
      case DratLineKind::Delete:
        remove(lits, n);
        break;
    }
  }
  return true;
}

// --- model verification -----------------------------------------------------

bool verify_model(const DratLog& log, const std::vector<bool>& model, std::string* error) {
  for (std::size_t i = 0; i < log.num_lines(); ++i) {
    if (log.kind(i) != DratLineKind::Original) continue;
    const Lit* lits = log.line_lits(i);
    const std::size_t n = log.line_size(i);
    bool satisfied = false;
    for (std::size_t k = 0; k < n && !satisfied; ++k) {
      const auto v = static_cast<std::size_t>(lits[k].var());
      const bool val = v < model.size() && model[v];
      satisfied = val != lits[k].sign();
    }
    if (!satisfied) {
      if (error != nullptr)
        *error = "model falsifies the original clause at DRAT line " + std::to_string(i);
      return false;
    }
  }
  return true;
}

// --- CertifySession ---------------------------------------------------------

CertifySession::CertifySession(Solver& s) : solver_(s) { s.start_proof(&log_); }

CertifySession::~CertifySession() { solver_.stop_proof(); }

void CertifySession::check(SolveResult result, const std::vector<Lit>& assumptions,
                           const char* where) {
  const auto t0 = std::chrono::steady_clock::now();
  trace::add(trace::Counter::CertCertificatesEmitted, 1);
  const std::size_t from = consumed_lines_;
  const std::size_t to = log_.num_lines();
  std::string detail;
  bool ok = checker_.consume(log_, from);
  if (!ok) detail = checker_.error();
  consumed_lines_ = to;
  trace::add(trace::Counter::CertProofBytes,
             static_cast<std::uint64_t>(log_.byte_size() - consumed_bytes_));
  consumed_bytes_ = log_.byte_size();
  trace::observe(trace::Histogram::CertProofLines, static_cast<std::uint64_t>(to - from));

  if (ok) {
    switch (result) {
      case SolveResult::Unsat: {
        const std::vector<Lit>& core = solver_.conflict_core();
        if (core.empty() || !solver_.okay()) {
          // Unconditional UNSAT: the checker must have derived the empty
          // clause while replaying the trace.
          if (!checker_.root_conflict()) {
            ok = false;
            detail = "solver reports UNSAT but the checker cannot derive the empty clause";
          }
        } else if (!checker_.check_rup(core)) {
          ok = false;
          detail = "conflict core of size " + std::to_string(core.size()) + " is not RUP";
        }
        break;
      }
      case SolveResult::Sat: {
        std::vector<bool> model(static_cast<std::size_t>(solver_.num_vars()));
        for (Var v = 0; v < solver_.num_vars(); ++v)
          model[static_cast<std::size_t>(v)] = solver_.model_value(v);
        if (!verify_model(log_, model, &detail)) ok = false;
        for (std::size_t i = 0; ok && i < assumptions.size(); ++i) {
          if (model[static_cast<std::size_t>(assumptions[i].var())] == assumptions[i].sign()) {
            ok = false;
            detail = "model violates assumption " + std::to_string(i);
          }
        }
        break;
      }
      case SolveResult::Unknown:
        break;  // no verdict to certify; the trace itself was checked above
    }
  }

  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  trace::observe(trace::Histogram::CertCheckMicros, static_cast<std::uint64_t>(micros));
  if (!ok) {
    trace::add(trace::Counter::CertCertificatesFailed, 1);
    throw CertificationError(std::string("certification failed (") + where + "): " + detail);
  }
  trace::add(trace::Counter::CertCertificatesChecked, 1);
}

}  // namespace pdat::sat
