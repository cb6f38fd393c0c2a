#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sat/solver.h"

namespace pdat::sat {
namespace {

TEST(Sat, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Sat, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  s.add_clause(~mk_lit(a));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, EmptyProblemIsSat) {
  Solver s;
  s.new_var();
  EXPECT_EQ(s.solve(), SolveResult::Sat);
}

TEST(Sat, ImplicationChainPropagates) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i) s.add_clause(~mk_lit(v[i]), mk_lit(v[i + 1]));
  s.add_clause(mk_lit(v[0]));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.model_value(v[i]));
}

TEST(Sat, XorChainParity) {
  // x0 ^ x1 ^ ... ^ x7 = 1 encoded pairwise; solution must have odd parity.
  Solver s;
  std::vector<Var> x;
  for (int i = 0; i < 8; ++i) x.push_back(s.new_var());
  std::vector<Var> acc{x[0]};
  for (int i = 1; i < 8; ++i) {
    const Var t = s.new_var();
    const Lit a = mk_lit(acc.back()), b = mk_lit(x[i]), o = mk_lit(t);
    s.add_clause(~o, a, b);
    s.add_clause(~o, ~a, ~b);
    s.add_clause(o, ~a, b);
    s.add_clause(o, a, ~b);
    acc.push_back(t);
  }
  s.add_clause(mk_lit(acc.back()));
  ASSERT_EQ(s.solve(), SolveResult::Sat);
  int parity = 0;
  for (int i = 0; i < 8; ++i) parity ^= s.model_value(x[i]) ? 1 : 0;
  EXPECT_EQ(parity, 1);
}

// Pigeonhole principle: n+1 pigeons in n holes is UNSAT and needs real
// conflict analysis to close.
TEST(Sat, Pigeonhole4) {
  Solver s;
  const int holes = 4, pigeons = 5;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(mk_lit(p[i][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h) {
    for (int i = 0; i < pigeons; ++i) {
      for (int j = i + 1; j < pigeons; ++j) {
        s.add_clause(~mk_lit(p[i][h]), ~mk_lit(p[j][h]));
      }
    }
  }
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
  EXPECT_GT(s.num_conflicts(), 0u);
}

TEST(Sat, AssumptionsSatisfiableSubset) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(~mk_lit(a), ~mk_lit(b));  // not both
  EXPECT_EQ(s.solve({mk_lit(a)}), SolveResult::Sat);
  EXPECT_EQ(s.solve({mk_lit(b)}), SolveResult::Sat);
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b)}), SolveResult::Unsat);
  // Solver stays usable after assumption-unsat.
  EXPECT_EQ(s.solve({mk_lit(a)}), SolveResult::Sat);
}

TEST(Sat, IncrementalAddAfterSolve) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a), mk_lit(b));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  s.add_clause(~mk_lit(a));
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(b));
  s.add_clause(~mk_lit(b));
  EXPECT_EQ(s.solve(), SolveResult::Unsat);
}

TEST(Sat, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole instance with a 1-conflict budget cannot finish.
  Solver s;
  const int holes = 7, pigeons = 8;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(mk_lit(p[i][h]));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j) s.add_clause(~mk_lit(p[i][h]), ~mk_lit(p[j][h]));
  EXPECT_EQ(s.solve({}, 1), SolveResult::Unknown);
  // And succeeds with an ample budget.
  EXPECT_EQ(s.solve({}, 1000000), SolveResult::Unsat);
}

TEST(Sat, DuplicateAndTautologyClausesHandled) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause(mk_lit(a), mk_lit(a)));           // dup literal
  EXPECT_TRUE(s.add_clause(mk_lit(b), ~mk_lit(b)));          // tautology
  EXPECT_EQ(s.solve(), SolveResult::Sat);
  EXPECT_TRUE(s.model_value(a));
}

// Uniform random 3-SAT clauses over `vars`, from a fixed LCG.
std::vector<std::vector<Lit>> random_3sat(std::uint64_t seed, const std::vector<Var>& vars,
                                          int clauses) {
  auto rnd = [&]() {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    return seed >> 33;
  };
  std::vector<std::vector<Lit>> out;
  for (int c = 0; c < clauses; ++c) {
    std::vector<Lit> cl;
    for (int k = 0; k < 3; ++k) {
      const Var v = vars[rnd() % vars.size()];
      cl.push_back(mk_lit(v, (rnd() & 1) != 0));
    }
    out.push_back(cl);
  }
  return out;
}

struct SearchCounters {
  std::uint64_t conflicts, decisions, propagations, restarts;
};

void expect_counters(const Solver& s, const SearchCounters& want, const char* what) {
  EXPECT_EQ(s.num_conflicts(), want.conflicts) << what;
  EXPECT_EQ(s.num_decisions(), want.decisions) << what;
  EXPECT_EQ(s.num_propagations(), want.propagations) << what;
  EXPECT_EQ(s.num_restarts(), want.restarts) << what;
}

// The search is a pure function of the clause database and the call
// sequence, and these counts pin it: a change to clause storage, watch
// lists or conflict analysis that alters any decision, propagation or
// learnt clause shows up here. Only a change meant to alter the search
// updates them.
TEST(Sat, SearchCountersArePinned) {
  // Random 3-SAT near the threshold, solved under rotating assumptions.
  Solver a;
  std::vector<Var> va;
  for (int i = 0; i < 200; ++i) va.push_back(a.new_var());
  for (const auto& c : random_3sat(7, va, 800)) a.add_clause(c);
  std::uint64_t rs = 99;
  int sat_calls = 0;
  for (int call = 0; call < 12; ++call) {
    std::vector<Lit> assume;
    for (int k = 0; k < 6; ++k) {
      rs = rs * 6364136223846793005ULL + 1442695040888963407ULL;
      assume.push_back(mk_lit(va[(rs >> 33) % va.size()], ((rs >> 20) & 1) != 0));
    }
    if (a.solve(assume) == SolveResult::Sat) ++sat_calls;
  }
  expect_counters(a, {4748, 6306, 2151954, 45}, "random 3-SAT under assumptions");
  EXPECT_EQ(sat_calls, 10);

  // Incremental: clauses arrive between solves until the instance closes.
  Solver b;
  std::vector<Var> vb;
  for (int i = 0; i < 150; ++i) vb.push_back(b.new_var());
  const auto extra = random_3sat(11, vb, 1000);
  std::size_t next = 0;
  std::string verdicts;
  Solver b_mid;
  for (int call = 0; call < 8; ++call) {
    const std::size_t upto = 450 + 25 * static_cast<std::size_t>(call);
    for (; next < upto && next < extra.size(); ++next) b.add_clause(extra[next]);
    verdicts += b.solve() == SolveResult::Sat ? 'S' : 'U';
    if (call == 2) b_mid = b;
  }
  expect_counters(b, {2451, 3227, 759103, 20}, "incremental solves");
  EXPECT_EQ(verdicts, "SSSSSSSU");

  // A copied solver carries the learnt clauses and activities on.
  Solver c = b_mid;
  for (const auto& cl : random_3sat(13, vb, 60)) c.add_clause(cl);
  std::string copy_verdicts;
  copy_verdicts += c.solve({mk_lit(vb[0]), ~mk_lit(vb[1])}) == SolveResult::Sat ? 'S' : 'U';
  copy_verdicts += c.solve() == SolveResult::Sat ? 'S' : 'U';
  expect_counters(c, {274, 556, 36324, 3}, "solves on a copy");
  EXPECT_EQ(copy_verdicts, "SS");

  // Pigeonhole 9 -> 8 learns more than 8,192 clauses, so reduce_db runs.
  Solver d;
  const int holes = 8, pigeons = 9;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = d.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> cl;
    for (int h = 0; h < holes; ++h) cl.push_back(mk_lit(p[i][h]));
    d.add_clause(cl);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j) d.add_clause(~mk_lit(p[i][h]), ~mk_lit(p[j][h]));
  EXPECT_EQ(d.solve(), SolveResult::Unsat);
  EXPECT_GT(d.num_conflicts(), 8192u);
  expect_counters(d, {19336, 23881, 62259710, 108}, "pigeonhole 9 -> 8");
}

TEST(Sat, ManyRandom3SatSmallInstancesAgreeWithBruteForce) {
  // Cross-check against exhaustive enumeration on 12-variable instances.
  std::uint64_t state = 12345;
  auto rnd = [&]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (int inst = 0; inst < 30; ++inst) {
    const int nv = 12, nc = 50;
    std::vector<std::array<int, 3>> clauses;
    for (int c = 0; c < nc; ++c) {
      std::array<int, 3> cl{};
      for (int k = 0; k < 3; ++k) {
        const int var = static_cast<int>(rnd() % nv);
        const bool neg = (rnd() & 1) != 0;
        cl[static_cast<std::size_t>(k)] = neg ? -(var + 1) : (var + 1);
      }
      clauses.push_back(cl);
    }
    bool brute_sat = false;
    for (int m = 0; m < (1 << nv) && !brute_sat; ++m) {
      bool ok = true;
      for (const auto& cl : clauses) {
        bool cok = false;
        for (int lit : cl) {
          const int v = std::abs(lit) - 1;
          const bool val = ((m >> v) & 1) != 0;
          if ((lit > 0) == val) {
            cok = true;
            break;
          }
        }
        if (!cok) {
          ok = false;
          break;
        }
      }
      brute_sat = ok;
    }
    Solver s;
    std::vector<Var> vars;
    for (int v = 0; v < nv; ++v) vars.push_back(s.new_var());
    for (const auto& cl : clauses) {
      std::vector<Lit> lits;
      for (int lit : cl)
        lits.push_back(mk_lit(vars[static_cast<std::size_t>(std::abs(lit) - 1)], lit < 0));
      s.add_clause(lits);
    }
    const SolveResult r = s.solve();
    EXPECT_EQ(r == SolveResult::Sat, brute_sat) << "instance " << inst;
    if (r == SolveResult::Sat) {
      // Verify the model.
      for (const auto& cl : clauses) {
        bool cok = false;
        for (int lit : cl) {
          const bool val = s.model_value(vars[static_cast<std::size_t>(std::abs(lit) - 1)]);
          if ((lit > 0) == val) cok = true;
        }
        EXPECT_TRUE(cok);
      }
    }
  }
}

}  // namespace
}  // namespace pdat::sat
