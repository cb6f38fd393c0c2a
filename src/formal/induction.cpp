#include "formal/induction.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <span>

#include "base/log.h"
#include "formal/candidates.h"
#include "formal/cnf_encoder.h"
#include "runtime/checkpoint.h"
#include "runtime/journal.h"
#include "runtime/supervisor.h"
#include "sat/dratcheck.h"
#include "sim/bitsim.h"
#include "trace/trace.h"

namespace pdat {

using sat::Lit;
using sat::SolveResult;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Folds the netlist's structure: every cell's kind, initial value, inputs
/// and output (dead cells as a tombstone), then the port lists.
std::uint64_t hash_netlist(std::uint64_t h, const Netlist& nl) {
  h = fnv_mix(h, nl.num_nets());
  h = fnv_mix(h, nl.num_cells_raw());
  for (CellId id = 0; id < nl.num_cells_raw(); ++id) {
    const Cell& c = nl.cell(id);
    if (c.dead) {
      h = fnv_mix(h, ~std::uint64_t{0});
      continue;
    }
    h = fnv_mix(h, static_cast<std::uint64_t>(c.kind));
    h = fnv_mix(h, static_cast<std::uint64_t>(c.init));
    for (const NetId in : c.in) h = fnv_mix(h, in);
    h = fnv_mix(h, c.out);
  }
  for (const std::vector<Port>* ports : {&nl.inputs(), &nl.outputs()}) {
    h = fnv_mix(h, ports->size());
    for (const Port& p : *ports) {
      h = fnv_mix(h, p.name.size());
      for (const char ch : p.name) h = fnv_mix(h, static_cast<unsigned char>(ch));
      h = fnv_mix(h, p.bits.size());
      for (const NetId n : p.bits) h = fnv_mix(h, n);
    }
  }
  return h;
}

/// Version of the proof schedule: what a round does with a given alive set.
/// A journal written under another schedule holds rounds this engine would
/// not produce, so the version is part of the fingerprint. Version 2
/// retracts the hypotheses of killed members inside a step job.
constexpr std::uint64_t kProofScheduleVersion = 2;

/// Fingerprint binding a journal to a proof problem: the schedule version,
/// the netlist, the environment's assume nets, the candidate list, and every
/// option that can change verdicts (worker count deliberately excluded — it
/// must not).
std::uint64_t proof_fingerprint(const Netlist& nl, const Environment& env,
                                const std::vector<GateProperty>& cands,
                                const InductionOptions& opt) {
  std::uint64_t h = fnv_mix(0xcbf29ce484222325ULL, kProofScheduleVersion);
  h = hash_netlist(h, nl);
  h = fnv_mix(h, env.assumes.size());
  for (const NetId a : env.assumes) h = fnv_mix(h, a);
  h = fnv_mix(h, cands.size());
  for (const GateProperty& p : cands) {
    h = fnv_mix(h, static_cast<std::uint64_t>(p.kind));
    h = fnv_mix(h, p.target);
    h = fnv_mix(h, p.a);
    h = fnv_mix(h, p.b);
    h = fnv_mix(h, p.cell);
    h = fnv_mix(h, static_cast<std::uint64_t>(p.rewire_to_input + 1));
    h = fnv_mix(h, p.rewire_inverted ? 1 : 0);
    h = fnv_mix(h, p.rewireable ? 1 : 0);
  }
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.conflict_budget));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.k));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.cex_sim_cycles));
  for (NetId n : opt.sim_free_nets) h = fnv_mix(h, n);
  h = fnv_mix(h, opt.seed);
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.batch_size));
  h = fnv_mix(h, static_cast<std::uint64_t>(opt.max_job_attempts));
  return h;
}

/// One proof job's state, merged by candidate index after the round
/// completes (a union, so worker count and completion order cannot change
/// the outcome). An attempt starts from the state the last settled attempt
/// left and hands its new state back as bytes, which the supervisor applies
/// before settling the attempt — the one result path for thread and
/// process isolation alike.
struct JobState {
  std::vector<std::uint32_t> members;  // batch members not yet resolved
  std::vector<std::uint32_t> kills;    // indices falsified by models / replay
  std::uint64_t sat_calls = 0;

  std::string encode() const {
    std::string p;
    for (const auto* v : {&members, &kills}) {
      runtime::put_u32(p, static_cast<std::uint32_t>(v->size()));
      for (const std::uint32_t i : *v) runtime::put_u32(p, i);
    }
    runtime::put_u64(p, sat_calls);
    return p;
  }

  static JobState decode(const std::string& bytes) {
    JobState js;
    std::size_t pos = 0;
    for (auto* v : {&js.members, &js.kills}) {
      v->resize(runtime::get_u32(bytes, pos));
      for (std::uint32_t& i : *v) i = runtime::get_u32(bytes, pos);
    }
    js.sat_calls = runtime::get_u64(bytes, pos);
    return js;
  }
};

/// Shards the alive candidate indices into fixed-size batches. Batching
/// depends only on the alive set and batch_size — never on thread count.
std::vector<std::vector<std::uint32_t>> shard_alive(const std::vector<bool>& alive,
                                                    int batch_size) {
  std::vector<std::vector<std::uint32_t>> batches;
  const std::size_t b = batch_size < 1 ? 1 : static_cast<std::size_t>(batch_size);
  for (std::uint32_t i = 0; i < alive.size(); ++i) {
    if (!alive[i]) continue;
    if (batches.empty() || batches.back().size() >= b) batches.emplace_back();
    batches.back().push_back(i);
  }
  return batches;
}

std::size_t popcount(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

runtime::ProofRoundRecord checkpoint_record(const InductionStats& st, int round,
                                            const std::vector<bool>& alive) {
  runtime::ProofRoundRecord r;
  r.round = round;
  r.alive = alive;
  r.counters.sat_calls = st.sat_calls;
  r.counters.cex_kills = st.cex_kills;
  r.counters.budget_kills = st.budget_kills;
  r.counters.job_retries = st.job_retries;
  r.counters.job_drops = st.job_drops;
  r.counters.job_crashes = st.job_crashes;
  r.counters.rounds = static_cast<std::uint64_t>(st.rounds);
  r.counters.after_base = st.after_base;
  return r;
}

/// The engine state shared by the base and step phases.
struct Engine {
  const Netlist& nl;
  const Environment& env;
  const std::vector<GateProperty>& cands;
  const InductionOptions& opt;
  InductionStats& st;
  FrameEncoder enc;
  std::vector<bool> alive;

  Engine(const Netlist& nl_, const Environment& env_, const std::vector<GateProperty>& c,
         const InductionOptions& o, InductionStats& s)
      : nl(nl_), env(env_), cands(c), opt(o), st(s), enc(nl_), alive(c.size(), true) {}

  runtime::SupervisorOptions supervisor_options() const {
    runtime::SupervisorOptions sopt;
    sopt.threads = opt.threads;
    sopt.max_attempts = opt.max_job_attempts < 1 ? 1 : opt.max_job_attempts;
    sopt.initial.conflicts = opt.conflict_budget;
    sopt.isolation = opt.isolation;
    sopt.proc_limits.address_space_bytes = opt.job_rlimit_bytes;
    sopt.proc_limits.cpu_seconds = opt.job_rlimit_cpu_seconds;
    sopt.interrupt = opt.interrupt;
    return sopt;
  }

  /// Replays a SAT model's frame-`fk` state through the bit-parallel
  /// simulator under cloned (job-private) environment drivers, appending
  /// every falsified candidate. Deterministic: the RNG seed depends only on
  /// the round and job index, and driver clones always start from the same
  /// (post-sim-filter) state.
  void cex_replay(const sat::Solver& s, const Frame& fk, BitSim& sim, Environment& local_env,
                  Rng& rng, std::vector<char>& job_killed,
                  std::vector<std::uint32_t>& kills) const {
    trace::add(trace::Counter::InductionCexReplays, 1);
    trace::add(trace::Counter::InductionCexReplayCycles,
               static_cast<std::uint64_t>(opt.cex_sim_cycles));
    for (CellId flop : sim.levels().flops) {
      const NetId q = nl.cell(flop).out;
      sim.set_flop_state(flop, s.model_value(fk.net_var[q]) ? ~0ULL : 0);
    }
    for (int cyc = 0; cyc < opt.cex_sim_cycles; ++cyc) {
      drive_inputs(nl, local_env, sim, rng, opt.sim_free_nets);
      sim.eval();
      if (assumes_hold(sim, local_env)) {
        for (std::uint32_t i = 0; i < cands.size(); ++i) {
          if (alive[i] && !job_killed[i] && violated_in_sim(sim, cands[i])) {
            job_killed[i] = 1;
            kills.push_back(i);
          }
        }
      }
      sim.latch();
    }
  }

  /// Merges one round's job results into the alive set. Model/replay kills
  /// first (a union over jobs, order-independent), then conservative drops
  /// for jobs the supervisor gave up on. Returns the number of candidates
  /// removed; sets interrupted via the reports when the interrupt aborted
  /// any job.
  std::size_t merge_round(const std::vector<JobState>& states,
                          const std::vector<runtime::JobReport>& reports,
                          const runtime::SupervisorStats& sup_stats) {
    std::size_t removed = 0;
    for (const JobState& js : states) st.sat_calls += js.sat_calls;
    for (const JobState& js : states) {
      for (std::uint32_t i : js.kills) {
        if (alive[i]) {
          alive[i] = false;
          ++st.cex_kills;
          ++removed;
        }
      }
    }
    for (std::size_t j = 0; j < reports.size(); ++j) {
      if (reports[j].aborted) st.interrupted = true;
      if (reports[j].crashed && !reports[j].last_error.empty()) {
        log_warn() << "induction: job " << j << " attempt contained: "
                   << reports[j].last_error;
      }
      if (!reports[j].dropped) continue;
      // Conservative drop: whatever the job could not resolve is not proved.
      for (std::uint32_t i : states[j].members) {
        if (alive[i]) {
          alive[i] = false;
          ++st.budget_kills;
          ++removed;
        }
      }
    }
    st.job_retries += sup_stats.retries;
    st.job_drops += sup_stats.drops;
    st.job_crashes += sup_stats.crashes;
    st.proc_restarts += sup_stats.proc_restarts;
    return removed;
  }

  /// Records one round's telemetry at the barrier (main thread, round order):
  /// the RoundRecord for metrics.json plus the delta counters. `round` is -1
  /// for the base case, matching runtime::kBaseRound.
  void round_telemetry(int round, std::size_t alive_before, std::size_t sc0, std::size_t ck0,
                       std::size_t bk0, std::size_t removed) const {
    if (!trace::collecting()) return;
    trace::RoundRecord rec;
    rec.round = round;
    rec.alive_before = alive_before;
    rec.cex_kills = st.cex_kills - ck0;
    rec.budget_kills = st.budget_kills - bk0;
    rec.sat_calls = st.sat_calls - sc0;
    trace::record_round(rec);
    trace::add(trace::Counter::InductionSatCalls, rec.sat_calls);
    trace::add(trace::Counter::InductionCexKills, rec.cex_kills);
    trace::add(trace::Counter::InductionBudgetKills, rec.budget_kills);
    if (round >= 0) trace::add(trace::Counter::InductionRounds, 1);
    trace::observe(trace::Histogram::InductionRoundKills, removed);
  }

  /// A phase's shared CNF template. Jobs copy it into private solvers.
  struct Template {
    sat::Solver s;
    std::vector<Frame> frames;
    /// Step template: per candidate, the literals that assert it at frames
    /// 0..k-1 (make_hypothesis). Empty for the base case.
    std::vector<std::vector<Lit>> hyp;
  };
  /// The step rounds' template. Encoded on the first step round and reused
  /// by every later one; it depends only on the netlist, the environment,
  /// the candidate list and k, so a resumed run encodes the same CNF.
  std::optional<Template> step_tmpl;

  /// Encodes the base template (k frames from reset) or the step template
  /// (k+1 free-state frames plus every candidate's hypothesis literals).
  Template encode_template(bool base, int k) const {
    Template t;
    t.frames = enc.unroll(t.s, base ? k : k + 1, /*from_reset=*/base, env.assumes);
    if (!base) {
      const std::span<const Frame> hyp_frames = std::span<const Frame>(t.frames).first(
          static_cast<std::size_t>(k));
      t.hyp.reserve(cands.size());
      for (const GateProperty& p : cands) t.hyp.push_back(make_hypothesis(t.s, p, hyp_frames));
    }
    // Copy-and-swap: a copy allocates every solver vector at its exact size,
    // so the growth slack of the encoding is not kept for the whole proof.
    t.s = sat::Solver(t.s);
    return t;
  }

  /// One proof phase: shards the alive candidates into batches and runs one
  /// supervised job per batch that looks for violations at the checked
  /// frames.
  ///  - round == kBaseRound, the base case: k frames from reset, no
  ///    hypothesis, every frame checked. Base verdicts are independent
  ///    across candidates, so this one phase settles the base case.
  ///  - round >= 0, a step round: the step template's k+1 free-state
  ///    frames, frame k checked, every model replayed in simulation. Alive
  ///    candidates outside the batch are hypotheses at frames 0..k-1 as
  ///    unit clauses; the members' hypotheses are assumptions, and the job
  ///    retracts those of the members it kills (see the job loop).
  /// Returns the number of candidates removed (in a step round, 0 means the
  /// alive set is the fixpoint).
  std::size_t run_phase(int round) {
    const bool base = round == runtime::kBaseRound;
    trace::Span span(base ? "induction.base" : "induction.round");
    if (!base) span.arg("round", round);
    const std::size_t alive_before = popcount(alive);
    const std::size_t sc0 = st.sat_calls;
    const std::size_t ck0 = st.cex_kills;
    const std::size_t bk0 = st.budget_kills;
    span.arg("alive", static_cast<std::int64_t>(alive_before));
    const int k = opt.k < 1 ? 1 : opt.k;
    std::optional<Template> base_tmpl;
    if (base) {
      base_tmpl = encode_template(true, k);
    } else if (!step_tmpl) {
      step_tmpl = encode_template(false, k);
    }
    const Template& tmpl = base ? *base_tmpl : *step_tmpl;
    const std::span<const Frame> checked = base ? std::span<const Frame>(tmpl.frames)
                                                : std::span<const Frame>(tmpl.frames).last(1);

    std::vector<JobState> states;
    for (std::vector<std::uint32_t>& batch : shard_alive(alive, opt.batch_size)) {
      states.push_back({std::move(batch), {}, 0});
    }

    runtime::Supervisor sup(supervisor_options());
    const auto job = [&](std::size_t jid, int /*attempt*/, const runtime::JobBudget& budget,
                         std::string& state) {
      JobState js = states[jid];
      auto& members = js.members;
      const auto finish = [&](runtime::JobStatus status) {
        state = js.encode();
        return status;
      };
      sat::Solver s = tmpl.s;  // private copy; index-based state, so this is a deep copy
      std::optional<sat::CertifySession> cert;
      if (opt.certify) cert.emplace(s);
      if (opt.test_corrupt_solver) s.test_corrupt_next_learnt();
      sat::SolveLimits lim;
      lim.conflict_budget = budget.conflicts;
      lim.interrupt = &sup.cancelled();
      lim.interrupt2 = opt.interrupt;

      // Candidates this job has killed, by model or replay, in this attempt
      // or an earlier one. They are out of every hypothesis and query.
      std::vector<char> job_killed(cands.size(), 0);
      for (const std::uint32_t i : js.kills) job_killed[i] = 1;

      // Step round hypothesis. Alive candidates outside `members` hold at
      // frames 0..k-1 as unit clauses. The members' hypothesis literals are
      // assumed, so a member's can be retracted once the job kills it.
      std::vector<Lit> hyps;
      const auto assume_members = [&] {
        hyps.clear();
        for (const std::uint32_t m : members) {
          if (!job_killed[m]) hyps.insert(hyps.end(), tmpl.hyp[m].begin(), tmpl.hyp[m].end());
        }
      };
      if (!base) {
        std::vector<char> member(cands.size(), 0);
        for (const std::uint32_t m : members) member[m] = 1;
        for (std::uint32_t i = 0; i < cands.size(); ++i) {
          if (!alive[i] || job_killed[i] || member[i]) continue;
          for (const Lit h : tmpl.hyp[i]) s.add_clause(h);
        }
        assume_members();
      }

      const auto timed_solve = [&](Lit query, const sat::SolveLimits& l) {
        std::vector<Lit> assumptions{query};
        assumptions.insert(assumptions.end(), hyps.begin(), hyps.end());
        SolveResult r;
        if (!trace::collecting()) {
          r = s.solve(assumptions, l);
        } else {
          const auto t0 = Clock::now();
          r = s.solve(assumptions, l);
          const auto us = std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0);
          trace::add(trace::Counter::InductionSolveMicrosGlobal,
                     static_cast<std::uint64_t>(us.count()));
        }
        if (cert.has_value()) {
          cert->check(r, assumptions, base ? "induction.base" : "induction.step");
        }
        return r;
      };

      // Per member: a violation aux for each checked frame (empty once the
      // member is retired) and the literal a per-member query assumes. In
      // the base case that literal is a fresh "violated in some frame" OR
      // over the auxes, even at k = 1; in a step round it is the frame-k aux.
      // The trigger asks for a violation of any member.
      std::vector<std::vector<Lit>> member_aux(members.size());
      std::vector<Lit> member_lit(members.size());
      const Lit trigger = sat::mk_lit(s.new_var());
      std::vector<Lit> any_clause{~trigger};
      for (std::size_t m = 0; m < members.size(); ++m) {
        for (const Frame& f : checked) {
          member_aux[m].push_back(make_violation_aux(s, cands[members[m]], f));
        }
        if (base) {
          member_lit[m] = sat::mk_lit(s.new_var());
          std::vector<Lit> ors{~member_lit[m]};
          ors.insert(ors.end(), member_aux[m].begin(), member_aux[m].end());
          s.add_clause(ors);
        } else {
          member_lit[m] = member_aux[m].front();
        }
        any_clause.push_back(member_lit[m]);
      }
      s.add_clause(any_clause);

      const auto retire = [&](std::size_t m) {
        // Falsified or resolved: exclude from future aggregate models.
        for (Lit ax : member_aux[m]) s.add_clause(~ax);
        if (base) s.add_clause(~member_lit[m]);
        member_aux[m].clear();
      };

      // Job-private replay state, constructed lazily on the first model.
      std::unique_ptr<BitSim> sim;
      std::unique_ptr<Environment> local_env;
      Rng rng(opt.seed ^ fnv_mix(0x6a09e667f3bcc909ULL,
                                 (static_cast<std::uint64_t>(round + 2) << 20) +
                                     static_cast<std::uint64_t>(jid)));

      // Killed members are retired from the aggregate query so each model
      // makes real progress; without this, replay kills would keep
      // re-satisfying the trigger.
      const auto kill_from_model = [&]() {
        for (std::uint32_t i = 0; i < cands.size(); ++i) {
          if (!alive[i] || job_killed[i]) continue;
          for (const Frame& f : checked) {
            if (violated_in_model(s, cands[i], f)) {
              job_killed[i] = 1;
              js.kills.push_back(i);
              break;
            }
          }
        }
        if (!base && opt.cex_sim_cycles > 0) {
          if (!sim) {
            sim = std::make_unique<BitSim>(nl);
            local_env = std::make_unique<Environment>(clone_environment(env));
          }
          cex_replay(s, tmpl.frames.back(), *sim, *local_env, rng, job_killed, js.kills);
        }
        bool any = false;
        for (std::size_t m = 0; m < members.size(); ++m) {
          if (!member_aux[m].empty() && job_killed[members[m]]) {
            retire(m);
            any = true;
          }
        }
        return any;
      };

      for (;;) {
        ++js.sat_calls;
        const SolveResult r = timed_solve(trigger, lim);
        if (r == SolveResult::Unsat) {
          // The pass is closed: no unretired member is violated under the
          // current hypotheses. Retract the hypotheses of the members the
          // pass killed and query again in the same solver; a pass that
          // killed no member ends the job. Later kills stay sound: a killed
          // candidate is outside the greatest fixpoint, so the remaining
          // hypotheses still contain that fixpoint.
          const std::size_t assumed = hyps.size();
          if (!base) assume_members();
          if (hyps.size() == assumed) {
            members.clear();
            return finish(runtime::JobStatus::Done);
          }
          continue;
        }
        if (r == SolveResult::Sat) {
          if (!kill_from_model()) {
            throw PdatError("induction: aggregate model kills no batch member");
          }
          continue;
        }
        // Budget exhausted on the aggregate query: per-member sweep with a
        // slice of the budget; unresolved members stay pending for retry.
        sat::SolveLimits small = lim;
        if (small.conflict_budget >= 0) small.conflict_budget = small.conflict_budget / 16 + 1;
        std::vector<std::uint32_t> unresolved;
        for (std::size_t m = 0; m < members.size(); ++m) {
          if (member_aux[m].empty()) continue;  // already retired
          ++js.sat_calls;
          const SolveResult rm = timed_solve(member_lit[m], small);
          if (rm == SolveResult::Unsat) {
            retire(m);
          } else if (rm == SolveResult::Sat) {
            kill_from_model();
            if (!member_aux[m].empty()) {
              // The solver found a violating model the extraction missed:
              // the member IS falsifiable, so kill it explicitly (retiring
              // without a kill would let it survive unsoundly).
              job_killed[members[m]] = 1;
              js.kills.push_back(members[m]);
              retire(m);
            }
          } else {
            unresolved.push_back(members[m]);
          }
        }
        members = std::move(unresolved);
        return finish(members.empty() ? runtime::JobStatus::Done : runtime::JobStatus::Retry);
      }
    };

    const auto apply = [&](std::size_t jid, const std::string& bytes) {
      states[jid] = JobState::decode(bytes);
    };
    const auto reports = sup.run(states.size(), job, apply);
    // A completed job has resolved every member; the kills recorded in the
    // states remove the falsified ones.
    const std::size_t removed = merge_round(states, reports, sup.stats());
    round_telemetry(round, alive_before, sc0, ck0, bk0, removed);
    span.arg("killed", static_cast<std::int64_t>(removed));
    return removed;
  }
};

}  // namespace

std::vector<GateProperty> prove_invariants(const Netlist& nl, const Environment& env,
                                           std::vector<GateProperty> candidates,
                                           const InductionOptions& opt, InductionStats* stats) {
  InductionStats st;
  st.initial = candidates.size();
  trace::Span span("induction.prove",
                   {"candidates", static_cast<std::int64_t>(candidates.size())});

  // Cooperative interrupt: polls the flag and latches st.interrupted, after
  // which the fixpoint aborts conservatively.
  const auto interrupted = [&] {
    if (opt.interrupt != nullptr && opt.interrupt->load(std::memory_order_relaxed)) {
      st.interrupted = true;
    }
    return st.interrupted;
  };

  Engine eng(nl, env, candidates, opt, st);

  const runtime::ProofJournalHeader header{proof_fingerprint(nl, env, candidates, opt),
                                           candidates.size()};

  // --- resume ---------------------------------------------------------------
  bool base_done = false;
  bool finished = false;
  int next_round = 0;
  if (!opt.resume_from.empty()) {
    const auto rs = runtime::load_proof_resume(opt.resume_from, header);
    if (rs.has_value()) {
      eng.alive = rs->last.alive;
      st.sat_calls = rs->last.counters.sat_calls;
      st.cex_kills = rs->last.counters.cex_kills;
      st.budget_kills = rs->last.counters.budget_kills;
      st.job_retries = rs->last.counters.job_retries;
      st.job_drops = rs->last.counters.job_drops;
      st.job_crashes = rs->last.counters.job_crashes;
      st.rounds = static_cast<int>(rs->last.counters.rounds);
      st.after_base = rs->last.counters.after_base;
      st.resumed_from_round = rs->last.round;
      base_done = true;
      next_round = rs->last.round + 1;  // kBaseRound(-1) resumes at round 0
      finished = rs->finished;
      log_info() << "induction: resumed from '" << opt.resume_from << "' at round "
                 << rs->last.round << " (" << popcount(eng.alive) << "/" << st.initial
                 << " candidates alive" << (finished ? ", already final" : "") << ")";
    }
    // A journal with a valid matching header but no round records restarts
    // the proof from scratch (nothing usable was checkpointed).
  }

  // --- journal writer -------------------------------------------------------
  std::unique_ptr<runtime::JournalWriter> journal;
  if (!opt.journal_path.empty()) {
    if (!opt.resume_from.empty() && opt.resume_from == opt.journal_path) {
      journal = std::make_unique<runtime::JournalWriter>(
          runtime::JournalWriter::append_after_valid_prefix(opt.journal_path));
    } else {
      journal = std::make_unique<runtime::JournalWriter>(
          runtime::JournalWriter::create(opt.journal_path));
      journal->append(runtime::kProofRecHeader, runtime::encode_proof_header(header));
      if (base_done) {
        // Re-targeted journal: seed it with the resumed state (final when the
        // source journal was final) so it is self-contained for a next resume.
        journal->append(finished ? runtime::kProofRecFinal : runtime::kProofRecRound,
                        runtime::encode_proof_round(checkpoint_record(st, next_round - 1, eng.alive)));
      }
    }
  }

  const auto checkpoint = [&](std::uint32_t type, int completed_round) {
    if (!journal) return;
    journal->append(type, runtime::encode_proof_round(checkpoint_record(st, completed_round, eng.alive)));
  };

  // --- base case ------------------------------------------------------------
  if (!finished && !base_done) {
    if (!interrupted()) eng.run_phase(runtime::kBaseRound);
    if (st.interrupted) {
      log_warn() << "induction: interrupted during the base case; proving nothing";
      if (stats != nullptr) *stats = st;
      return {};
    }
    st.after_base = popcount(eng.alive);
    log_info() << "induction: base case kept " << st.after_base << "/" << st.initial;
    checkpoint(runtime::kProofRecRound, runtime::kBaseRound);
  }

  // --- inductive step fixpoint ---------------------------------------------
  if (!finished) {
    for (int round = next_round;; ++round) {
      if (interrupted()) break;
      if (popcount(eng.alive) == 0) break;
      const std::size_t removed = eng.run_phase(round);
      if (interrupted()) break;
      st.rounds = round + 1;
      if (removed == 0) {
        checkpoint(runtime::kProofRecFinal, round);
        break;
      }
      checkpoint(runtime::kProofRecRound, round);
    }
  }

  // An interrupt leaves the survivor set unproved: return nothing rather
  // than an unsound partial result. Completed rounds remain in the journal
  // for a later resume.
  if (st.interrupted) {
    log_warn() << "induction: interrupted before the fixpoint closed; proving nothing"
               << (journal ? " (journal retains completed rounds for resume)" : "");
    if (stats != nullptr) *stats = st;
    return {};
  }
  if (popcount(eng.alive) == 0 && !finished) {
    // Everything died before a no-kill round could certify a fixpoint; the
    // empty set is trivially inductive.
    checkpoint(runtime::kProofRecFinal, st.rounds - 1);
  }

  std::vector<GateProperty> proven;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (eng.alive[i]) proven.push_back(candidates[i]);
  }
  st.proven = proven.size();
  span.arg("proven", static_cast<std::int64_t>(proven.size()));
  if (stats != nullptr) *stats = st;
  return proven;
}

}  // namespace pdat
