// The deterministic batch-synchronous fuzzing loop (see fuzz.h for the
// determinism contract). Parallelism is bounded-staleness: a round of
// `kBatch` jobs is generated from (master seed, global job index) against the
// round-start corpus snapshot, each worker runs its contiguous stripe of
// job slots as one lane-packed oracle pass, and results merge in job-index
// order — so scheduling, corpus growth, and shrinking are identical at any
// thread count.
#include <algorithm>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <thread>

#include "base/file.h"
#include "base/rng.h"
#include "base/types.h"
#include "fuzz/fuzz.h"
#include "fuzz/shrink.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace pdat::fuzz {
namespace {

std::string render_units(const Generator& gen, const AbsProgram& p) {
  std::ostringstream os;
  os << std::hex << std::setfill('0');
  for (const std::uint32_t u : gen.encode_units(p))
    os << std::setw(static_cast<int>(gen.unit_hex_digits())) << u << "\n";
  return os.str();
}

void write_artifacts(const Target& target, const FuzzOptions& opt, const FuzzStats& stats,
                     const std::vector<AbsProgram>& corpus) {
  namespace fs = std::filesystem;
  const fs::path root(opt.out_dir);
  std::error_code ignored;  // a directory that cannot be made fails the first write_file
  fs::create_directories(root / "corpus", ignored);

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::ostringstream name;
    name << std::setw(4) << std::setfill('0') << i << ".hex";
    write_file(root / "corpus" / name.str(), render_units(*target.gen, corpus[i]));
  }

  std::ostringstream cov;
  cov << "# pdat fuzz coverage v1\n"
      << "target " << target.name << "\n"
      << "seed " << opt.seed << "\n"
      << "programs " << stats.programs << "\n"
      << "nets " << stats.coverage_nets << "\n"
      << "covered_pairs " << stats.covered_pairs << " of " << 2 * stats.coverage_nets << "\n"
      << "corpus " << stats.corpus_retained << "\n";
  write_file(root / "coverage.txt", cov.str());

  for (std::size_t i = 0; i < stats.findings.size(); ++i) {
    const FuzzFinding& f = stats.findings[i];
    std::ostringstream base;
    base << "repro_" << std::setw(2) << std::setfill('0') << i;
    std::ostringstream prog;
    prog << "# shrunk from " << f.original_ops << " ops (job " << f.job_index << ")\n"
         << "# " << f.detail << "\n"
         << serialize_program(f.shrunk, target.gen->isa_name());
    write_file(root / (base.str() + ".prog"), prog.str());
    std::ostringstream case_name;
    case_name << target.name << "_seed" << opt.seed << "_" << std::setw(2) << std::setfill('0')
              << i;
    write_file(root / (base.str() + ".cpp"),
               target.gen->render_repro(f.shrunk, case_name.str(), f.detail));
  }
}

}  // namespace

FuzzStats run_fuzz(const Target& target, const FuzzOptions& opt) {
  FuzzStats stats;
  if (opt.iterations == 0) return stats;  // feature off: no oracles, no artifacts
  if (target.gen == nullptr || !target.make_oracle) throw PdatError("fuzz: incomplete target");

  // Jobs per synchronous round, fixed independent of `threads`: this is
  // what makes corpus scheduling thread-count invariant. It fills half of a
  // 64-lane pack; raising it changes the corpus schedule.
  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kShrinkBudget = 400;  // oracle runs per divergence shrink
  const std::size_t threads = opt.threads < 1 ? 1 : static_cast<std::size_t>(opt.threads);

  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.reserve(threads);
  for (std::size_t t = 0; t < std::min(threads, kBatch); ++t) oracles.push_back(target.make_oracle());

  CoverageMap global;
  global.init(oracles[0]->coverage_nets());
  std::vector<AbsProgram> corpus;

  std::uint64_t next_job = 0;
  while (next_job < opt.iterations) {
    const std::size_t round = std::min<std::uint64_t>(kBatch, opt.iterations - next_job);
    std::vector<AbsProgram> programs(round);
    std::vector<CoverageMap> covs(round);
    std::vector<RunOutcome> outcomes(round);

    // Each job is a pure function of its derived seed and the round-start
    // corpus snapshot; `corpus` is not touched until the merge below. A
    // lane's outcome does not depend on its pack-mates, so how the round is
    // split into stripes and packs does not change any result.
    auto run_stripe = [&](std::size_t begin, std::size_t end, Oracle& oracle) {
      for (std::size_t slot = begin; slot < end; ++slot) {
        Rng rng(util::derive_seed(opt.seed, next_job + slot));
        if (!corpus.empty() && rng.chance(128)) {
          programs[slot] = target.gen->mutate(corpus[rng.below(corpus.size())], rng.next());
        } else {
          programs[slot] = target.gen->generate(rng.next());
        }
        covs[slot].init(oracle.coverage_nets());
      }
      for (std::size_t at = begin; at < end; at += Oracle::kMaxPack) {
        const std::size_t n = std::min(Oracle::kMaxPack, end - at);
        std::vector<RunOutcome> outs = oracle.run(std::span(programs).subspan(at, n),
                                                  std::span(covs).subspan(at, n));
        std::move(outs.begin(), outs.end(), outcomes.begin() + static_cast<std::ptrdiff_t>(at));
      }
    };

    const std::size_t workers = oracles.size();
    if (workers == 1) {
      run_stripe(0, round, *oracles[0]);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t t = 0; t < workers; ++t) {
        pool.emplace_back([&, t] {
          run_stripe(round * t / workers, round * (t + 1) / workers, *oracles[t]);
        });
      }
      for (std::thread& th : pool) th.join();
    }

    // Merge in job-index order; shrinking runs sequentially on oracle 0.
    for (std::size_t slot = 0; slot < round; ++slot) {
      const AbsProgram& program = programs[slot];
      const RunOutcome& outcome = outcomes[slot];
      ++stats.programs;
      stats.instructions += program.size();
      switch (outcome.status) {
        case RunOutcome::Status::Inconclusive:
          ++stats.inconclusive;
          break;
        case RunOutcome::Status::Diverge: {
          ++stats.divergences;
          if (stats.findings.size() >= opt.max_divergences) break;
          auto still_fails = [&](const AbsProgram& cand) {
            return oracles[0]->run(cand, nullptr).status == RunOutcome::Status::Diverge;
          };
          const ShrinkResult sr = shrink_program(program, still_fails, kShrinkBudget);
          stats.shrink_runs += sr.oracle_runs;
          FuzzFinding finding;
          finding.shrunk = sr.program;
          finding.detail = oracles[0]->run(sr.program, nullptr).detail;
          if (finding.detail.empty()) finding.detail = outcome.detail;  // flaky shrink guard
          finding.original_ops = program.size();
          finding.job_index = next_job + slot;
          trace::observe(trace::Histogram::FuzzShrunkLen, finding.shrunk.size());
          stats.findings.push_back(std::move(finding));
          break;
        }
        case RunOutcome::Status::Agree:
          if (global.merge_count_new(covs[slot]) > 0) {
            corpus.push_back(program);
            ++stats.corpus_retained;
          }
          break;
      }
    }
    next_job += round;
  }

  stats.coverage_nets = global.nets();
  stats.covered_pairs = global.covered();

  trace::add(trace::Counter::FuzzPrograms, stats.programs);
  trace::add(trace::Counter::FuzzInstructions, stats.instructions);
  trace::add(trace::Counter::FuzzInconclusive, stats.inconclusive);
  trace::add(trace::Counter::FuzzDivergences, stats.divergences);
  trace::add(trace::Counter::FuzzShrinkRuns, stats.shrink_runs);
  trace::add(trace::Counter::FuzzCorpusRetained, stats.corpus_retained);
  trace::add(trace::Counter::FuzzCoveredPairs, stats.covered_pairs);

  if (!opt.out_dir.empty()) write_artifacts(target, opt, stats, corpus);
  return stats;
}

}  // namespace pdat::fuzz
