#include "pdat/report.h"

#include <iomanip>
#include <ostream>

#include "validate/verdict.h"

namespace pdat {

VariantRow make_row(const std::string& name, const Netlist& nl) {
  VariantRow r;
  r.name = name;
  r.gates = nl.gate_count();
  r.area = nl.area();
  r.flops = nl.num_flops();
  return r;
}

VariantRow make_row(const std::string& name, const PdatResult& res, double seconds) {
  VariantRow r = make_row(name, res.transformed);
  r.candidates = res.candidates;
  r.proven = res.proven;
  r.budget_kills = res.induction.budget_kills;
  r.assume_violations = static_cast<std::size_t>(res.assume_violation_cycles);
  r.job_retries = res.induction.job_retries;
  r.job_drops = res.induction.job_drops;
  r.job_crashes = res.induction.job_crashes;
  r.resumed = res.induction.resumed_from_round >= -1;
  r.degraded = res.degraded;
  if (res.validation.miter != validate::Verdict::Skipped ||
      res.validation.lockstep != validate::Verdict::Skipped) {
    using validate::Verdict;
    const auto worst = [](Verdict a, Verdict b) {
      if (a == Verdict::Fail || b == Verdict::Fail) return Verdict::Fail;
      if (a == Verdict::Inconclusive || b == Verdict::Inconclusive) return Verdict::Inconclusive;
      if (a == Verdict::Pass || b == Verdict::Pass) return Verdict::Pass;
      return Verdict::Skipped;
    };
    r.validation = validate::verdict_name(worst(res.validation.miter, res.validation.lockstep));
  }
  r.seconds = seconds > 0 ? seconds : res.total_seconds;
  return r;
}

void print_variant_table(std::ostream& os, std::vector<VariantRow> rows, const std::string& title,
                         const std::string& baseline) {
  const VariantRow* base = rows.empty() ? nullptr : &rows.front();
  for (const auto& r : rows) {
    if (!baseline.empty() && r.name == baseline) base = &r;
  }
  if (base != nullptr) {
    for (auto& r : rows) {
      r.gate_reduction_pct =
          100.0 * (1.0 - static_cast<double>(r.gates) / static_cast<double>(base->gates));
      r.area_reduction_pct = 100.0 * (1.0 - r.area / base->area);
    }
  }
  os << "== " << title << " ==\n";
  os << std::left << std::setw(26) << "variant" << std::right << std::setw(9) << "gates"
     << std::setw(12) << "area_um2" << std::setw(8) << "flops" << std::setw(10) << "gates_red"
     << std::setw(10) << "area_red" << std::setw(11) << "cands" << std::setw(9) << "proven"
     << std::setw(13) << "valid" << std::setw(9) << "sec" << "\n";
  for (const auto& r : rows) {
    os << std::left << std::setw(26) << r.name << std::right << std::setw(9) << r.gates
       << std::setw(12) << std::fixed << std::setprecision(1) << r.area << std::setw(8) << r.flops
       << std::setw(9) << std::setprecision(1) << r.gate_reduction_pct << "%" << std::setw(9)
       << r.area_reduction_pct << "%" << std::setw(11) << r.candidates << std::setw(9) << r.proven
       << std::setw(13) << r.validation << std::setw(9) << std::setprecision(1) << r.seconds
       << "\n";
  }
  // Proof-quality footnotes: anything that silently weakened a row's result,
  // plus supervised-runtime provenance (retries / drops / crashes / resume).
  for (const auto& r : rows) {
    if (r.budget_kills == 0 && r.assume_violations == 0 && !r.degraded && r.job_retries == 0 &&
        r.job_drops == 0 && r.job_crashes == 0 && !r.resumed) {
      continue;
    }
    os << " ! " << r.name << ":";
    if (r.budget_kills > 0) os << " " << r.budget_kills << " candidates lost to conflict budget;";
    if (r.assume_violations > 0)
      os << " " << r.assume_violations << " assume-violation cycles during filtering;";
    if (r.job_retries > 0) os << " " << r.job_retries << " proof jobs retried;";
    if (r.job_drops > 0) os << " " << r.job_drops << " proof jobs dropped after retries;";
    if (r.job_crashes > 0) os << " " << r.job_crashes << " proof-job crashes contained;";
    if (r.resumed) os << " resumed from checkpoint journal;";
    if (r.degraded) os << " validator rejected the core (see PdatResult::degradations);";
    os << "\n";
  }
  os << "\n";
}

}  // namespace pdat
