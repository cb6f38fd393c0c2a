// Result tabulation for the reproduction benches (Figures 5-7 style rows).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "pdat/pipeline.h"

namespace pdat {

struct VariantRow {
  std::string name;
  std::size_t gates = 0;
  double area = 0;
  std::size_t flops = 0;
  // Relative to a designated baseline row (filled by print_variant_table).
  double gate_reduction_pct = 0;
  double area_reduction_pct = 0;
  // Property-checking funnel (0 for non-PDAT rows).
  std::size_t candidates = 0;
  std::size_t proven = 0;
  // Proof-quality caveats: candidates dropped by the SAT conflict budget and
  // cycles where the stimulus violated assumes (both warn-worthy, footnoted).
  std::size_t budget_kills = 0;
  std::size_t assume_violations = 0;
  // Supervised-runtime provenance: jobs the supervisor retried / dropped /
  // contained a crash in, and whether this row's proof was resumed from a
  // checkpoint journal (all footnoted — a resumed or retried row is still
  // sound, but the reader should know the run was not a single clean pass).
  std::size_t job_retries = 0;
  std::size_t job_drops = 0;
  std::size_t job_crashes = 0;
  bool resumed = false;
  // Validation safety-net verdict ("-" for non-PDAT / unvalidated rows).
  std::string validation = "-";
  bool degraded = false;
  double seconds = 0;
};

VariantRow make_row(const std::string& name, const Netlist& nl);
VariantRow make_row(const std::string& name, const PdatResult& r, double seconds = 0);

/// Prints an aligned table; reductions are computed against the row named
/// `baseline` (or the first row when empty). Rows with proof-quality
/// caveats (budget kills, assume violations, validator rejections) get a
/// trailing footnote line each.
void print_variant_table(std::ostream& os, std::vector<VariantRow> rows,
                         const std::string& title, const std::string& baseline = "");

}  // namespace pdat
