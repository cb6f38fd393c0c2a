#include "fuzz/shrink.h"

#include <algorithm>

namespace pdat::fuzz {
namespace {

AbsProgram without_range(const AbsProgram& p, std::size_t begin, std::size_t end) {
  AbsProgram out;
  out.reserve(p.size() - (end - begin));
  out.insert(out.end(), p.begin(), p.begin() + static_cast<std::ptrdiff_t>(begin));
  out.insert(out.end(), p.begin() + static_cast<std::ptrdiff_t>(end), p.end());
  return out;
}

}  // namespace

ShrinkResult shrink_program(const AbsProgram& p,
                            const std::function<bool(const AbsProgram&)>& still_fails,
                            std::size_t budget) {
  ShrinkResult r;
  r.program = p;
  auto check = [&](const AbsProgram& cand) {
    if (r.oracle_runs >= budget) return false;
    ++r.oracle_runs;
    return still_fails(cand);
  };

  // Phase 1: ddmin. Remove chunks at doubling granularity; restart at coarse
  // granularity after progress so late deletions can re-enable early ones.
  std::size_t chunks = 2;
  while (r.program.size() > 1 && chunks <= r.program.size() && r.oracle_runs < budget) {
    const std::size_t n = r.program.size();
    const std::size_t chunk = (n + chunks - 1) / chunks;
    bool progress = false;
    for (std::size_t begin = 0; begin < n && r.oracle_runs < budget; begin += chunk) {
      const std::size_t end = std::min(begin + chunk, n);
      if (end - begin == r.program.size()) continue;  // would empty the program
      const AbsProgram cand = without_range(r.program, begin, end);
      if (check(cand)) {
        r.program = cand;
        progress = true;
        break;  // sizes changed; recompute chunking
      }
    }
    if (progress) {
      chunks = std::max<std::size_t>(2, chunks - 1);
    } else if (chunk == 1) {
      break;  // 1-minimal
    } else {
      chunks = std::min(chunks * 2, r.program.size());
    }
  }

  // Phase 2: operand canonicalization. opseed = 0 is the simplest draw of
  // each operand policy; skip = 1 makes control transfers fall through.
  for (std::size_t i = 0; i < r.program.size() && r.oracle_runs < budget; ++i) {
    if (r.program[i].opseed != 0) {
      AbsProgram cand = r.program;
      cand[i].opseed = 0;
      if (check(cand)) r.program = std::move(cand);
    }
    if (r.program[i].skip > 1 && r.oracle_runs < budget) {
      AbsProgram cand = r.program;
      cand[i].skip = 1;
      if (check(cand)) r.program = std::move(cand);
    }
  }
  return r;
}

}  // namespace pdat::fuzz
