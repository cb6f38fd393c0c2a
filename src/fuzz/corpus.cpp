#include <algorithm>
#include <sstream>

#include "base/types.h"
#include "fuzz/fuzz.h"
#include "isa/rv32_encoding.h"
#include "isa/thumb_encoding.h"

namespace pdat::fuzz {

// --- CoverageMap -------------------------------------------------------------

void CoverageMap::init(std::size_t nets) {
  nets_ = nets;
  seen0_.assign((nets + 63) / 64, 0);
  seen1_.assign((nets + 63) / 64, 0);
}

std::size_t CoverageMap::merge_count_new(const CoverageMap& o) {
  std::size_t fresh = 0;
  for (std::size_t w = 0; w < seen0_.size(); ++w) {
    fresh += static_cast<std::size_t>(__builtin_popcountll(o.seen0_[w] & ~seen0_[w]));
    fresh += static_cast<std::size_t>(__builtin_popcountll(o.seen1_[w] & ~seen1_[w]));
    seen0_[w] |= o.seen0_[w];
    seen1_[w] |= o.seen1_[w];
  }
  return fresh;
}

std::size_t CoverageMap::covered() const {
  std::size_t total = 0;
  for (const std::uint64_t w : seen0_) total += static_cast<std::size_t>(__builtin_popcountll(w));
  for (const std::uint64_t w : seen1_) total += static_cast<std::size_t>(__builtin_popcountll(w));
  return total;
}

// --- LaneCoverage ------------------------------------------------------------

void LaneCoverage::clear(std::size_t nets) {
  seen0_.assign(nets, 0);
  seen1_.assign(nets, 0);
}

void LaneCoverage::record(const BitSim& sim, std::uint64_t lanes) {
  // Raw pointers and a NetId counter let the compiler vectorize the loop.
  std::uint64_t* const seen0 = seen0_.data();
  std::uint64_t* const seen1 = seen1_.data();
  const auto nets = static_cast<NetId>(seen0_.size());
  for (NetId n = 0; n < nets; ++n) {
    const std::uint64_t v = sim.value(n);
    seen1[n] |= v & lanes;
    seen0[n] |= ~v & lanes;
  }
}

void LaneCoverage::scatter(std::span<CoverageMap* const> lanes) const {
  // Block w of a polarity holds nets 64w.. as rows of lane bits; after the
  // transpose, row k is lane k's word w of the per-program bitmap.
  std::uint64_t block[64];
  for (std::size_t w = 0; 64 * w < seen0_.size(); ++w) {
    const std::size_t n = std::min<std::size_t>(64, seen0_.size() - 64 * w);
    for (const bool value : {false, true}) {
      const std::vector<std::uint64_t>& seen = value ? seen1_ : seen0_;
      std::copy_n(seen.begin() + static_cast<std::ptrdiff_t>(64 * w), n, block);
      std::fill(block + n, block + 64, 0);
      transpose64(block);
      for (std::size_t k = 0; k < lanes.size(); ++k)
        (value ? lanes[k]->seen1_ : lanes[k]->seen0_)[w] |= block[k];
    }
  }
}

// --- program serialization ---------------------------------------------------

std::string serialize_program(const AbsProgram& p, const std::string& isa_name) {
  std::ostringstream os;
  os << "# pdat fuzz program v1\n";
  os << "isa " << isa_name << "\n";
  for (const AbsOp& op : p) {
    os << "op " << op.spec << " " << static_cast<unsigned>(op.cls) << " " << std::hex
       << op.opseed << std::dec << " " << static_cast<unsigned>(op.skip) << "\n";
  }
  return os.str();
}

AbsProgram parse_program(const std::string& text, const std::string& expect_isa) {
  // A spec past the ISA's instruction table would be read out of bounds.
  const std::size_t specs =
      expect_isa == "rv32" ? isa::rv32_instructions().size() : isa::thumb_instructions().size();
  AbsProgram p;
  std::istringstream is(text);
  std::string line;
  bool saw_isa = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "isa") {
      std::string name;
      ls >> name;
      if (name != expect_isa)
        throw PdatError("fuzz replay: program is for ISA '" + name + "', expected '" +
                        expect_isa + "'");
      saw_isa = true;
      continue;
    }
    if (tag != "op") throw PdatError("fuzz replay: unknown line '" + line + "'");
    AbsOp op;
    unsigned cls = 0, skip = 0;
    ls >> op.spec >> cls >> std::hex >> op.opseed >> std::dec >> skip;
    if (ls.fail() || cls > static_cast<unsigned>(OpClass::Branch) || skip > 255 ||
        op.spec < 0 || static_cast<std::size_t>(op.spec) >= specs)
      throw PdatError("fuzz replay: malformed op line '" + line + "'");
    op.cls = static_cast<OpClass>(cls);
    op.skip = static_cast<std::uint8_t>(skip);
    p.push_back(op);
  }
  if (!saw_isa) throw PdatError("fuzz replay: missing 'isa' header line");
  return p;
}

}  // namespace pdat::fuzz
