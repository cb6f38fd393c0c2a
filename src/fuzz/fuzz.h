// Coverage-guided differential fuzzing of reduced cores (ISSUE 9).
//
// A seed-driven program generator emits random instruction streams
// constrained to an ISA subset (rv32_subsets / thumb_subsets). Every program
// runs in lockstep across three oracles — the ISS golden model, the
// gate-level bitsim of the original core, and the bitsim of the PDAT-reduced
// core — and any divergence on architectural state is shrunk to a minimal
// reproducer (delta debugging over the instruction stream, then operand
// canonicalization). Gate toggle coverage from the bitsim feeds the corpus
// scheduler: a program is retained only when it toggles a net polarity no
// earlier program reached.
//
// Determinism contract (mirrors the proof runtime's, DESIGN.md §5.7): for a
// fixed seed the corpus, the coverage report, and every shrunk reproducer
// are byte-identical at any worker-thread count. Jobs are dispatched in
// fixed-size batches whose seeds derive from (master seed, global job index)
// alone, each job is a pure function of its seed and the round-start corpus
// snapshot, and results merge in job-index order.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/bitsim.h"

namespace pdat {
class Netlist;
class Rng;
}

namespace pdat::fuzz {

// --- abstract programs -------------------------------------------------------
// The generator and the shrinker work on an *abstract* instruction stream;
// concrete encodings are derived on demand. Operands are a pure function of
// (spec, cls, opseed), and control transfers are "skip n ops forward", so
// removing instructions during delta debugging keeps every branch target
// valid (skips clamp to the terminator).

enum class OpClass : std::uint8_t {
  Plain,     // independently sampled operands
  RawWrite,  // writer half of a back-to-back RAW hazard pair
  RawRead,   // reader half (same opseed as the writer => same register)
  MisMem,    // load/store biased to misaligned / multi-cycle LSU paths
  Branch,    // taken/not-taken branch-storm member
};

struct AbsOp {
  int spec = 0;               // index into the ISA table
  OpClass cls = OpClass::Plain;
  std::uint64_t opseed = 0;   // operand stream seed
  std::uint8_t skip = 0;      // control transfers: target is `skip` ops forward

  friend bool operator==(const AbsOp& a, const AbsOp& b) {
    return a.spec == b.spec && a.cls == b.cls && a.opseed == b.opseed && a.skip == b.skip;
  }
};

using AbsProgram = std::vector<AbsOp>;

// --- gate toggle coverage ----------------------------------------------------
// Two bits per net: the net was observed at 0 / at 1 during one program's
// run on the coverage target.

class CoverageMap {
 public:
  void init(std::size_t nets);
  std::size_t nets() const { return nets_; }

  /// Merges `o` into this map; returns how many (net, polarity) pairs were
  /// newly covered.
  std::size_t merge_count_new(const CoverageMap& o);

  /// Covered (net, polarity) pairs; the maximum is 2 * nets().
  std::size_t covered() const;
  /// True when `net` was observed at `value`.
  bool seen(std::size_t net, bool value) const {
    return (((value ? seen1_ : seen0_)[net / 64] >> (net % 64)) & 1) != 0;
  }

  friend bool operator==(const CoverageMap&, const CoverageMap&) = default;

 private:
  friend class LaneCoverage;
  std::size_t nets_ = 0;
  std::vector<std::uint64_t> seen0_, seen1_;
};

/// Toggle coverage of a lane-packed run, one program per BitSim slot: per
/// net, the mask of lanes that observed it at 0 / at 1.
class LaneCoverage {
 public:
  /// Forgets every lane's coverage; `nets` is the coverage target's count.
  void clear(std::size_t nets);
  /// Records every net's value in the `lanes` that ran; call after each
  /// cycle's latch().
  void record(const BitSim& sim, std::uint64_t lanes);
  /// ORs lane k's pairs into *lanes[k] (initialized to the same nets),
  /// one 64x64 bit transpose per 64 nets and polarity for all lanes.
  void scatter(std::span<CoverageMap* const> lanes) const;

 private:
  std::vector<std::uint64_t> seen0_, seen1_;  // per net
};

// --- generators --------------------------------------------------------------

/// Longest program a generator samples unless told otherwise.
inline constexpr std::size_t kDefaultMaxOps = 40;

/// Subset-aware abstract-program generator. Implementations are immutable
/// after construction and safe to share across worker threads; they differ
/// only in the ops they put in the pools and how they encode them.
class Generator {
 public:
  virtual ~Generator() = default;

  /// A fresh program of 4..max_ops sampled ops.
  AbsProgram generate(std::uint64_t seed) const;
  /// One random edit of `p`: reseed an operand, delete, duplicate, append
  /// a sample, or change a skip.
  AbsProgram mutate(const AbsProgram& p, std::uint64_t seed) const;

  /// Concrete encoding, including the register-setup prologue and the
  /// in-subset halting terminator. Units are 32-bit words for RV32 and
  /// halfwords for Thumb.
  virtual std::vector<std::uint32_t> encode_units(const AbsProgram& p) const = 0;
  unsigned unit_hex_digits() const { return isa_.unit_bits / 4; }  // 8 (words) or 4 (halfwords)
  std::string isa_name() const { return isa_.name; }               // "rv32" or "thumb"

  /// Self-contained gtest source reproducing `p` (written next to the
  /// corpus; drop into tests/repro/ to make it a ctest case).
  std::string render_repro(const AbsProgram& p, const std::string& case_name,
                           const std::string& detail) const;

 protected:
  /// The per-ISA constants of serialized programs and reproducers.
  struct IsaInfo {
    const char* name;       // `isa` header of .prog files
    unsigned unit_bits;     // encode_units' unit: 32 (words) or 16 (halfwords)
    const char* core_dir;   // cores/<dir>/<dir>_core.h and _tb.h, cores::build_<dir>()
    const char* core_type;  // what cores::build_<dir>() returns
    const char* cosim;      // cores::<cosim>(netlist, program): "" when they agree
  };

  /// `max_ops` bounds a generated program's length (a mutation may double
  /// it).
  Generator(const IsaInfo& isa, std::string subset_name, std::size_t max_ops)
      : max_ops_(max_ops), isa_(isa), subset_name_(std::move(subset_name)) {}

  /// Call once the pools are filled: throws PdatError when all are empty,
  /// and an empty plain pool borrows the branch (else the memory) pool.
  void check_pools();

  std::size_t max_ops_;
  int terminator_ = -1;  // spec index of the halting terminator
  // Generation pools (spec indices): ordinary ops, misaligned / multi-cycle
  // LSU ops, branch-storm members and RAW-pair halves.
  std::vector<int> plain_, mem_, branch_, raw_;

 private:
  /// Appends one sampled op (or a hazard pair) to `p`.
  void sample_into(AbsProgram& p, Rng& rng) const;

  IsaInfo isa_;
  std::string subset_name_;
};

// --- oracles -----------------------------------------------------------------

struct RunOutcome {
  enum class Status { Agree, Diverge, Inconclusive } status = Status::Agree;
  std::string detail;  // divergence description, "baseline:"/"reduced:" prefixed
  std::uint64_t cycles = 0;
};

/// Differential oracle: runs a pack of programs through ISS + baseline core
/// (+ reduced core when configured), one program per BitSim lane, and
/// reports each program's first divergence. A program's outcome and
/// coverage are exactly those of running it alone.
/// Stateful (owns testbenches) — one oracle per worker thread.
class Oracle {
 public:
  /// Most programs one run() takes: one per BitSim lane.
  static constexpr std::size_t kMaxPack = 64;

  virtual ~Oracle() = default;
  /// Nets of the coverage target (the reduced core when present).
  virtual std::size_t coverage_nets() const = 0;
  /// Runs 1..kMaxPack programs as one lane-packed pass; returns one outcome
  /// per program. `covs` is empty, or holds one map per program, initialized
  /// to coverage_nets(), that receives the program's toggle coverage.
  virtual std::vector<RunOutcome> run(std::span<const AbsProgram> programs,
                                      std::span<CoverageMap> covs) = 0;
  /// A single program: a pack of one.
  RunOutcome run(const AbsProgram& p, CoverageMap* cov);
};

// --- the fuzzing loop --------------------------------------------------------

struct Target {
  const Generator* gen = nullptr;
  std::function<std::unique_ptr<Oracle>()> make_oracle;
  std::string name;  // stamped into reports ("ibex", "cm0", ...)
};

struct FuzzOptions {
  std::uint64_t seed = 1;
  std::size_t iterations = 0;  // programs to run; 0 = feature off
  int threads = 1;
  std::size_t max_divergences = 4;   // stop shrinking new findings after this
  std::string out_dir;               // corpus + reproducer artifacts; "" = none
};

struct FuzzFinding {
  AbsProgram shrunk;
  std::string detail;        // divergence description of the shrunk program
  std::size_t original_ops = 0;
  std::uint64_t job_index = 0;  // global job index that first diverged
};

struct FuzzStats {
  std::uint64_t programs = 0;
  std::uint64_t instructions = 0;   // abstract ops executed (excl. prologue)
  std::uint64_t inconclusive = 0;
  std::uint64_t divergences = 0;    // diverging programs (before dedup/shrink)
  std::uint64_t shrink_runs = 0;    // oracle runs spent inside shrinking
  std::uint64_t corpus_retained = 0;
  std::size_t coverage_nets = 0;
  std::size_t covered_pairs = 0;    // of 2 * coverage_nets
  std::vector<FuzzFinding> findings;
};

/// Runs the deterministic batch-synchronous fuzzing loop. Artifacts (corpus,
/// coverage report, reproducers) are written under opt.out_dir when set and
/// are byte-identical for a fixed seed at any thread count.
FuzzStats run_fuzz(const Target& target, const FuzzOptions& opt);

// --- replayable program serialization ---------------------------------------
// Text format, one `op <spec> <cls> <opseed-hex> <skip>` line per abstract
// op (leading `#` lines are comments). Spec indices refer to the build's ISA
// table; the `isa <name>` header line guards against replaying across ISAs.

std::string serialize_program(const AbsProgram& p, const std::string& isa_name);
/// Throws PdatError on malformed input (including a spec index outside the
/// ISA's table) or an ISA mismatch.
AbsProgram parse_program(const std::string& text, const std::string& expect_isa);

/// Pipeline hook (PdatOptions.fuzz_fn): fuzz `design` against `reduced`.
/// Kept as a std::function so src/pdat does not depend on src/cores.
using FuzzFn =
    std::function<FuzzStats(const Netlist& design, const Netlist& reduced, const FuzzOptions&)>;

}  // namespace pdat::fuzz
