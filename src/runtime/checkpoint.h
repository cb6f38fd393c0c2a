// Proof-engine checkpoint records layered on the write-ahead journal.
//
// A proof journal carries one header record binding it to a specific proof
// problem (a fingerprint over the candidate list and every option that can
// change verdicts), then one round record per completed fixpoint round, and
// a final record once the fixpoint closes. Resuming replays the valid
// prefix: a fingerprint mismatch or an empty/headerless journal is a
// configuration error (never a silent fresh start), a torn tail costs at
// most the round being written, and a final record skips the fixpoint (the
// engine still re-proves its set). Round records store the cumulative engine statistics so a resumed
// run reports the same funnel numbers as an uninterrupted one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/journal.h"

namespace pdat::runtime {

inline constexpr std::uint32_t kProofRecHeader = 1;
inline constexpr std::uint32_t kProofRecRound = 2;
inline constexpr std::uint32_t kProofRecFinal = 3;

/// Round index of the base-case record (the base case is "round -1"; step
/// rounds are numbered from 0).
inline constexpr std::int32_t kBaseRound = -1;

struct ProofJournalHeader {
  std::uint64_t fingerprint = 0;
  std::uint64_t num_candidates = 0;
};

/// Cumulative engine counters, persisted with every round so resumed runs
/// report identical statistics.
struct ProofCounters {
  std::uint64_t sat_calls = 0;
  std::uint64_t cex_kills = 0;
  std::uint64_t budget_kills = 0;
  std::uint64_t job_retries = 0;
  std::uint64_t job_drops = 0;
  std::uint64_t job_crashes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t after_base = 0;
};

struct ProofRoundRecord {
  std::int32_t round = kBaseRound;  // last *completed* round
  std::vector<bool> alive;
  ProofCounters counters;
};

struct ProofResumeState {
  ProofRoundRecord last;    // state to continue from
  bool finished = false;    // journal already holds a final record
};

std::string encode_proof_header(const ProofJournalHeader& h);
std::string encode_proof_round(const ProofRoundRecord& r);

/// Loads the resume state from `path`.
/// Throws PdatError (a configuration error) when the journal is missing,
/// empty, headerless, or was written for a different problem (fingerprint /
/// candidate-count mismatch). A journal with a valid header but no round
/// records resumes from scratch (nullopt).
std::optional<ProofResumeState> load_proof_resume(const std::string& path,
                                                  const ProofJournalHeader& expected);

}  // namespace pdat::runtime
