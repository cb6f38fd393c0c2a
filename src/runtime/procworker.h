// Process-isolated proof workers (DESIGN.md §5.11).
//
// Thread-mode crash containment in supervisor.cpp stops at C++ exceptions:
// a segfault, a stack overflow, or the kernel OOM killer inside one SAT job
// takes down the whole run. Process isolation closes that gap by running
// every job *attempt* in a freshly forked child:
//
//   - the child applies hard setrlimit() caps (RLIMIT_AS / RLIMIT_CPU /
//     RLIMIT_STACK from ProcLimits) before touching the job, so a blown-up
//     solver is killed by the kernel instead of starving the machine;
//   - the parent writes the job assignment down a pipe and reads the result
//     back, both as length-prefixed records carrying the same FNV-1a
//     checksum the journal uses — a torn or corrupt record is detected,
//     never trusted;
//   - waitpid() status decoding maps SIGSEGV / SIGABRT / SIGKILL (OOM) /
//     SIGXCPU (RLIMIT_CPU) / nonzero exits into the existing
//     retry-with-escalation → conservative-drop ladder;
//   - a wedged child that ignores its cooperative wall budget is SIGKILLed
//     `kill_grace_seconds` after its attempt deadline, so one stuck solver
//     can no longer stall a round.
//
// Scheduling model: the parent runs a single-threaded poll() event loop
// with up to `threads` children in flight. No worker threads exist in
// process mode — fork() from a multithreaded process is a deadlock trap
// (another thread may hold the malloc lock at fork time), and the children
// provide the parallelism anyway.
//
// Determinism: identical to thread mode. Each attempt is a pure function of
// (job, attempt, budget); the child ships its outcome back through the
// caller's ProcResultCodec and the parent applies results keyed by job
// index, never by completion order. An out-of-band child death re-enters
// the ladder exactly like a thrown attempt, but is accounted separately
// (JobReport::child_deaths, SupervisorStats::proc_restarts) because deaths
// can be environmental and must not perturb byte-compared reports.
//
// The child runs against copy-on-write memory: it sees the parent's entire
// state at fork time for free (CNF templates, netlist) and its own writes
// are invisible to the parent — all result state must flow through the
// codec. Children exit with _exit(), never exit(): running static
// destructors in the child (journal flushes) would corrupt parent-owned
// files.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/supervisor.h"

namespace pdat::runtime {

/// False on platforms without fork/pipe/waitpid; Supervisor::run then falls
/// back to thread isolation with a warning.
bool process_isolation_supported();

/// The process-mode scheduling loop. Called by Supervisor::run — use that
/// entry point, not this one, unless you are the supervisor or its tests.
/// Fills `reports`/`stats` exactly as thread mode would and latches
/// `cancelled` on deadline/interrupt. Throws CertificationError when a
/// child reports one (after killing the remaining children).
std::vector<JobReport> run_process_pool(const SupervisorOptions& opt, std::size_t n,
                                        const JobFn& fn, const ProcResultCodec* codec,
                                        SupervisorStats& stats, std::atomic<bool>& cancelled);

// --- wire protocol (exposed for tests) --------------------------------------
// record := payload_len(u32) type(u32) checksum(u64) payload, checksummed
// with journal_checksum over (type, payload); little-endian throughout.

/// Encodes one pipe record.
std::string encode_proc_record(std::uint32_t type, const std::string& payload);
/// Decodes the record starting at `pos`, advancing it. Returns false when
/// `buf` holds an incomplete record prefix; throws PdatError on a checksum
/// mismatch or an oversized length (corruption is never silently accepted).
bool decode_proc_record(const std::string& buf, std::size_t& pos, std::uint32_t& type,
                        std::string& payload);

}  // namespace pdat::runtime
