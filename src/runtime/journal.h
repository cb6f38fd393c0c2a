// Write-ahead checkpoint journal: checksummed, length-prefixed records.
//
// The proof engine appends a record after every completed fixpoint round so
// that a crashed or killed run can resume from the last complete round
// instead of re-proving from scratch. The on-disk format is designed for
// exactly that failure mode:
//
//   file   := magic("PDATJRN1") version(u32) record*
//   record := payload_len(u32) type(u32) checksum(u64) payload
//
// The checksum is FNV-1a over the type and payload. A reader accepts the
// longest valid prefix: a record that fails to decode (a short header, a
// payload extending past end-of-file, an oversized length, or a checksum
// mismatch) ends the replay at the previous record boundary — so a crash
// mid-write (torn tail) silently costs one round, never the journal.
// Appending after a crash truncates the torn tail first so the file never
// contains garbage between valid records.
//
// The process-isolated proof workers (runtime/procworker.h) frame their
// pipe messages with the same record codec, encode_record/decode_record.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

namespace pdat::runtime {

struct JournalRecord {
  std::uint32_t type = 0;
  std::string payload;
};

// --- durability --------------------------------------------------------------
// The longest-valid-prefix recovery story only holds under power loss if the
// bytes the process flushed actually reached stable storage. These helpers
// fsync a file (after its stream was flushed) and its containing directory
// (after a create/rename, so the directory entry itself survives). Both are
// no-ops when the PDAT_NO_FSYNC environment variable is set — tests and
// benchmark runs do not want thousands of real disk syncs — and on
// platforms without POSIX fsync.

/// fsync the file at `path`. Silently ignores a file that cannot be opened
/// (durability is best-effort on exotic filesystems; correctness of the
/// recovery scan never depends on it).
void durable_sync_file(const std::string& path);
/// fsync the parent directory of `path`, making the directory entry durable.
void durable_sync_parent(const std::string& path);

// --- little-endian wire helpers (shared by checkpoint payload codecs) -------

void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
/// Reads and advances `pos`; throws PdatError past-the-end (a record that
/// passed its checksum but decodes short is a version/logic error, not a
/// torn tail).
std::uint32_t get_u32(const std::string& in, std::size_t& pos);
std::uint64_t get_u64(const std::string& in, std::size_t& pos);

// --- the record codec (journal files and worker pipes) ----------------------

/// Encodes one record := payload_len(u32) type(u32) checksum(u64) payload.
std::string encode_record(std::uint32_t type, const std::string& payload);
/// Decodes the record starting at `pos`, advancing it. Returns false when
/// `buf` holds an incomplete record prefix (the cursor does not move);
/// throws PdatError on a checksum mismatch or an oversized length
/// (corruption is never silently accepted).
bool decode_record(const std::string& buf, std::size_t& pos, std::uint32_t& type,
                   std::string& payload);

/// Reads the longest valid record prefix of the journal at `path`.
/// Returns nullopt when the file is missing, shorter than the file header,
/// or carries a wrong magic/version. `valid_bytes`, when non-null, receives
/// the byte offset just past the last valid record (the truncation point
/// for append-after-crash).
std::optional<std::vector<JournalRecord>> read_journal(const std::string& path,
                                                       std::uint64_t* valid_bytes = nullptr);

/// Appends records, flushing after each append so a SIGKILL between rounds
/// loses at most the record being written.
class JournalWriter {
 public:
  /// Truncates `path` and writes a fresh file header.
  static JournalWriter create(const std::string& path);
  /// Opens `path` for appending after its longest valid prefix, truncating
  /// any torn tail. Throws PdatError when the file is absent or has a bad
  /// header (resuming such a journal is a configuration error).
  static JournalWriter append_after_valid_prefix(const std::string& path);

  /// Appends one record and flushes it. Throws PdatError (message prefixed
  /// "journal:") when the write or flush fails — a checkpoint that silently
  /// fails to persist would turn a later resume into a replay of stale
  /// state, so callers must treat the failure as fatal for the run (the
  /// journal's on-disk prefix stays valid; only the torn record is lost).
  void append(std::uint32_t type, const std::string& payload);
  bool ok() const { return out_.good(); }
  const std::string& path() const { return path_; }

 private:
  JournalWriter() = default;

  std::ofstream out_;
  std::string path_;
};

}  // namespace pdat::runtime
