#include "runtime/journal.h"

#include <cstdlib>
#include <filesystem>
#include <iterator>

#include "base/types.h"
#include "util/failpoint.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define PDAT_HAVE_FSYNC 1
#endif

namespace pdat::runtime {

namespace {

constexpr char kMagic[8] = {'P', 'D', 'A', 'T', 'J', 'R', 'N', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kFileHeaderBytes = sizeof(kMagic) + sizeof(std::uint32_t);
constexpr std::size_t kRecordHeaderBytes = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t);
// Sanity cap on a single record; anything larger is treated as corruption.
constexpr std::uint32_t kMaxPayload = 1u << 30;

/// Reads a little-endian N-byte value at `pos` and advances it.
template <class T>
T get_le(const std::string& in, std::size_t& pos) {
  if (pos + sizeof(T) > in.size()) throw PdatError("journal: truncated payload field");
  T v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) v = (v << 8) | static_cast<unsigned char>(in[pos + i]);
  pos += sizeof(T);
  return v;
}

/// FNV-1a over the record type and payload.
std::uint64_t record_checksum(std::uint32_t type, const std::string& payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (int i = 0; i < 4; ++i) mix(static_cast<unsigned char>(type >> (8 * i)));
  for (char c : payload) mix(static_cast<unsigned char>(c));
  return h;
}

bool fsync_disabled() {
  static const bool disabled = std::getenv("PDAT_NO_FSYNC") != nullptr;
  return disabled;
}

void sync_path(const char* path) {
#ifdef PDAT_HAVE_FSYNC
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return;  // best-effort: see journal.h
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

void durable_sync_file(const std::string& path) {
  if (fsync_disabled()) return;
  sync_path(path.c_str());
}

void durable_sync_parent(const std::string& path) {
  if (fsync_disabled()) return;
  std::error_code ec;
  auto parent = std::filesystem::absolute(path, ec).parent_path();
  if (ec || parent.empty()) return;
  sync_path(parent.string().c_str());
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::string& in, std::size_t& pos) {
  return get_le<std::uint32_t>(in, pos);
}

std::uint64_t get_u64(const std::string& in, std::size_t& pos) {
  return get_le<std::uint64_t>(in, pos);
}

std::string encode_record(std::uint32_t type, const std::string& payload) {
  std::string rec;
  rec.reserve(kRecordHeaderBytes + payload.size());
  put_u32(rec, static_cast<std::uint32_t>(payload.size()));
  put_u32(rec, type);
  put_u64(rec, record_checksum(type, payload));
  rec += payload;
  return rec;
}

bool decode_record(const std::string& buf, std::size_t& pos, std::uint32_t& type,
                   std::string& payload) {
  if (buf.size() < pos + kRecordHeaderBytes) return false;
  std::size_t p = pos;
  const std::uint32_t len = get_u32(buf, p);
  const std::uint32_t t = get_u32(buf, p);
  const std::uint64_t sum = get_u64(buf, p);
  if (len > kMaxPayload) throw PdatError("record: oversized length field");
  if (buf.size() - p < len) return false;
  std::string pl = buf.substr(p, len);
  if (record_checksum(t, pl) != sum) throw PdatError("record: checksum mismatch");
  type = t;
  payload = std::move(pl);
  pos = p + len;
  return true;
}

std::optional<std::vector<JournalRecord>> read_journal(const std::string& path,
                                                       std::uint64_t* valid_bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (bytes.size() < kFileHeaderBytes ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::size_t pos = sizeof(kMagic);
  if (get_u32(bytes, pos) != kVersion) return std::nullopt;

  std::vector<JournalRecord> records;
  try {
    JournalRecord rec;
    while (decode_record(bytes, pos, rec.type, rec.payload)) records.push_back(std::move(rec));
  } catch (const PdatError&) {
    // A corrupt record ends the valid prefix exactly like a torn one.
  }
  if (valid_bytes != nullptr) *valid_bytes = pos;
  return records;
}

JournalWriter JournalWriter::create(const std::string& path) {
  JournalWriter w;
  w.path_ = path;
  w.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!w.out_) throw PdatError("journal: cannot create '" + path + "'");
  if (util::failpoint("journal.create") != 0) {
    // Injected ENOSPC: leave the partial artifact a full disk would (magic
    // only, no version), which readers reject as headerless.
    w.out_.write(kMagic, sizeof(kMagic));
    w.out_.flush();
    throw PdatError("journal: cannot create '" + path + "' (injected ENOSPC)");
  }
  w.out_.write(kMagic, sizeof(kMagic));
  std::string v;
  put_u32(v, kVersion);
  w.out_.write(v.data(), static_cast<std::streamsize>(v.size()));
  w.out_.flush();
  if (!w.out_.good()) throw PdatError("journal: cannot create '" + path + "'");
  durable_sync_file(path);
  durable_sync_parent(path);
  return w;
}

JournalWriter JournalWriter::append_after_valid_prefix(const std::string& path) {
  std::uint64_t valid = 0;
  const auto records = read_journal(path, &valid);
  if (!records.has_value()) {
    throw PdatError("journal: '" + path + "' is missing or has a bad header; cannot append");
  }
  std::error_code ec;
  std::filesystem::resize_file(path, valid, ec);
  if (ec) throw PdatError("journal: cannot truncate torn tail of '" + path + "'");
  // The truncation changed the file's committed length; make it durable
  // before new records land past it.
  durable_sync_file(path);
  JournalWriter w;
  w.path_ = path;
  w.out_.open(path, std::ios::binary | std::ios::app);
  if (!w.out_) throw PdatError("journal: cannot open '" + path + "' for append");
  return w;
}

void JournalWriter::append(std::uint32_t type, const std::string& payload) {
  const std::string rec = encode_record(type, payload);
  if (util::failpoint("journal.append") != 0) {
    // Injected ENOSPC: ship the torn half-record a full disk leaves behind
    // (readers drop it as an invalid tail), then fail like the real error
    // path below.
    out_.write(rec.data(), static_cast<std::streamsize>(rec.size() / 2));
    out_.flush();
    throw PdatError("journal: append to '" + path_ + "' failed (injected ENOSPC)");
  }
  out_.write(rec.data(), static_cast<std::streamsize>(rec.size()));
  out_.flush();
  if (!out_.good()) {
    throw PdatError("journal: append to '" + path_ + "' failed (disk full or I/O error)");
  }
  durable_sync_file(path_);
}

}  // namespace pdat::runtime
