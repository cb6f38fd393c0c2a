// Whole-file output for every artifact a caller asks for by path.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>

#include "base/types.h"

namespace pdat {

/// Replaces `path` with `content`. Throws PdatError naming `path` when the
/// file cannot be opened or written: a requested output is never dropped
/// silently.
inline void write_file(const std::filesystem::path& path, const std::string& content) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (os) os << content;
  if (os) os.close();
  if (!os) throw PdatError("cannot write '" + path.string() + "'");
}

}  // namespace pdat
