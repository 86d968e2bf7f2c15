#pragma once

// Strict decimal flag values for the command-line tools (anbd, anbench):
// `--count 12x`, `--archs abc` or `--workers -1` are usage errors, never
// a silently truncated or wrapped number.

#include <cerrno>
#include <cstdlib>
#include <string>

namespace anb::cli {

/// `text` as a decimal integer in [lo, hi]: digits only, so a sign,
/// blanks, trailing junk or an overflow is a usage error. `usage` reports
/// "<flag> wants an integer in [lo, hi], got '<text>'" and must not
/// return (both tools print their help and exit 2).
inline unsigned long parse_count(const std::string& flag,
                                 const std::string& text, unsigned long lo,
                                 unsigned long hi,
                                 void (*usage)(const char* msg)) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  const bool digits = !text.empty() && text[0] >= '0' && text[0] <= '9';
  if (!digits || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    usage((flag + " wants an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got '" + text + "'")
              .c_str());
    std::abort();  // unreachable: usage() exits
  }
  return v;
}

}  // namespace anb::cli
