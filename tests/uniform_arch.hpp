#pragma once

#include <string>

#include "anb/searchspace/space.hpp"

namespace anb {

/// The MnasNet genotype whose seven blocks all read (e, k, L, se), parsed
/// from its canonical string (throws anb::Error on an out-of-space value).
inline Arch uniform_arch(int e, int k, int L, bool se) {
  const std::string group = "e" + std::to_string(e) + "k" + std::to_string(k) +
                            "L" + std::to_string(L) + "s" + (se ? "1" : "0");
  std::string s = group;
  for (int b = 1; b < kNumBlocks; ++b) s += "-" + group;
  return MnasSpace::instance().arch_from_string(s);
}

}  // namespace anb
