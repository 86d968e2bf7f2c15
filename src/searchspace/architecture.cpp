#include "anb/searchspace/architecture.hpp"

#include <cstdio>
#include <sstream>

#include "anb/util/error.hpp"

namespace anb {

std::string Architecture::to_string() const {
  std::string out;
  for (int b = 0; b < kNumBlocks; ++b) {
    if (b) out += '-';
    const auto& blk = blocks[static_cast<std::size_t>(b)];
    char buf[32];
    std::snprintf(buf, sizeof(buf), "e%dk%dL%ds%d", blk.expansion, blk.kernel,
                  blk.layers, blk.se ? 1 : 0);
    out += buf;
  }
  return out;
}

Architecture Architecture::from_string(const std::string& s) {
  Architecture arch;
  std::istringstream in(s);
  std::string group;
  int b = 0;
  while (std::getline(in, group, '-')) {
    ANB_CHECK(b < kNumBlocks, "Architecture::from_string: too many blocks");
    int e = 0, k = 0, L = 0, se = 0;
    const int matched =
        std::sscanf(group.c_str(), "e%dk%dL%ds%d", &e, &k, &L, &se);
    ANB_CHECK(matched == 4,
              "Architecture::from_string: malformed block '" + group + "'");
    ANB_CHECK(se == 0 || se == 1,
              "Architecture::from_string: se must be 0 or 1");
    arch.blocks[static_cast<std::size_t>(b)] = BlockConfig{e, k, L, se == 1};
    ++b;
  }
  ANB_CHECK(b == kNumBlocks,
            "Architecture::from_string: expected " +
                std::to_string(kNumBlocks) + " blocks, got " +
                std::to_string(b));
  ANB_CHECK(arch.to_string() == s,
            "Architecture::from_string: non-canonical string '" + s + "'");
  return arch;
}

std::uint64_t Architecture::hash() const {
  // FNV-1a over the block fields.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  for (const auto& blk : blocks) {
    mix(static_cast<std::uint64_t>(blk.expansion));
    mix(static_cast<std::uint64_t>(blk.kernel));
    mix(static_cast<std::uint64_t>(blk.layers));
    mix(blk.se ? 2u : 1u);
  }
  return h;
}

}  // namespace anb
