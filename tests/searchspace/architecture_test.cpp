#include "anb/searchspace/architecture.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"
#include "anb/util/rng.hpp"

namespace anb {
namespace {

Architecture uniform_arch(int e, int k, int L, bool se) {
  Architecture a;
  for (auto& b : a.blocks) b = BlockConfig{e, k, L, se};
  return a;
}

TEST(ArchitectureTest, ToStringFormat) {
  const Architecture a = uniform_arch(6, 5, 3, true);
  const std::string s = a.to_string();
  EXPECT_EQ(s.substr(0, 8), "e6k5L3s1");
  // 7 groups separated by dashes.
  EXPECT_EQ(std::count(s.begin(), s.end(), '-'), 6);
}

TEST(ArchitectureTest, FromStringRoundTrip) {
  Rng rng(3);
  const SearchSpace& sp = MnasSpace::instance();
  for (int i = 0; i < 50; ++i) {
    const Architecture a = MnasSpace::to_blocks(sp.sample(rng));
    EXPECT_EQ(Architecture::from_string(a.to_string()), a);
  }
}

TEST(ArchitectureTest, FromStringRejectsMalformed) {
  EXPECT_THROW(Architecture::from_string(""), Error);
  EXPECT_THROW(Architecture::from_string("e6k5L3s1"), Error);  // one block
  EXPECT_THROW(Architecture::from_string("garbage-in-seven-pieces-x-y-z"),
               Error);
  // Eight blocks.
  const std::string eight =
      "e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-"
      "e1k3L1s0";
  EXPECT_THROW(Architecture::from_string(eight), Error);
  // Bad se flag.
  const std::string bad_se =
      "e1k3L1s2-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0";
  EXPECT_THROW(Architecture::from_string(bad_se), Error);
  // Non-canonical spellings of a valid string: a trailing '-', text after
  // a block's last number, and a space or a sign before a number.
  const std::string tail = "-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-e1k3L1s0-"
                           "e1k3L1s0";
  ASSERT_NO_THROW(Architecture::from_string("e4k3L3s1" + tail));
  EXPECT_THROW(Architecture::from_string("e4k3L3s1" + tail + "-"), Error);
  EXPECT_THROW(Architecture::from_string("e4k3L3s1junk" + tail), Error);
  EXPECT_THROW(Architecture::from_string("e +4k3L3s1" + tail), Error);
  EXPECT_THROW(Architecture::from_string("e 4k3L3s1" + tail), Error);
  EXPECT_THROW(Architecture::from_string("e04k3L3s1" + tail), Error);
}

TEST(ArchitectureTest, HashEqualityConsistent) {
  const Architecture a = uniform_arch(4, 3, 2, false);
  const Architecture b = uniform_arch(4, 3, 2, false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ArchitectureTest, HashDiscriminates) {
  Rng rng(5);
  const SearchSpace& sp = MnasSpace::instance();
  // Distinct architectures should essentially never collide.
  std::set<std::uint64_t> hashes;
  std::set<std::uint64_t> indices;
  for (int i = 0; i < 2000; ++i) {
    const Arch a = sp.sample(rng);
    if (indices.insert(sp.to_index(a)).second) {
      hashes.insert(MnasSpace::to_blocks(a).hash());
    }
  }
  EXPECT_EQ(hashes.size(), indices.size());
}

TEST(ArchitectureTest, DefaultIsZeroInitialized) {
  const Architecture a;
  for (const auto& b : a.blocks) {
    EXPECT_EQ(b.expansion, 1);
    EXPECT_EQ(b.kernel, 3);
    EXPECT_EQ(b.layers, 1);
    EXPECT_FALSE(b.se);
  }
}

}  // namespace
}  // namespace anb
