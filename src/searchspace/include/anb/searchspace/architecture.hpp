#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace anb {

/// Number of sequentially connected searchable blocks/stages in the MnasNet
/// search space (paper §3.1).
inline constexpr int kNumBlocks = 7;

/// Per-block searchable configuration of the MnasNet space.
///
/// Each block hosts `layers` mobile inverted bottleneck (MBConv) layers with
/// a shared expansion factor, depthwise kernel size, and an optional
/// squeeze-and-excitation (SE) module. Allowed values (paper §3.1):
///   expansion ∈ {1, 4, 6}, kernel ∈ {3, 5}, layers ∈ {1, 2, 3}, se ∈ {0, 1}.
struct BlockConfig {
  int expansion = 1;
  int kernel = 3;
  int layers = 1;
  bool se = false;

  bool operator==(const BlockConfig&) const = default;
};

/// A point in the MnasNet search space: 7 block configurations.
///
/// This is a plain value type; validity (allowed option values) is enforced
/// by SearchSpace::validate. The macro-skeleton (channel widths, strides,
/// stem/head) is fixed and owned by the IR expansion (anb/ir).
struct Architecture {
  std::array<BlockConfig, kNumBlocks> blocks{};

  bool operator==(const Architecture&) const = default;

  /// Compact human-readable id, e.g. "e6k5L3s1-..." (one group per block).
  std::string to_string() const;

  /// Parse the to_string() format; throws anb::Error unless `s` is exactly
  /// the to_string() of the result (trailing text, signs and spaces inside a
  /// number, leading zeros and a trailing '-' are all rejected).
  static Architecture from_string(const std::string& s);

  /// Stable 64-bit hash (FNV-1a over the canonical encoding); architectures
  /// comparing equal hash equal. Used to key caches and dedupe samples.
  std::uint64_t hash() const;
};

}  // namespace anb
