#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace anb {

/// Stable identifier of a registered search space. Values are part of the
/// persistence and wire formats (the .anbb space section and the serve
/// protocol carry them as integers), so they are append-only: never renumber
/// or reuse an id. Benchmarks saved before the space section existed are
/// MnasNet by definition (the format's original, implicit space).
enum class SpaceId : std::uint16_t {
  kMnasNet = 1,
  kFbnet = 2,
};

/// Canonical lower-case space name ("mnasnet", "fbnet"); throws anb::Error
/// for an id that is not a known SpaceId value.
const char* space_name(SpaceId id);

/// Exact-match inverse of space_name (same contract as
/// device_kind_from_name: no prefixes, no case folding); throws anb::Error.
SpaceId space_id_from_name(const std::string& name);

/// Upper bound on decisions per genotype across all registered spaces
/// (MnasNet uses 28, FBNet 22). A new space needing more would grow this
/// constant — an in-memory layout change only, no persisted format carries
/// raw Arch bytes.
inline constexpr int kMaxDecisions = 32;

/// Space-tagged opaque genotype: the value type every space-generic layer
/// (NAS optimizers, benchmark queries, collection, serve) traffics in.
///
/// The representation is the flat categorical decision vector of the owning
/// space — `d[i]` is an option index in [0, decision_sizes()[i]) — padded
/// with zeros past `n` so defaulted equality and byte-wise hashing are
/// well-defined. Interpretation of the decisions (block configs, layer ops,
/// feature encodings, IR lowering) belongs to the SearchSpace registered
/// under `space`; this struct is deliberately dumb.
struct Arch {
  SpaceId space = SpaceId::kMnasNet;
  std::uint8_t n = 0;
  std::array<std::int8_t, kMaxDecisions> d{};

  bool operator==(const Arch&) const = default;

  /// Stable 64-bit hash (FNV-1a over space id and the decision bytes);
  /// equal genotypes hash equal. Used to key caches and dedupe samples.
  std::uint64_t hash() const;

  /// Human-readable id in the owning space's native format (the MnasNet
  /// "e6k5L3s1-..." compact form, FBNet's dash-separated op names).
  /// Requires the owning space to be registered.
  std::string to_string() const;
};

}  // namespace anb
