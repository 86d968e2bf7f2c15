#include "anb/searchspace/space.hpp"

#include <algorithm>
#include <map>

#include "anb/util/error.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/thread_annotations.hpp"

namespace anb {

namespace {

template <typename T>
int option_index(const std::vector<T>& options, T value, const char* what) {
  auto it = std::find(options.begin(), options.end(), value);
  ANB_CHECK(it != options.end(),
            std::string("MnasSpace: invalid ") + what + " value");
  return static_cast<int>(it - options.begin());
}

/// Registry state: spaces have static storage duration, so bare pointers
/// are safe. Guarded for concurrent first-use registration (a server
/// resolves spaces from its I/O thread and its scheduler workers).
struct Registry {
  Mutex mu;
  std::map<SpaceId, const SearchSpace*> spaces ANB_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry r;
  return r;
}

/// MnasNet is the format's original, implicit space: make it resolvable
/// without any registration call (lazily, under the registry lock).
void ensure_mnas_registered(Registry& r) ANB_REQUIRES(r.mu) {
  const SpaceId id = SpaceId::kMnasNet;
  if (r.spaces.find(id) == r.spaces.end())
    r.spaces.emplace(id, &MnasSpace::instance());
}

}  // namespace

// --- SpaceId ---------------------------------------------------------------

const char* space_name(SpaceId id) {
  switch (id) {
    case SpaceId::kMnasNet:
      return "mnasnet";
    case SpaceId::kFbnet:
      return "fbnet";
  }
  throw Error("space_name: unknown SpaceId " +
              std::to_string(static_cast<unsigned>(id)));
}

SpaceId space_id_from_name(const std::string& name) {
  if (name == "mnasnet") return SpaceId::kMnasNet;
  if (name == "fbnet") return SpaceId::kFbnet;
  throw Error("space_id_from_name: unknown space name '" + name + "'");
}

// --- Arch ------------------------------------------------------------------

std::uint64_t Arch::hash() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;  // FNV-1a 64 prime
  };
  const auto id = static_cast<std::uint16_t>(space);
  mix(static_cast<std::uint8_t>(id & 0xFF));
  mix(static_cast<std::uint8_t>(id >> 8));
  mix(n);
  for (int i = 0; i < n; ++i) mix(static_cast<std::uint8_t>(d[static_cast<std::size_t>(i)]));
  return h;
}

std::string Arch::to_string() const {
  return anb::space(space).arch_to_string(*this);
}

// --- SearchSpace base ------------------------------------------------------

Arch SearchSpace::make_arch() const {
  Arch arch;
  arch.space = id();
  arch.n = static_cast<std::uint8_t>(num_decisions());
  return arch;
}

std::uint64_t SearchSpace::cardinality() const {
  std::uint64_t card = 1;
  for (int s : decision_sizes()) card *= static_cast<std::uint64_t>(s);
  return card;
}

void SearchSpace::validate(const Arch& arch) const {
  ANB_CHECK(arch.space == id(),
            std::string(name()) + ": genotype belongs to a different space");
  ANB_CHECK(arch.n == num_decisions(),
            std::string(name()) + ": genotype has wrong decision count");
  const auto& sizes = decision_sizes();
  for (int i = 0; i < arch.n; ++i) {
    const int v = arch.d[static_cast<std::size_t>(i)];
    ANB_CHECK(v >= 0 && v < sizes[static_cast<std::size_t>(i)],
              std::string(name()) + ": option index out of range");
  }
  for (int i = arch.n; i < kMaxDecisions; ++i) {
    ANB_CHECK(arch.d[static_cast<std::size_t>(i)] == 0,
              std::string(name()) + ": nonzero padding past n");
  }
}

bool SearchSpace::is_valid(const Arch& arch) const {
  try {
    validate(arch);
    return true;
  } catch (const Error&) {
    return false;
  }
}

Arch SearchSpace::mutate(const Arch& arch, Rng& rng) const {
  validate(arch);
  const auto& sizes = decision_sizes();
  // Pick a decision whose domain has >1 option (all in-tree spaces
  // guarantee this) and move it to a different value.
  const auto d = static_cast<std::size_t>(
      rng.uniform_index(static_cast<std::uint64_t>(num_decisions())));
  const int size = sizes[d];
  const int offset = 1 + static_cast<int>(rng.uniform_index(
                             static_cast<std::uint64_t>(size - 1)));
  Arch out = arch;
  out.d[d] = static_cast<std::int8_t>((out.d[d] + offset) % size);
  ANB_ASSERT(!(out == arch), "mutate produced an identical architecture");
  return out;
}

std::vector<Arch> SearchSpace::neighbors(const Arch& arch) const {
  validate(arch);
  const auto& sizes = decision_sizes();
  std::vector<Arch> out;
  for (int d = 0; d < num_decisions(); ++d) {
    for (int v = 0; v < sizes[static_cast<std::size_t>(d)]; ++v) {
      if (v == arch.d[static_cast<std::size_t>(d)]) continue;
      Arch next = arch;
      next.d[static_cast<std::size_t>(d)] = static_cast<std::int8_t>(v);
      out.push_back(next);
    }
  }
  return out;
}

std::uint64_t SearchSpace::to_index(const Arch& arch) const {
  validate(arch);
  const auto& sizes = decision_sizes();
  std::uint64_t index = 0;
  for (int d = 0; d < num_decisions(); ++d) {
    index = index * static_cast<std::uint64_t>(sizes[static_cast<std::size_t>(d)]) +
            static_cast<std::uint64_t>(arch.d[static_cast<std::size_t>(d)]);
  }
  return index;
}

std::vector<std::pair<int, int>> SearchSpace::crossover_groups() const {
  std::vector<std::pair<int, int>> groups;
  groups.reserve(static_cast<std::size_t>(num_decisions()));
  for (int d = 0; d < num_decisions(); ++d) groups.emplace_back(d, d + 1);
  return groups;
}

Arch SearchSpace::from_decisions(const std::vector<int>& decisions) const {
  ANB_CHECK(decisions.size() == static_cast<std::size_t>(num_decisions()),
            std::string(name()) + ": from_decisions wrong length");
  Arch arch = make_arch();
  for (std::size_t i = 0; i < decisions.size(); ++i)
    arch.d[i] = static_cast<std::int8_t>(decisions[i]);
  validate(arch);
  return arch;
}

Arch SearchSpace::from_index(std::uint64_t index) const {
  ANB_CHECK(index < cardinality(),
            std::string(name()) + ": from_index out of range");
  const auto& sizes = decision_sizes();
  Arch arch = make_arch();
  for (int d = num_decisions() - 1; d >= 0; --d) {
    const auto size = static_cast<std::uint64_t>(sizes[static_cast<std::size_t>(d)]);
    arch.d[static_cast<std::size_t>(d)] = static_cast<std::int8_t>(index % size);
    index /= size;
  }
  return arch;
}

// --- MnasSpace -------------------------------------------------------------

const MnasSpace& MnasSpace::instance() {
  static const MnasSpace space;
  return space;
}

const std::vector<int>& MnasSpace::expansion_options() {
  static const std::vector<int> opts{1, 4, 6};
  return opts;
}

const std::vector<int>& MnasSpace::kernel_options() {
  static const std::vector<int> opts{3, 5};
  return opts;
}

const std::vector<int>& MnasSpace::layer_options() {
  static const std::vector<int> opts{1, 2, 3};
  return opts;
}

const std::vector<int>& MnasSpace::decision_sizes() const {
  static const std::vector<int> sizes = [] {
    std::vector<int> out;
    out.reserve(kNumDecisions);
    for (int b = 0; b < kNumBlocks; ++b) {
      out.push_back(static_cast<int>(expansion_options().size()));
      out.push_back(static_cast<int>(kernel_options().size()));
      out.push_back(static_cast<int>(layer_options().size()));
      out.push_back(2);  // se
    }
    return out;
  }();
  return sizes;
}

std::vector<std::pair<int, int>> MnasSpace::crossover_groups() const {
  std::vector<std::pair<int, int>> groups;
  groups.reserve(kNumBlocks);
  for (int b = 0; b < kNumBlocks; ++b) groups.emplace_back(4 * b, 4 * b + 4);
  return groups;
}

int MnasSpace::feature_dim() const {
  // One-hot per block: expansion 3 + kernel 2 + layers 3 + se 1 (binary).
  return kNumBlocks * (3 + 2 + 3 + 1);
}

Arch MnasSpace::from_blocks(const Architecture& blocks) {
  Arch arch;
  arch.space = SpaceId::kMnasNet;
  arch.n = kNumDecisions;
  std::size_t i = 0;
  for (const auto& blk : blocks.blocks) {
    arch.d[i++] = static_cast<std::int8_t>(
        option_index(expansion_options(), blk.expansion, "expansion"));
    arch.d[i++] = static_cast<std::int8_t>(
        option_index(kernel_options(), blk.kernel, "kernel"));
    arch.d[i++] = static_cast<std::int8_t>(
        option_index(layer_options(), blk.layers, "layers"));
    arch.d[i++] = blk.se ? 1 : 0;
  }
  return arch;
}

Architecture MnasSpace::to_blocks(const Arch& arch) {
  instance().validate(arch);
  Architecture out;
  std::size_t i = 0;
  for (auto& blk : out.blocks) {
    blk.expansion =
        expansion_options()[static_cast<std::size_t>(arch.d[i++])];
    blk.kernel = kernel_options()[static_cast<std::size_t>(arch.d[i++])];
    blk.layers = layer_options()[static_cast<std::size_t>(arch.d[i++])];
    blk.se = arch.d[i++] == 1;
  }
  return out;
}

Arch MnasSpace::sample(Rng& rng) const {
  // Draw order matches the pre-interface static sampler exactly (an
  // option pick per decision, a Bernoulli for se) so pinned-seed
  // trajectories and golden checksums survive the redesign.
  Arch arch = make_arch();
  std::size_t i = 0;
  for (int b = 0; b < kNumBlocks; ++b) {
    arch.d[i++] = static_cast<std::int8_t>(
        rng.uniform_index(expansion_options().size()));
    arch.d[i++] = static_cast<std::int8_t>(
        rng.uniform_index(kernel_options().size()));
    arch.d[i++] = static_cast<std::int8_t>(
        rng.uniform_index(layer_options().size()));
    arch.d[i++] = rng.bernoulli(0.5) ? 1 : 0;
  }
  return arch;
}

std::vector<double> MnasSpace::features(const Arch& arch) const {
  const Architecture blocks = to_blocks(arch);
  std::vector<double> f;
  f.reserve(static_cast<std::size_t>(feature_dim()));
  for (const auto& blk : blocks.blocks) {
    for (int opt : expansion_options()) f.push_back(blk.expansion == opt);
    for (int opt : kernel_options()) f.push_back(blk.kernel == opt);
    for (int opt : layer_options()) f.push_back(blk.layers == opt);
    f.push_back(blk.se ? 1.0 : 0.0);
  }
  ANB_ASSERT(f.size() == static_cast<std::size_t>(feature_dim()),
             "feature vector size mismatch");
  return f;
}

std::string MnasSpace::arch_to_string(const Arch& arch) const {
  return to_blocks(arch).to_string();
}

Arch MnasSpace::arch_from_string(const std::string& s) const {
  return from_blocks(Architecture::from_string(s));
}

// --- Registry --------------------------------------------------------------

void register_space(const SearchSpace& sp) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  ensure_mnas_registered(r);
  const auto [it, inserted] = r.spaces.emplace(sp.id(), &sp);
  ANB_CHECK(inserted || it->second == &sp,
            std::string("register_space: SpaceId of '") + sp.name() +
                "' already registered to a different instance");
}

const SearchSpace& space(SpaceId id) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  ensure_mnas_registered(r);
  const auto it = r.spaces.find(id);
  ANB_CHECK(it != r.spaces.end(),
            "space: SpaceId " + std::to_string(static_cast<unsigned>(id)) +
                " is not registered (call register_builtin_spaces())");
  return *it->second;
}

const SearchSpace& space_from_name(const std::string& name) {
  return space(space_id_from_name(name));
}

bool space_registered(SpaceId id) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  ensure_mnas_registered(r);
  return r.spaces.find(id) != r.spaces.end();
}

std::vector<SpaceId> registered_spaces() {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  ensure_mnas_registered(r);
  std::vector<SpaceId> out;
  out.reserve(r.spaces.size());
  for (const auto& [id, sp] : r.spaces) out.push_back(id);
  return out;
}

}  // namespace anb
