#include "anb/fbnet/fbnet_space.hpp"

#include <cmath>
#include <sstream>

#include "anb/ir/builder.hpp"
#include "anb/util/error.hpp"

namespace anb {

const char* fbnet_op_name(FbnetOp op) {
  switch (op) {
    case FbnetOp::kE1K3: return "e1k3";
    case FbnetOp::kE1K5: return "e1k5";
    case FbnetOp::kE3K3: return "e3k3";
    case FbnetOp::kE3K5: return "e3k5";
    case FbnetOp::kE6K3: return "e6k3";
    case FbnetOp::kE6K5: return "e6k5";
    case FbnetOp::kSkip: return "skip";
  }
  return "unknown";
}

int fbnet_op_expansion(FbnetOp op) {
  switch (op) {
    case FbnetOp::kE1K3:
    case FbnetOp::kE1K5: return 1;
    case FbnetOp::kE3K3:
    case FbnetOp::kE3K5: return 3;
    case FbnetOp::kE6K3:
    case FbnetOp::kE6K5: return 6;
    case FbnetOp::kSkip: break;
  }
  throw Error("fbnet_op_expansion: skip has no expansion");
}

int fbnet_op_kernel(FbnetOp op) {
  switch (op) {
    case FbnetOp::kE1K3:
    case FbnetOp::kE3K3:
    case FbnetOp::kE6K3: return 3;
    case FbnetOp::kE1K5:
    case FbnetOp::kE3K5:
    case FbnetOp::kE6K5: return 5;
    case FbnetOp::kSkip: break;
  }
  throw Error("fbnet_op_kernel: skip has no kernel");
}

const FbnetSpace& FbnetSpace::instance() {
  static const FbnetSpace space;
  return space;
}

const std::array<FbnetSpace::LayerSlot, kFbnetNumLayers>& FbnetSpace::slots() {
  // FBNet macro: per-stage (layers, channels, stride of the first layer):
  // (1,16,1) (4,24,2) (4,32,2) (4,64,2) (4,112,1) (4,184,2) (1,352,1).
  static const std::array<LayerSlot, kFbnetNumLayers> table = [] {
    std::array<LayerSlot, kFbnetNumLayers> slots{};
    struct Stage {
      int layers, channels, stride;
    };
    const Stage stages[] = {{1, 16, 1},  {4, 24, 2}, {4, 32, 2}, {4, 64, 2},
                            {4, 112, 1}, {4, 184, 2}, {1, 352, 1}};
    int i = 0;
    int in_c = kStemChannels;
    for (const auto& stage : stages) {
      for (int l = 0; l < stage.layers; ++l) {
        LayerSlot slot;
        slot.out_c = stage.channels;
        slot.stride = l == 0 ? stage.stride : 1;
        slot.skip_allowed = slot.stride == 1 && in_c == stage.channels;
        slots[static_cast<std::size_t>(i++)] = slot;
        in_c = stage.channels;
      }
    }
    ANB_ASSERT(i == kFbnetNumLayers, "FBNet slot table size mismatch");
    return slots;
  }();
  return table;
}

int FbnetSpace::num_ops(int layer) {
  ANB_CHECK(layer >= 0 && layer < kFbnetNumLayers,
            "FbnetSpace::num_ops: layer out of range");
  return slots()[static_cast<std::size_t>(layer)].skip_allowed
             ? kFbnetNumOps
             : kFbnetNumOps - 1;
}

double FbnetSpace::log10_cardinality() {
  double log10 = 0.0;
  for (int i = 0; i < kFbnetNumLayers; ++i) log10 += std::log10(num_ops(i));
  return log10;
}

const std::vector<int>& FbnetSpace::decision_sizes() const {
  static const std::vector<int> sizes = [] {
    std::vector<int> out;
    out.reserve(kFbnetNumLayers);
    for (int i = 0; i < kFbnetNumLayers; ++i) out.push_back(num_ops(i));
    return out;
  }();
  return sizes;
}

Arch FbnetSpace::sample(Rng& rng) const {
  // One option pick per layer, in layer order — the draw pattern of the
  // pre-interface static sampler, so pinned-seed fbnet experiments (e13)
  // reproduce bit-identically.
  Arch arch = make_arch();
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    arch.d[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(
        rng.uniform_index(static_cast<std::uint64_t>(num_ops(i))));
  }
  return arch;
}

std::vector<double> FbnetSpace::features(const Arch& arch) const {
  validate(arch);
  std::vector<double> f(
      static_cast<std::size_t>(kFbnetNumLayers * kFbnetNumOps), 0.0);
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    f[static_cast<std::size_t>(i * kFbnetNumOps +
                               arch.d[static_cast<std::size_t>(i)])] = 1.0;
  }
  return f;
}

std::string FbnetSpace::arch_to_string(const Arch& arch) const {
  validate(arch);
  std::string out;
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    if (i) out += '-';
    out += fbnet_op_name(op_at(arch, i));
  }
  return out;
}

Arch FbnetSpace::arch_from_string(const std::string& s) const {
  Arch arch = make_arch();
  std::istringstream in(s);
  std::string token;
  int i = 0;
  while (std::getline(in, token, '-')) {
    ANB_CHECK(i < kFbnetNumLayers,
              "FbnetSpace::arch_from_string: too many layers");
    int op = 0;
    while (op < kFbnetNumOps &&
           token != fbnet_op_name(static_cast<FbnetOp>(op)))
      ++op;
    ANB_CHECK(op < kFbnetNumOps,
              "FbnetSpace::arch_from_string: unknown op '" + token + "'");
    // Skip is the last option, so it is out of range exactly where illegal.
    ANB_CHECK(op < num_ops(i),
              "FbnetSpace::arch_from_string: skip is illegal at layer " +
                  std::to_string(i) + " (shape-changing position)");
    arch.d[static_cast<std::size_t>(i++)] = static_cast<std::int8_t>(op);
  }
  ANB_CHECK(i == kFbnetNumLayers,
            "FbnetSpace::arch_from_string: expected " +
                std::to_string(kFbnetNumLayers) + " layers, got " +
                std::to_string(i));
  ANB_CHECK(arch_to_string(arch) == s,
            "FbnetSpace::arch_from_string: non-canonical string '" + s + "'");
  return arch;
}

ModelIR build_fbnet_ir(const Arch& arch, int resolution) {
  FbnetSpace::instance().validate(arch);
  ANB_CHECK(resolution >= 32 && resolution <= 1024,
            "build_fbnet_ir: resolution must be in [32, 1024]");

  ModelIR ir;
  ir.resolution = resolution;

  IrBuilder b(resolution);
  b.conv("stem.conv", FbnetSpace::kStemChannels, 3, 2);
  const auto& slots = FbnetSpace::slots();
  for (int i = 0; i < kFbnetNumLayers; ++i) {
    const auto op = FbnetSpace::op_at(arch, i);
    if (op == FbnetOp::kSkip) continue;  // identity
    const auto& slot = slots[static_cast<std::size_t>(i)];
    b.mbconv("l" + std::to_string(i + 1), slot.out_c, fbnet_op_expansion(op),
             fbnet_op_kernel(op), slot.stride, /*se=*/false);
  }
  b.conv("head.conv", FbnetSpace::kHeadChannels, 1, 1);
  b.global_avg_pool("head.pool");
  b.fully_connected("head.fc", MacroSkeleton::kNumClasses);

  ir.layers = b.take();
  return ir;
}

void register_builtin_spaces() { register_space(FbnetSpace::instance()); }

}  // namespace anb
