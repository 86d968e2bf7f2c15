#include "anb/anb/space_sim.hpp"

#include "anb/fbnet/fbnet_sim.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/util/error.hpp"

namespace anb {

namespace {

class MnasSpaceSim final : public SpaceSim {
 public:
  explicit MnasSpaceSim(std::uint64_t world_seed) : sim_(world_seed) {}

  const SearchSpace& space() const override { return MnasSpace::instance(); }
  TrainResult train(const Arch& arch, const TrainingScheme& scheme,
                    std::uint64_t run_seed) const override {
    return sim_.train(MnasSpace::to_blocks(arch), scheme, run_seed);
  }
  double reference_accuracy(const Arch& arch) const override {
    return sim_.reference_accuracy(MnasSpace::to_blocks(arch));
  }
  double expected_accuracy(const Arch& arch,
                           const TrainingScheme& scheme) const override {
    return sim_.expected_accuracy(MnasSpace::to_blocks(arch), scheme);
  }
  double training_cost_hours(const Arch& arch,
                             const TrainingScheme& scheme) const override {
    return sim_.training_cost_hours(MnasSpace::to_blocks(arch), scheme);
  }
  double int8_accuracy_drop(const Arch& arch) const override {
    return sim_.int8_accuracy_drop(MnasSpace::to_blocks(arch));
  }
  ModelIR lower(const Arch& arch, int resolution) const override {
    return build_ir(MnasSpace::to_blocks(arch), resolution);
  }

 private:
  TrainingSimulator sim_;
};

class FbnetSpaceSim final : public SpaceSim {
 public:
  explicit FbnetSpaceSim(std::uint64_t world_seed) : sim_(world_seed) {}

  const SearchSpace& space() const override {
    return FbnetSpace::instance();
  }
  TrainResult train(const Arch& arch, const TrainingScheme& scheme,
                    std::uint64_t run_seed) const override {
    return sim_.train(FbnetSpace::to_ops(arch), scheme, run_seed);
  }
  double reference_accuracy(const Arch& arch) const override {
    return sim_.reference_accuracy(FbnetSpace::to_ops(arch));
  }
  double expected_accuracy(const Arch& arch,
                           const TrainingScheme& scheme) const override {
    return sim_.expected_accuracy(FbnetSpace::to_ops(arch), scheme);
  }
  double training_cost_hours(const Arch& arch,
                             const TrainingScheme& scheme) const override {
    return sim_.training_cost_hours(FbnetSpace::to_ops(arch), scheme);
  }
  double int8_accuracy_drop(const Arch& arch) const override {
    return sim_.int8_accuracy_drop(FbnetSpace::to_ops(arch));
  }
  ModelIR lower(const Arch& arch, int resolution) const override {
    return build_fbnet_ir(FbnetSpace::to_ops(arch), resolution);
  }

 private:
  FbnetTrainingSimulator sim_;
};

}  // namespace

std::unique_ptr<SpaceSim> make_space_sim(SpaceId id,
                                         std::uint64_t world_seed) {
  register_builtin_spaces();
  ANB_CHECK(space_registered(id),
            "make_space_sim: unknown space id " +
                std::to_string(static_cast<int>(id)));
  switch (id) {
    case SpaceId::kMnasNet:
      return std::make_unique<MnasSpaceSim>(world_seed);
    case SpaceId::kFbnet:
      return std::make_unique<FbnetSpaceSim>(world_seed);
  }
  throw Error("make_space_sim: unknown space id " +
              std::to_string(static_cast<int>(id)));
}

}  // namespace anb
