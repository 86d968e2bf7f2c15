#include "anb/searchspace/zoo.hpp"

#include "anb/searchspace/space.hpp"

namespace anb {

namespace {

/// Parses one baseline's canonical string (throws on out-of-space values).
Arch make(const char* blocks) {
  return MnasSpace::instance().arch_from_string(blocks);
}

}  // namespace

ReferenceModel effnet_b0_like() {
  // EfficientNet-B0 stages (e, k, L, se) with L clipped into {1,2,3}:
  // true B0 repeats are (1,2,2,3,3,4,1).
  return {"effnet-b0",
          make("e1k3L1s1-e6k3L2s1-e6k5L2s1-"
               "e6k3L3s1-e6k5L3s1-e6k5L3s1-e6k3L1s1")};
}

ReferenceModel mobilenet_v3_like() {
  // MobileNetV3-Large flavor: lower expansions early, SE from stage 3 on,
  // 5x5 kernels in the SE stages.
  return {"mobilenetv3-l",
          make("e1k3L1s0-e4k3L2s0-e4k5L3s1-"
               "e6k3L3s0-e6k3L2s1-e6k5L3s1-e6k5L1s1")};
}

ReferenceModel effnet_edgetpu_s_like() {
  // EfficientNet-EdgeTPU-S: designed for a DPU-like accelerator — drops SE
  // entirely and prefers 3x3 kernels and ordinary convs in early stages.
  return {"effnet-edgetpu-s",
          make("e1k3L1s0-e6k3L2s0-e6k3L3s0-"
               "e6k3L3s0-e6k5L3s0-e6k5L3s0-e6k3L1s0")};
}

ReferenceModel mnasnet_a1_like() {
  // MnasNet-A1: mixed kernels, SE on some stages, expansions mostly 6 with
  // 3 on early stages (the space lacks e=3; 4 is the nearest option).
  return {"mnasnet-a1",
          make("e1k3L1s0-e6k3L2s0-e4k5L3s1-"
               "e6k3L3s0-e6k3L2s1-e6k5L3s1-e6k3L1s0")};
}

std::vector<ReferenceModel> reference_zoo() {
  return {effnet_b0_like(), mobilenet_v3_like(), effnet_edgetpu_s_like(),
          mnasnet_a1_like()};
}

}  // namespace anb
