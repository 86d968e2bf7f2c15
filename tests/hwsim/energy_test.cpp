#include <gtest/gtest.h>

#include "anb/hwsim/device.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/searchspace/zoo.hpp"
#include "anb/util/rng.hpp"
#include "uniform_arch.hpp"

namespace anb {
namespace {

TEST(EnergyTest, PositiveFiniteOnAllDevices) {
  const ModelIR b0 = build_ir(effnet_b0_like().arch, 224);
  for (const auto& device : device_catalog()) {
    const double mj = device.energy_mj_per_image(b0);
    EXPECT_TRUE(std::isfinite(mj)) << device.name();
    EXPECT_GT(mj, 0.0) << device.name();
  }
}

TEST(EnergyTest, PlausibleMagnitudesForB0) {
  // EfficientNet-B0-class inference: edge accelerators a few mJ to tens of
  // mJ per image, datacenter parts tens to hundreds.
  const ModelIR b0 = build_ir(effnet_b0_like().arch, 224);
  const double zcu = make_device(DeviceKind::kZcu102).energy_mj_per_image(b0);
  const double a100 = make_device(DeviceKind::kA100).energy_mj_per_image(b0);
  EXPECT_GT(zcu, 1.0);
  EXPECT_LT(zcu, 200.0);
  EXPECT_GT(a100, 1.0);
  EXPECT_LT(a100, 500.0);
}

TEST(EnergyTest, EdgeDpuMoreEfficientThanGpu) {
  // Per-image energy: int8 DPU at the edge beats a datacenter GPU on this
  // model class — the reason accelerator-aware search matters for edge.
  const ModelIR b0 = build_ir(effnet_b0_like().arch, 224);
  EXPECT_LT(make_device(DeviceKind::kVck190).energy_mj_per_image(b0),
            make_device(DeviceKind::kA100).energy_mj_per_image(b0));
}

TEST(EnergyTest, MonotoneInModelSize) {
  const ModelIR small = build_ir(uniform_arch(1, 3, 1, false), 224);
  const ModelIR big = build_ir(uniform_arch(6, 5, 3, true), 224);
  for (const auto& device : device_catalog()) {
    EXPECT_GT(device.energy_mj_per_image(big),
              device.energy_mj_per_image(small))
        << device.name();
  }
}

TEST(EnergyTest, MeasurementProtocolApplies) {
  const ModelIR b0 = build_ir(effnet_b0_like().arch, 224);
  const Device dev = make_device(DeviceKind::kZcu102);
  const double expected = dev.energy_mj_per_image(b0);
  EXPECT_DOUBLE_EQ(dev.measure_energy(b0, 3), dev.measure_energy(b0, 3));
  double acc = 0.0;
  for (int s = 0; s < 64; ++s)
    acc += dev.measure_energy(b0, static_cast<std::uint64_t>(s));
  EXPECT_NEAR(acc / 64 / expected, 1.0, 0.02);
}

TEST(EnergyTest, StaticPlusSwitchingStructure) {
  // Energy strictly exceeds the static-power floor (idle power x time), and
  // the switching share varies across architectures (compute-heavy models
  // burn proportionally more dynamic energy).
  Rng rng(3);
  const Device dev = make_device(DeviceKind::kA100);
  double min_share = 1.0, max_share = 0.0;
  for (int i = 0; i < 40; ++i) {
    const ModelIR ir = build_ir(MnasSpace::instance().sample(rng), 224);
    const int batch = dev.spec().measure_batch;
    const double static_mj = dev.spec().idle_power_w *
                             dev.batch_time_s(ir, batch) /
                             (dev.spec().compute_cores * batch) * 1e3;
    const double total_mj = dev.energy_mj_per_image(ir);
    EXPECT_GT(total_mj, static_mj);
    const double share = 1.0 - static_mj / total_mj;
    min_share = std::min(min_share, share);
    max_share = std::max(max_share, share);
  }
  EXPECT_GT(max_share, min_share + 0.01);
}

}  // namespace
}  // namespace anb
