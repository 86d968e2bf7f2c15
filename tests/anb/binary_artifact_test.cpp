// The tri-modal differential contract of the .anbb binary artifact: a
// benchmark loaded from the text format, from a binary read, and from an
// mmap of the binary file must produce *bit-identical* predictions for
// every surrogate family and every MetricKey, on the scalar and the
// batched query paths. Plus the format-level rejection guarantees
// (version/checksum mismatch), save→load→save byte-stability, and
// identical bytes from two identically seeded fits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/util/binary.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "anb/util/io.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

Dataset make_dataset(int n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(static_cast<std::size_t>(MnasSpace::instance().feature_dim()));
  for (int i = 0; i < n; ++i) {
    const Arch arch = MnasSpace::instance().sample(rng);
    const std::vector<double> x = MnasSpace::instance().features(arch);
    double y = 0.0;
    for (std::size_t k = 0; k < x.size(); ++k)
      y += x[k] * (k % 3 == 0 ? 0.5 : -0.25);
    ds.add(x, y + rng.uniform() * 0.01);
  }
  return ds;
}

/// A benchmark exercising every surrogate family: ensemble accuracy
/// (so noisy/dist queries work) + one perf surrogate per family.
AccelNASBench make_full_benchmark() {
  const Dataset train = make_dataset(120, 21);
  const auto fitted = [&](std::unique_ptr<Surrogate> model) {
    Rng fit_rng(22);
    model->fit(train, fit_rng);
    return model;
  };
  GbdtParams gp;
  gp.n_estimators = 6;
  HistGbdtParams hp;
  hp.n_estimators = 6;
  RandomForestParams fp;
  fp.n_trees = 6;
  SvrParams ep;
  ep.kind = SvrKind::kEpsilon;
  ep.gamma = 0.25;
  SvrParams np;
  np.kind = SvrKind::kNu;
  np.nu = 0.4;
  np.gamma = 0.25;

  AccelNASBench bench;
  bench.set_accuracy_surrogate(fitted(std::make_unique<EnsembleSurrogate>(
      [gp] { return std::make_unique<Gbdt>(gp); }, /*size=*/3)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kA100, PerfMetric::kThroughput},
      fitted(std::make_unique<Gbdt>(gp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kZcu102, PerfMetric::kThroughput},
      fitted(std::make_unique<HistGbdt>(hp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kZcu102, PerfMetric::kLatency},
      fitted(std::make_unique<RandomForest>(fp)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kVck190, PerfMetric::kThroughput},
      fitted(std::make_unique<Svr>(ep)));
  bench.set_perf_surrogate(
      MetricKey{DeviceKind::kVck190, PerfMetric::kLatency},
      fitted(std::make_unique<Svr>(np)));
  return bench;
}

std::vector<Arch> make_probes(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Arch> archs;
  archs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) archs.push_back(MnasSpace::instance().sample(rng));
  return archs;
}

/// Bit-identity across two loaded benchmarks on every query path. Uses
/// EXPECT_EQ on doubles deliberately: the contract is exact bits, not
/// tolerance.
void expect_identical(const AccelNASBench& a, const AccelNASBench& b,
                      const std::string& what) {
  const std::vector<Arch> probes = make_probes(40, 23);
  ASSERT_EQ(a.perf_targets(), b.perf_targets()) << what;
  for (const Arch& arch : probes) {
    EXPECT_EQ(a.query_accuracy(arch), b.query_accuracy(arch)) << what;
    const auto [mean_a, std_a] = a.query_accuracy_dist(arch);
    const auto [mean_b, std_b] = b.query_accuracy_dist(arch);
    EXPECT_EQ(mean_a, mean_b) << what;
    EXPECT_EQ(std_a, std_b) << what;
    for (const MetricKey key : a.perf_targets())
      EXPECT_EQ(a.query_perf(arch, key), b.query_perf(arch, key))
          << what << " " << dataset_name(key);
  }
  EXPECT_EQ(a.query_accuracy_batch(probes), b.query_accuracy_batch(probes))
      << what;
  for (const MetricKey key : a.perf_targets())
    EXPECT_EQ(a.query_perf_batch(probes, key),
              b.query_perf_batch(probes, key))
        << what << " batch " << dataset_name(key);
  // Noisy queries draw from the same distribution state: identical seeds
  // must give identical draws.
  Rng noise_a(31), noise_b(31);
  for (const Arch& arch : probes)
    EXPECT_EQ(a.query_accuracy_noisy(arch, noise_a),
              b.query_accuracy_noisy(arch, noise_b))
        << what;
}

class BinaryArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_path_ = scratch_path("binary_artifact.json");
    anbb_path_ = scratch_path("binary_artifact.anbb");
    const AccelNASBench bench = make_full_benchmark();
    bench.save(text_path_);
    bench.save_binary(anbb_path_);
  }

  std::string text_path_;
  std::string anbb_path_;
};

TEST_F(BinaryArtifactTest, TriModalLoadsAreBitIdentical) {
  const AccelNASBench text = AccelNASBench::load(text_path_);
  const AccelNASBench heap =
      AccelNASBench::load_binary(anbb_path_, io::MapMode::kCopy);
  const AccelNASBench mapped =
      AccelNASBench::load_binary(anbb_path_, io::MapMode::kMap);
  expect_identical(text, heap, "text vs binary(heap)");
  expect_identical(text, mapped, "text vs binary(mmap)");
  expect_identical(heap, mapped, "binary(heap) vs binary(mmap)");
}

TEST_F(BinaryArtifactTest, OpenSniffsBothFormats) {
  const AccelNASBench from_text = AccelNASBench::open(text_path_);
  const AccelNASBench from_anbb = AccelNASBench::open(anbb_path_);
  expect_identical(from_text, from_anbb, "open(text) vs open(anbb)");
}

TEST_F(BinaryArtifactTest, SaveLoadSaveIsByteStable) {
  const AccelNASBench reloaded = AccelNASBench::load_binary(anbb_path_);
  const std::string again = scratch_path("binary_artifact_again.anbb");
  reloaded.save_binary(again);
  const auto first = io::Buffer::read_file(anbb_path_);
  const auto second = io::Buffer::read_file(again);
  ASSERT_EQ(first->size(), second->size());
  EXPECT_EQ(std::memcmp(first->data(), second->data(), first->size()), 0);
}

TEST_F(BinaryArtifactTest, RefitSaveIsByteIdentical) {
  // Fitting the same models from the same seeds must save the same bytes:
  // nothing uninitialized (struct padding included) reaches the file.
  const std::string again = scratch_path("binary_artifact_refit.anbb");
  make_full_benchmark().save_binary(again);
  const auto first = io::Buffer::read_file(anbb_path_);
  const auto second = io::Buffer::read_file(again);
  ASSERT_EQ(first->size(), second->size());
  EXPECT_EQ(std::memcmp(first->data(), second->data(), first->size()), 0);
}

std::string file_bytes(const std::string& path) {
  const auto buf = io::Buffer::read_file(path);
  return std::string(buf->data(), buf->size());
}

TEST_F(BinaryArtifactTest, CrossFormatConversionsAreLossless) {
  // text -> load -> .anbb -> load -> text gives the original text bytes.
  const std::string anbb = scratch_path("binary_artifact_cross.anbb");
  AccelNASBench::load(text_path_).save_binary(anbb);
  const std::string text = scratch_path("binary_artifact_cross.json");
  AccelNASBench::load_binary(anbb).save(text);
  EXPECT_EQ(file_bytes(text), file_bytes(text_path_));

  // .anbb -> load -> text -> load -> .anbb gives the original binary bytes.
  const std::string text2 = scratch_path("binary_artifact_cross2.json");
  AccelNASBench::load_binary(anbb_path_).save(text2);
  const std::string anbb2 = scratch_path("binary_artifact_cross2.anbb");
  AccelNASBench::load(text2).save_binary(anbb2);
  EXPECT_EQ(file_bytes(anbb2), file_bytes(anbb_path_));
}

TEST_F(BinaryArtifactTest, MappedBenchmarkSurvivesUnlink) {
  const AccelNASBench mapped =
      AccelNASBench::load_binary(anbb_path_, io::MapMode::kMap);
  ASSERT_EQ(std::remove(anbb_path_.c_str()), 0);
  const std::vector<Arch> probes = make_probes(5, 29);
  for (const Arch& arch : probes)
    EXPECT_TRUE(std::isfinite(mapped.query_accuracy(arch)));
}

TEST_F(BinaryArtifactTest, VersionMismatchRejected) {
  auto image = io::Buffer::read_file(anbb_path_);
  std::vector<char> bytes(image->data(), image->data() + image->size());
  std::uint32_t bumped = bin::kFormatVersion + 1;
  std::memcpy(bytes.data() + 12, &bumped, sizeof(bumped));
  // Keep the checksum honest so the *version* check is what rejects.
  std::uint64_t zero = 0;
  std::memcpy(bytes.data() + bin::kChecksumOffset, &zero, sizeof(zero));
  const std::uint64_t sum = bin::checksum64(bytes);
  std::memcpy(bytes.data() + bin::kChecksumOffset, &sum, sizeof(sum));
  const std::string path = scratch_path("binary_artifact_version.anbb");
  io::write_file(path, bytes);
  try {
    AccelNASBench::load_binary(path);
    ADD_FAILURE() << "future-version artifact loaded";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("version"), std::string::npos) << msg;
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
}

TEST_F(BinaryArtifactTest, ChecksumMismatchRejected) {
  auto image = io::Buffer::read_file(anbb_path_);
  std::vector<char> bytes(image->data(), image->data() + image->size());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  const std::string path = scratch_path("binary_artifact_checksum.anbb");
  io::write_file(path, bytes);
  for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
    try {
      AccelNASBench::load_binary(path, mode);
      ADD_FAILURE() << "bit-flipped artifact loaded";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
    }
  }
}

TEST_F(BinaryArtifactTest, TextLoaderNamesThePathOnFailure) {
  const std::string path = scratch_path("binary_artifact_bad.json");
  write_text_file(path, "{\"format\": \"not-a-benchmark\"}");
  for (const auto load : {+[](const std::string& p) {
                            return AccelNASBench::load(p);
                          },
                          +[](const std::string& p) {
                            return AccelNASBench::open(p);
                          }}) {
    try {
      load(path);
      ADD_FAILURE() << "bad format tag loaded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(BinaryArtifactTest, FaultSitesCoverTheBinaryPaths) {
  // The save/load fault sites injected for the text format fire on the
  // binary paths too — a short write leaves a file load_binary rejects,
  // and a short read rejects an intact file.
  const std::string path = scratch_path("binary_artifact_fault.anbb");
  {
    fault::ScopedFault guard(kBenchmarkSaveFaultSite,
                             fault::Policy::one_shot());
    EXPECT_THROW(make_full_benchmark().save_binary(path), Error);
  }
  // The truncated container on disk must never load as a valid benchmark.
  EXPECT_THROW(AccelNASBench::load_binary(path), Error);

  {
    fault::ScopedFault guard(kBenchmarkLoadFaultSite, fault::Policy::always());
    EXPECT_THROW(AccelNASBench::load_binary(anbb_path_), Error);
    EXPECT_THROW(AccelNASBench::open(anbb_path_), Error);
  }
  // The fault was in the (simulated) read, not the file: clean loads work.
  EXPECT_TRUE(AccelNASBench::load_binary(anbb_path_).has_accuracy());
}

// ---------------------------------------------------------------------------
// Format goldens. A hand-written text artifact (no fitting, so no libm or
// training bits are involved) with one model of every family: it must
// re-save to the same text byte for byte, its .anbb bytes are pinned by
// FNV-1a, and the .anbb converts back to the same text. A change to either
// format, or to how a family renders into it, fails here.

const char* const kGoldenText =
    R"({"accuracy":{"members":[)"
    R"({"base_score":70,"params":{"colsample":1,"gamma":0,"lambda":1,)"
    R"("learning_rate":0.5,"max_depth":1,"min_child_weight":1,)"
    R"("n_estimators":1,"subsample":1},"trees":[[)"
    R"({"f":2,"l":1,"r":2,"t":0.5,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":-1.5},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":2}]],"type":"xgb"},)"
    R"({"params":{"bootstrap_frac":0.5,"max_depth":2,)"
    R"("max_features_frac":0.5,"min_samples_leaf":1,"n_trees":1},)"
    R"("trees":[[{"f":-1,"l":-1,"r":-1,"t":0,"v":71.25}]],"type":"rf"})"
    R"(],"type":"ensemble"},)"
    R"("format":"accel-nasbench-v1","perf":{)"
    R"("a100/Thr":{"base_score":0.5,"params":{"colsample":1,"gamma":0,)"
    R"("lambda":1,"learning_rate":0.25,"max_depth":2,"min_child_weight":1,)"
    R"("n_estimators":2,"subsample":1},"trees":[[)"
    R"({"f":3,"l":1,"r":2,"t":0.5,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":-0.125},)"
    R"({"f":0,"l":3,"r":4,"t":0.75,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":0.25},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":0.375}],)"
    R"([{"f":-1,"l":-1,"r":-1,"t":0,"v":0.0625}]],"type":"xgb"},)"
    R"("vck190/Lat":{"bias":-0.25,"effective_epsilon":0.3125,)"
    R"("feat_mean":[0,0,0],"feat_scale":[1,1,1],"params":{"c":2,)"
    R"("epsilon":0.05,"gamma":-1,"nu":0.4,"tolerance":0.001},)"
    R"("support_vectors":[[0.5,0.5,-1]],"sv_coef":[1.5],"target_mean":4,)"
    R"("target_scale":0.5,"type":"nusvr"},)"
    R"("vck190/Thr":{"bias":0.125,"effective_epsilon":0.05,)"
    R"("feat_mean":[0.5,0.25,1],"feat_scale":[0.5,1,2],"params":{"c":10,)"
    R"("epsilon":0.05,"gamma":0.25,"nu":0.5,"tolerance":0.001},)"
    R"("support_vectors":[[1,-1,0.5],[-0.5,0.25,0]],)"
    R"("sv_coef":[0.75,-0.375],"target_mean":100,"target_scale":8,)"
    R"("type":"esvr"},)"
    R"("zcu102/Lat":{"params":{"bootstrap_frac":1,"max_depth":3,)"
    R"("max_features_frac":-1,"min_samples_leaf":2,"n_trees":2},"trees":[[)"
    R"({"f":4,"l":1,"r":2,"t":0.5,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":12.5},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":20}],[)"
    R"({"f":0,"l":1,"r":2,"t":0.25,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":10},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":17.75}]],"type":"rf"},)"
    R"("zcu102/Thr":{"base_score":-1.5,"params":{"colsample":0.75,)"
    R"("lambda":1,"learning_rate":0.125,"max_bins":16,"max_leaves":3,)"
    R"("min_child_weight":1,"min_split_gain":1e-12,"n_estimators":1,)"
    R"("subsample":1},"trees":[[)"
    R"({"f":1,"l":1,"r":2,"t":0.5,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":2.5},)"
    R"({"f":2,"l":3,"r":4,"t":1.5,"v":0},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":-0.5},)"
    R"({"f":-1,"l":-1,"r":-1,"t":0,"v":1}]],"type":"lgb"}},)"
    R"("space":"mnasnet"})";

/// FNV-1a 64 of the .anbb file save_binary() writes for kGoldenText.
constexpr std::uint64_t kGoldenAnbbFnv = 0xc6243e48faf40c49ull;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(FormatGoldenTest, HandWrittenTextResavesByteIdentical) {
  const std::string in = scratch_path("format_golden.json");
  write_text_file(in, kGoldenText);
  const std::string out = scratch_path("format_golden_resaved.json");
  AccelNASBench::load(in).save(out);
  EXPECT_EQ(read_text_file(out), kGoldenText);
}

TEST(FormatGoldenTest, BinaryBytesArePinnedAndConvertBack) {
  const std::string in = scratch_path("format_golden.json");
  write_text_file(in, kGoldenText);
  const std::string anbb = scratch_path("format_golden.anbb");
  AccelNASBench::load(in).save_binary(anbb);
  EXPECT_EQ(fnv1a(file_bytes(anbb)), kGoldenAnbbFnv)
      << std::hex << fnv1a(file_bytes(anbb));
  for (const io::MapMode mode : {io::MapMode::kCopy, io::MapMode::kMap}) {
    EXPECT_EQ(AccelNASBench::load_binary(anbb, mode).to_json().dump(),
              kGoldenText);
  }
}

}  // namespace
}  // namespace anb
