// Cross-space mini-pipeline (tier-1): the space-generic stack — sampling,
// NAS optimizers, benchmark construction, artifact round-trip — run over
// BOTH registered spaces in one suite.
//
//  1. Golden trajectories per space: RS and RE with pinned seeds against a
//     space-generic objective built from exact binary fractions, compared
//     to committed first/last/checksum constants. Any drift in either
//     space's RNG discipline, index codec, or optimizer logic flips the
//     checksum (same playbook as tests/nas/golden_trajectory_test.cpp;
//     regenerate by pasting the "actual" strings from the failure output).
//  2. A reduced-scale construct_benchmark() per space: the artifact is
//     tagged with its space, survives a binary round-trip, and zero-cost
//     search over it stays inside the space and is run-to-run
//     bit-identical.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "anb/anb/pipeline.hpp"
#include "anb/fbnet/fbnet_space.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/random_search.hpp"
#include "scratch_path.hpp"

namespace anb {
namespace {

/// Exact-binary-fraction objective over the raw genotype bytes: every
/// space encodes decisions as small non-negative integers, so 0.25*d and
/// the 0.5 bonus are exact doubles in every space — bit-stable on any
/// platform, no training simulator involved.
double golden_objective(const Arch& arch) {
  double score = 0.0;
  for (int i = 0; i < arch.n; ++i) {
    const double d = arch.d[static_cast<std::size_t>(i)];
    score += 0.25 * d + (d == 0.0 ? 0.5 : 0.0);
  }
  return score;
}

class Checksum {
 public:
  explicit Checksum(const SearchSpace& sp) : sp_(sp) {}
  void add_arch(const Arch& arch) { mix(sp_.to_index(arch)); }
  void add_value(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t x) { h_ = hash_combine(h_, x); }
  const SearchSpace& sp_;
  std::uint64_t h_ = 0x9E3779B97F4A7C15ULL;
};

std::string summarize(const SearchSpace& sp, const SearchTrajectory& t) {
  Checksum sum(sp);
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum.add_arch(t.archs[i]);
    sum.add_value(t.values[i]);
    sum.add_value(t.incumbent[i]);
  }
  std::ostringstream os;
  os << "n=" << t.size() << " first=" << sp.to_index(t.archs.front()) << ":"
     << std::hexfloat << t.values.front() << std::defaultfloat
     << " last=" << sp.to_index(t.archs.back()) << ":" << std::hexfloat
     << t.values.back() << std::defaultfloat << " sum=0x" << std::hex
     << sum.value();
  return os.str();
}

std::string run_rs(const SearchSpace& sp) {
  RandomSearchNas rs(sp);
  Rng rng(4040);
  return summarize(sp, rs.run(golden_objective, 40, rng));
}

std::string run_re(const SearchSpace& sp) {
  RegularizedEvolutionParams p;
  p.population_size = 10;
  p.sample_size = 3;
  RegularizedEvolution re(p, sp);
  Rng rng(4041);
  return summarize(sp, re.run(golden_objective, 50, rng));
}

TEST(CrossSpaceGolden, MnasNetTrajectories) {
  const SearchSpace& sp = MnasSpace::instance();
  EXPECT_EQ(run_rs(sp), "n=40 first=71681540362:0x1.6p+3 last=41652534927:0x1.6p+3 sum=0x4c200ea8a26e1bea");
  EXPECT_EQ(run_re(sp), "n=50 first=16139128633:0x1.6p+3 last=56883205740:0x1.9p+3 sum=0xb2d32c8f21124df4");
}

TEST(CrossSpaceGolden, FbnetTrajectories) {
  const SearchSpace& sp = FbnetSpace::instance();
  EXPECT_EQ(run_rs(sp), "n=40 first=39320570880638577:0x1.2p+4 last=1278049113573621831:0x1.34p+4 sum=0xbe93d01679f2f4bd");
  EXPECT_EQ(run_re(sp), "n=50 first=136331817324263224:0x1.24p+4 last=843725492523596058:0x1.74p+4 sum=0x61386f68940f8e2a");
}

/// Reduced-scale end-to-end construction per space: the pipeline, cache,
/// artifact, and searcher all agree on what space they are in.
void mini_pipeline_roundtrip(SpaceId space) {
  register_builtin_spaces();
  const SearchSpace& sp = anb::space(space);

  PipelineOptions options;
  options.space = space;
  options.n_archs = 250;
  options.collect_perf = false;
  const PipelineResult result = construct_benchmark(options);
  EXPECT_EQ(result.bench.space(), space);
  EXPECT_TRUE(result.bench.has_accuracy());

  // Binary round-trip preserves the space tag and the predictions.
  const std::string path =
      scratch_path("anb_cross_space_" + std::string(sp.name()) + ".anbb");
  result.bench.save_binary(path);
  const AccelNASBench loaded = AccelNASBench::load_binary(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.space(), space);
  Rng rng(17);
  for (int i = 0; i < 16; ++i) {
    const Arch probe = sp.sample(rng);
    EXPECT_DOUBLE_EQ(loaded.query_accuracy(probe),
                     result.bench.query_accuracy(probe));
  }

  // Zero-cost RE over the artifact: stays inside the space and is
  // bit-identical across two identical runs (the determinism half of the
  // acceptance contract, here without any server in the path).
  const auto search_once = [&] {
    RegularizedEvolution re({}, sp);
    Rng re_rng(99);
    return re.run(
        [&](const Arch& arch) { return loaded.query_accuracy(arch); }, 60,
        re_rng);
  };
  const SearchTrajectory a = search_once();
  const SearchTrajectory b = search_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(sp.is_valid(a.archs[i]));
    EXPECT_EQ(sp.to_index(a.archs[i]), sp.to_index(b.archs[i]));
    EXPECT_EQ(a.values[i], b.values[i]);  // exact doubles
  }
}

TEST(CrossSpacePipeline, MnasNetMiniPipelineRoundTrips) {
  mini_pipeline_roundtrip(SpaceId::kMnasNet);
}

TEST(CrossSpacePipeline, FbnetMiniPipelineRoundTrips) {
  mini_pipeline_roundtrip(SpaceId::kFbnet);
}

}  // namespace
}  // namespace anb
