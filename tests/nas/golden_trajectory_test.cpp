// Golden-trajectory regression tests: every NAS optimizer is run with a
// pinned seed against a deterministic objective and compared to a committed
// reference (first/last evaluation + a full-trajectory checksum). Any
// change to an optimizer's RNG discipline, selection logic, or evaluation
// order — however subtle — flips the checksum and fails here.
//
// The objective uses only exact binary fractions (1, 0.5, 0.25, 0.125,
// 1/64), so every score is an exact double: no rounding, no
// FMA-contraction sensitivity, identical bits on every platform. If a
// legitimate algorithm change lands, regenerate the constants by running
// this test and pasting the "actual" strings from the failure output.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "anb/nas/evolution.hpp"
#include "anb/nas/nsga2.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/nas/successive_halving.hpp"

namespace anb {
namespace {

const SearchSpace& sp() { return MnasSpace::instance(); }

/// Deterministic objective over exact binary fractions (see header note).
double golden_objective(const Arch& genotype) {
  const Architecture arch = MnasSpace::to_blocks(genotype);
  double score = 0.0;
  for (const auto& blk : arch.blocks) {
    score += blk.expansion == 6 ? 1.0 : 0.0;
    score += blk.se ? 0.5 : 0.0;
    score += 0.25 * blk.layers + (blk.kernel == 5 ? 0.125 : 0.0);
  }
  return score;
}

/// golden_objective over a whole population in one call, so the batched
/// entry points are pinned by a genuinely batched oracle rather than by a
/// scalar one wrapped row by row.
std::vector<double> golden_batch(std::span<const Arch> archs) {
  std::vector<double> out;
  out.reserve(archs.size());
  for (const Arch& a : archs) out.push_back(golden_objective(a));
  return out;
}

/// Second objective for the bi-objective run: prefers shallow, narrow
/// models (a stand-in for -latency), also an exact binary fraction.
double golden_objective2(const Arch& genotype) {
  const Architecture arch = MnasSpace::to_blocks(genotype);
  double score = 0.0;
  for (const auto& blk : arch.blocks) {
    score -= 0.5 * blk.layers + (blk.expansion == 6 ? 1.0 : 0.0) +
             (blk.se ? 0.25 : 0.0);
  }
  return score;
}

class Checksum {
 public:
  void add_arch(const Arch& arch) { mix(sp().to_index(arch)); }
  void add_value(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void add_index(std::size_t i) { mix(static_cast<std::uint64_t>(i)); }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t x) { h_ = hash_combine(h_, x); }
  std::uint64_t h_ = 0x9E3779B97F4A7C15ULL;
};

/// "n=<evals> first=<arch>:<value> last=<arch>:<value> sum=<checksum>" —
/// exact-precision doubles via hexfloat, one line per golden constant.
std::string summarize(const SearchTrajectory& t) {
  Checksum sum;
  for (std::size_t i = 0; i < t.size(); ++i) {
    sum.add_arch(t.archs[i]);
    sum.add_value(t.values[i]);
    sum.add_value(t.incumbent[i]);
  }
  std::ostringstream os;
  os << "n=" << t.size() << " first=" << sp().to_index(t.archs.front())
     << ":" << std::hexfloat << t.values.front() << std::defaultfloat
     << " last=" << sp().to_index(t.archs.back()) << ":"
     << std::hexfloat << t.values.back() << std::defaultfloat << " sum=0x"
     << std::hex << sum.value();
  return os.str();
}

std::string summarize(const Nsga2Result& r) {
  Checksum sum;
  for (std::size_t i = 0; i < r.archs.size(); ++i) {
    sum.add_arch(r.archs[i]);
    sum.add_value(r.obj1[i]);
    sum.add_value(r.obj2[i]);
  }
  for (const std::size_t i : r.front) sum.add_index(i);
  std::ostringstream os;
  os << "n=" << r.archs.size() << " front=" << r.front.size() << " first="
     << sp().to_index(r.archs.front()) << " last="
     << sp().to_index(r.archs.back()) << " sum=0x" << std::hex
     << sum.value();
  return os.str();
}

std::string summarize(const SuccessiveHalvingResult& r) {
  Checksum sum;
  for (const auto& e : r.evals) {
    sum.add_arch(e.arch);
    sum.add_value(e.accuracy);
    sum.add_index(static_cast<std::size_t>(e.epochs));
  }
  std::ostringstream os;
  os << "evals=" << r.evals.size() << " rounds=" << r.rounds << " best="
     << sp().to_index(r.best) << ":" << std::hexfloat
     << r.best_accuracy << " cost=" << r.total_cost_hours << std::defaultfloat
     << " sum=0x" << std::hex << sum.value();
  return os.str();
}

// Each test pins the scalar entry point to its constant, then requires the
// batched entry point (fed a whole-population oracle) to reproduce that
// same summary: both must replay one recorded trajectory.

TEST(GoldenTrajectoryTest, RandomSearch) {
  RandomSearchNas rs;
  Rng rng(2024);
  const SearchTrajectory t = rs.run(golden_objective, 48, rng);
  EXPECT_EQ(summarize(t), "n=48 first=50513225083:0x1.14p+3 last=28453743428:0x1.dp+2 sum=0x8df37065b9465501");
  Rng rng_batched(2024);
  EXPECT_EQ(summarize(rs.run(SearchOracle(golden_batch), 48, rng_batched)),
            summarize(t));
}

TEST(GoldenTrajectoryTest, RegularizedEvolution) {
  RegularizedEvolutionParams p;
  p.population_size = 12;
  p.sample_size = 4;
  RegularizedEvolution re(p);
  Rng rng(2025);
  const SearchTrajectory t = re.run(golden_objective, 60, rng);
  EXPECT_EQ(summarize(t), "n=60 first=5033899219:0x1.2p+3 last=75987481031:0x1.74p+3 sum=0xc1ded6f8eb110bef");
  Rng rng_batched(2025);
  EXPECT_EQ(summarize(re.run(SearchOracle(golden_batch), 60, rng_batched)),
            summarize(t));
}

TEST(GoldenTrajectoryTest, Reinforce) {
  Reinforce rf;
  Rng rng(2026);
  const SearchTrajectory t = rf.run(golden_objective, 60, rng);
  EXPECT_EQ(summarize(t), "n=60 first=39170190124:0x1.58p+3 last=69596466227:0x1.a4p+3 sum=0xa746475bea21a03f");
  Rng rng_batched(2026);
  EXPECT_EQ(summarize(rf.run(SearchOracle(golden_batch), 60, rng_batched)),
            summarize(t));
}

TEST(GoldenTrajectoryTest, Nsga2) {
  Nsga2Params p;
  p.population_size = 12;
  const Nsga2 nsga2(p);
  Rng rng(2027);
  const Nsga2Result r = nsga2.run(
      [](const Arch& a) {
        return std::make_pair(golden_objective(a), golden_objective2(a));
      },
      60, rng);
  EXPECT_EQ(summarize(r), "n=60 front=11 first=4679502362 last=43390218165 sum=0xc83fb80b180c01a4");

  Rng rng_batched(2027);
  const Nsga2Result rb = nsga2.run_batched(
      [](std::span<const Arch> archs) {
        std::vector<std::pair<double, double>> out;
        out.reserve(archs.size());
        for (const Arch& a : archs)
          out.emplace_back(golden_objective(a), golden_objective2(a));
        return out;
      },
      60, rng_batched);
  EXPECT_EQ(summarize(rb), summarize(r));
}

TEST(GoldenTrajectoryTest, SuccessiveHalving) {
  // Budget-aware oracle in exact binary fractions: maturity ramps in
  // steps of 1/64 per epoch (capped at 1), cost is 1/64 hour per epoch.
  const BudgetedOracle oracle = [](const Arch& a, int epochs) {
    BudgetedEval e;
    const double maturity = std::min(1.0, static_cast<double>(epochs) / 64.0);
    e.accuracy = golden_objective(a) * maturity;
    e.cost_hours = static_cast<double>(epochs) / 64.0;
    return e;
  };
  SuccessiveHalvingParams p;
  p.initial_population = 27;
  const SuccessiveHalving sh(p);
  Rng rng(2028);
  const SuccessiveHalvingResult r = sh.run(oracle, rng);
  EXPECT_EQ(summarize(r), "evals=39 rounds=3 best=72322762493:0x1.c2p+2 cost=0x1.95p+2 sum=0x8956a719740406dd");

  Rng rng_batched(2028);
  const SuccessiveHalvingResult rb = sh.run_batched(
      [&oracle](std::span<const Arch> archs, int epochs) {
        std::vector<BudgetedEval> out;
        out.reserve(archs.size());
        for (const Arch& a : archs) out.push_back(oracle(a, epochs));
        return out;
      },
      rng_batched);
  EXPECT_EQ(summarize(rb), summarize(r));
}

}  // namespace
}  // namespace anb
