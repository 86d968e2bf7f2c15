#include "anb/anb/proxy_search.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "anb/anb/pipeline.hpp"
#include "anb/ir/model_ir.hpp"
#include "anb/searchspace/space.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

/// Small domains so grid tests stay fast.
ProxyDomains small_domains() {
  ProxyDomains d;
  d.batch_size = {512};
  d.total_epochs = {10, 20, 30};
  d.resize_start_epoch = {0};
  d.resize_finish_epoch = {10};
  d.res_start = {160, 192};
  d.res_finish = {192, 224};
  return d;
}

class ProxySearchTest : public ::testing::Test {
 protected:
  std::unique_ptr<SpaceSim> sim_ = make_space_sim(SpaceId::kMnasNet, 42);
  ProxySearch search_{*sim_};
};

TEST_F(ProxySearchTest, StratifiedModelsSpreadOverComplexity) {
  Rng rng(1);
  const auto models = search_.stratified_models(20, rng);
  ASSERT_EQ(models.size(), 20u);
  std::set<std::uint64_t> unique;
  std::vector<double> macs;
  for (const auto& m : models) {
    unique.insert(MnasSpace::instance().to_index(m));
    macs.push_back(static_cast<double>(
        build_ir(MnasSpace::to_blocks(m), 224).total_macs()));
  }
  EXPECT_EQ(unique.size(), models.size());
  // Coverage: largest at least 3x the smallest.
  const auto [lo, hi] = std::minmax_element(macs.begin(), macs.end());
  EXPECT_GT(*hi / *lo, 3.0);
  EXPECT_THROW(search_.stratified_models(1, rng), Error);
}

TEST_F(ProxySearchTest, EvaluateSchemeComputesTauAndCost) {
  Rng rng(2);
  const auto models = search_.stratified_models(12, rng);
  std::vector<double> ref;
  for (const auto& m : models)
    ref.push_back(
        sim_->train(m, reference_scheme(), 0).top1);

  const auto trial = search_.evaluate_scheme(canonical_p_star(), models, ref,
                                             /*t_spec=*/5.0);
  EXPECT_GT(trial.tau, 0.5);
  EXPECT_LE(trial.tau, 1.0);
  EXPECT_GT(trial.cost_hours, 0.0);
  EXPECT_TRUE(trial.feasible);
}

TEST_F(ProxySearchTest, GridSearchFindsFeasibleScheme) {
  ProxySearchConfig config;
  config.n_models = 10;
  config.t_spec_hours = 3.0;
  config.domains = small_domains();
  const auto outcome = search_.run_grid(config);

  EXPECT_LE(outcome.best_cost_hours, config.t_spec_hours);
  EXPECT_GT(outcome.best_tau, 0.6);
  EXPECT_GT(outcome.speedup, 3.0);
  EXPECT_EQ(outcome.trials.size(),
            config.domains.enumerate_valid().size());
  // The best trial really is the max-tau feasible one.
  for (const auto& trial : outcome.trials) {
    if (trial.feasible) {
      EXPECT_LE(trial.tau, outcome.best_tau + 1e-12);
    }
  }
}

TEST_F(ProxySearchTest, EarlyStopShortensGrid) {
  ProxySearchConfig config;
  config.n_models = 8;
  config.t_spec_hours = 3.0;
  config.domains = small_domains();
  config.early_stop_tau = 0.5;  // easily reached
  const auto outcome = search_.run_grid(config);
  EXPECT_LT(outcome.trials.size(), config.domains.enumerate_valid().size());
}

TEST_F(ProxySearchTest, InfeasibleBudgetThrows) {
  ProxySearchConfig config;
  config.n_models = 6;
  config.t_spec_hours = 1e-6;  // nothing fits
  config.domains = small_domains();
  EXPECT_THROW(search_.run_grid(config), Error);
}

TEST_F(ProxySearchTest, MoreEpochsImproveTauWithinGrid) {
  // Within the trials, average tau at e_t=30 should beat e_t=10.
  ProxySearchConfig config;
  config.n_models = 10;
  config.t_spec_hours = 100.0;  // everything feasible
  config.domains = small_domains();
  const auto outcome = search_.run_grid(config);
  double tau10 = 0.0, tau30 = 0.0;
  int n10 = 0, n30 = 0;
  for (const auto& trial : outcome.trials) {
    if (trial.scheme.total_epochs == 10) {
      tau10 += trial.tau;
      ++n10;
    }
    if (trial.scheme.total_epochs == 30) {
      tau30 += trial.tau;
      ++n30;
    }
  }
  ASSERT_GT(n10, 0);
  ASSERT_GT(n30, 0);
  EXPECT_GT(tau30 / n30, tau10 / n10);
}

TEST_F(ProxySearchTest, SchemeConfigSpaceRoundTrip) {
  const ConfigSpace space = ProxySearch::scheme_space(ProxyDomains{});
  EXPECT_EQ(space.num_params(), 6u);
  Rng rng(5);
  int valid = 0;
  for (int i = 0; i < 100; ++i) {
    const Configuration c = space.sample(rng);
    if (!ProxySearch::scheme_config_valid(c)) continue;
    ++valid;
    const TrainingScheme s = ProxySearch::scheme_from_config(c);
    EXPECT_NO_THROW(s.validate());
    EXPECT_EQ(s.batch_size, c.get_int("b"));
  }
  EXPECT_GT(valid, 10);
}

TEST_F(ProxySearchTest, HpoOptimizersFindFeasibleSchemes) {
  ProxySearchConfig config;
  config.n_models = 8;
  config.t_spec_hours = 3.0;
  config.domains = small_domains();
  for (const std::string optimizer : {"random", "smac"}) {
    const auto outcome = search_.run_with(optimizer, config, /*budget=*/15);
    EXPECT_LE(outcome.best_cost_hours, config.t_spec_hours) << optimizer;
    EXPECT_GT(outcome.best_tau, 0.5) << optimizer;
  }
  EXPECT_THROW(search_.run_with("cma-es", config, 5), Error);
}

}  // namespace
}  // namespace anb
