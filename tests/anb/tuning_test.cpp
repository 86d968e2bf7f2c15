#include "anb/anb/tuning.hpp"

#include <gtest/gtest.h>

#include "anb/anb/collection.hpp"
#include "anb/anb/pipeline.hpp"
#include "anb/util/error.hpp"

namespace anb {
namespace {

CollectedData shared_data() {
  const auto sim = make_space_sim(SpaceId::kMnasNet, 42);
  DataCollector collector(*sim, {});
  CollectionConfig config;
  config.n_archs = 400;
  config.scheme = canonical_p_star();
  config.collect_perf = false;
  return collector.collect(config);
}

TEST(TuningTest, KindNamesAndLabels) {
  EXPECT_STREQ(surrogate_kind_name(SurrogateKind::kXgb), "xgb");
  EXPECT_STREQ(surrogate_kind_label(SurrogateKind::kEpsSvr), "eps-SVR");
  EXPECT_EQ(all_surrogate_kinds().size(), 5u);
}

TEST(TuningTest, ConfigSpacesSampleAndInstantiate) {
  Rng rng(1);
  for (SurrogateKind kind : all_surrogate_kinds()) {
    const ConfigSpace space = surrogate_config_space(kind);
    EXPECT_GE(space.num_params(), 3u);
    for (int i = 0; i < 5; ++i) {
      const Configuration c = space.sample(rng);
      const auto model = make_surrogate(kind, c);
      EXPECT_EQ(model->name(), surrogate_kind_name(kind));
    }
  }
}

TEST(TuningTest, DefaultSurrogatesFitAndPredict) {
  const CollectedData data = shared_data();
  Rng split_rng(2);
  const DatasetSplits splits = data.accuracy_dataset().split(0.8, 0.1,
                                                             split_rng);
  for (SurrogateKind kind : all_surrogate_kinds()) {
    auto model = make_default_surrogate(kind);
    Rng rng(3);
    model->fit(splits.train, rng);
    const FitMetrics m = model->evaluate(splits.test);
    EXPECT_GT(m.kendall_tau, 0.4) << surrogate_kind_label(kind);
    EXPECT_GT(m.r2, 0.2) << surrogate_kind_label(kind);
  }
}

TEST(TuningTest, TunedAtLeastRoughlyMatchesDefault) {
  const CollectedData data = shared_data();
  Rng split_rng(4);
  const DatasetSplits splits = data.accuracy_dataset().split(0.8, 0.1,
                                                             split_rng);
  TuneOptions options;
  options.n_trials = 6;
  options.tuning_subsample = 250;
  const TunedSurrogate tuned =
      tune_surrogate(SurrogateKind::kLgb, splits.train, splits.val, options);
  ASSERT_NE(tuned.model, nullptr);
  EXPECT_GT(tuned.val_metrics.r2, 0.3);
  // The returned config lies in the declared space.
  EXPECT_NO_THROW(
      surrogate_config_space(SurrogateKind::kLgb).validate(tuned.config));
}

TEST(TuningTest, TuneValidatesInputs) {
  Dataset tiny(3);
  tiny.add(std::vector<double>{0, 0, 0}, 0.0);
  TuneOptions options;
  EXPECT_THROW(tune_surrogate(SurrogateKind::kRf, tiny, tiny, options), Error);
}

TEST(TuningTest, UnknownSurrogateKindThrows) {
  // An out-of-range enum value (e.g. from a corrupted config file) must be
  // rejected, not fall through to an arbitrary family.
  const auto bad = static_cast<SurrogateKind>(99);
  EXPECT_THROW(make_default_surrogate(bad), Error);
  EXPECT_THROW(make_surrogate(bad, Configuration{}), Error);
}

}  // namespace
}  // namespace anb
