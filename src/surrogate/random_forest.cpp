#include "anb/surrogate/random_forest.hpp"

#include <algorithm>
#include <cmath>

#include "anb/surrogate/train_context.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"
#include "serialize.hpp"

namespace anb {

RandomForest::RandomForest(RandomForestParams params)
    : params_(std::move(params)) {
  ANB_CHECK(params_.n_trees >= 1, "RandomForest: n_trees must be >= 1");
  ANB_CHECK(params_.max_depth >= 1, "RandomForest: max_depth must be >= 1");
  ANB_CHECK(params_.bootstrap_frac > 0.0 && params_.bootstrap_frac <= 2.0,
            "RandomForest: bootstrap_frac must be in (0, 2]");
}

void RandomForest::fit(const Dataset& train, Rng& rng) {
  ANB_CHECK(train.size() >= 2, "RandomForest::fit: need at least 2 rows");
  const ColumnIndex columns(train);
  fit_impl(train, columns, rng);
}

void RandomForest::fit(const Dataset& train, TrainContext& ctx, Rng& rng) {
  ANB_CHECK(&ctx.data() == &train,
            "RandomForest::fit: context built for a different dataset");
  ANB_CHECK(train.size() >= 2, "RandomForest::fit: need at least 2 rows");
  fit_impl(train, ctx.columns(), rng);
}

void RandomForest::fit_impl(const Dataset& train, const ColumnIndex& columns,
                            Rng& rng) {
  ANB_SPAN("anb.fit.rf");
  obs::counter("anb.fit.rf.count").add(1);
  const std::size_t n = train.size();
  const std::size_t d = train.num_features();

  // Variance-reduction splits: g = -y, h = 1, lambda = 0 reduces the
  // XGBoost gain to classic sum-of-squares reduction with mean-value leaves.
  std::vector<double> g(n), h(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) g[i] = -train.target(i);

  TreeParams tp;
  tp.max_depth = params_.max_depth;
  tp.lambda = 0.0;
  tp.gamma = 1e-12;  // require strictly positive variance reduction
  tp.min_child_weight = 0.0;
  tp.min_samples_leaf = params_.min_samples_leaf;
  const double frac = params_.max_features_frac;
  tp.features_per_node =
      frac > 0.0
          ? std::max(1, static_cast<int>(std::lround(frac * static_cast<double>(d))))
          : std::max(1, static_cast<int>(std::lround(std::sqrt(static_cast<double>(d)))));

  const auto n_bootstrap = static_cast<std::size_t>(
      std::max(1.0, params_.bootstrap_frac * static_cast<double>(n)));

  // Trees fit concurrently, each on its own seeded stream: one draw from the
  // caller's rng fixes the whole forest, independent of thread count and of
  // how much randomness each tree consumes (build_tree's consumption is
  // data-dependent, so a shared stream could not be parallelized).
  const std::uint64_t forest_seed = rng();
  const auto n_trees = static_cast<std::size_t>(params_.n_trees);
  std::vector<std::vector<FlatNode>> trees(n_trees);
  parallel_for(n_trees, [&](std::size_t t) {
    Rng tree_rng(hash_combine(forest_seed, static_cast<std::uint64_t>(t)));
    // Bootstrap with replacement expressed as per-row multiplicities.
    std::vector<double> weight(n, 0.0);
    for (std::size_t s = 0; s < n_bootstrap; ++s)
      weight[tree_rng.uniform_index(n)] += 1.0;
    trees[t] = build_tree(train, columns, g, h, weight, tp, tree_rng);
  });
  // Deep trees (default max_depth 14) usually exceed the masked engine's
  // 8-leaf cap, so batched prediction auto-dispatches to the interleaved
  // walk for fitted forests; the masked engine lights up only for
  // unusually shallow fits (DESIGN.md "SIMD descent").
  flat_ = FlatForest(trees);
}

void RandomForest::predict_batch(std::span<const double> rows,
                                 std::size_t num_features,
                                 std::span<double> out) const {
  ANB_CHECK(!flat_.empty(), "RandomForest::predict_batch: model not fitted");
  std::fill(out.begin(), out.end(), 0.0);
  // Accumulating with scale 1.0 then dividing matches predict_mean_std's
  // per-tree sum-then-divide exactly (1.0 * leaf is an exact
  // multiplication).
  flat_.accumulate(rows, num_features, 1.0, out);
  const double n = static_cast<double>(flat_.num_trees());
  for (double& v : out) v /= n;
}

std::pair<double, double> RandomForest::predict_mean_std(
    std::span<const double> x) const {
  ANB_CHECK(!flat_.empty(), "RandomForest::predict_mean_std: not fitted");
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t t = 0; t < flat_.num_trees(); ++t) {
    const double v = flat_.predict_tree(t, x);
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(flat_.num_trees());
  const double m = sum / n;
  const double var = std::max(0.0, sum_sq / n - m * m);
  return {m, std::sqrt(var)};
}

namespace {

constexpr auto kRandomForestFields = [](auto& p, auto&& field) {
  field("n_trees", p.n_trees);
  field("max_depth", p.max_depth);
  field("min_samples_leaf", p.min_samples_leaf);
  field("max_features_frac", p.max_features_frac);
  field("bootstrap_frac", p.bootstrap_frac);
};

}  // namespace

Json RandomForest::to_json(bin::Writer* sections) const {
  Json j = Json::object();
  j["type"] = name();
  j["params"] = serial::write_params(params_, kRandomForestFields);
  serial::put_forest(j, flat_, sections);
  return j;
}

std::unique_ptr<RandomForest> RandomForest::from_json(
    const Json& j, const bin::Reader* sections) {
  ANB_CHECK(j.at("type").as_string() == "rf",
            "RandomForest::from_json: wrong type tag");
  auto model = std::make_unique<RandomForest>(
      serial::read_params<RandomForestParams>(j.at("params"),
                                              kRandomForestFields));
  model->flat_ = serial::get_forest(j, sections);
  return model;
}

}  // namespace anb
