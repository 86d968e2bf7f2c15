#include "anb/surrogate/gbdt.hpp"

#include <algorithm>
#include <cmath>

#include "anb/surrogate/train_context.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/stats.hpp"
#include "serialize.hpp"

// GCC 12 at -O2 mis-attributes the std::vector destructor in fit() as
// freeing a non-heap pointer (bogus inlining artifact; ASan runs clean).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wfree-nonheap-object"
#endif

namespace anb {

Gbdt::Gbdt(GbdtParams params) : params_(std::move(params)) {
  ANB_CHECK(params_.n_estimators >= 1, "Gbdt: n_estimators must be >= 1");
  ANB_CHECK(params_.learning_rate > 0.0 && params_.learning_rate <= 1.0,
            "Gbdt: learning_rate must be in (0, 1]");
  ANB_CHECK(params_.max_depth >= 1, "Gbdt: max_depth must be >= 1");
  ANB_CHECK(params_.subsample > 0.0 && params_.subsample <= 1.0,
            "Gbdt: subsample must be in (0, 1]");
  ANB_CHECK(params_.colsample > 0.0 && params_.colsample <= 1.0,
            "Gbdt: colsample must be in (0, 1]");
}

void Gbdt::fit(const Dataset& train, Rng& rng) {
  ANB_CHECK(train.size() >= 2, "Gbdt::fit: need at least 2 rows");
  const ColumnIndex columns(train);
  fit_impl(train, columns, rng);
}

void Gbdt::fit(const Dataset& train, TrainContext& ctx, Rng& rng) {
  ANB_CHECK(&ctx.data() == &train,
            "Gbdt::fit: context built for a different dataset");
  ANB_CHECK(train.size() >= 2, "Gbdt::fit: need at least 2 rows");
  fit_impl(train, ctx.columns(), rng);
}

void Gbdt::fit_impl(const Dataset& train, const ColumnIndex& columns,
                    Rng& rng) {
  ANB_SPAN("anb.fit.gbdt");
  obs::counter("anb.fit.gbdt.count").add(1);
  const std::size_t n = train.size();
  const std::size_t d = train.num_features();

  base_score_ = mean(train.targets());

  TreeParams tp;
  tp.max_depth = params_.max_depth;
  tp.lambda = params_.lambda;
  tp.gamma = params_.gamma;
  tp.min_child_weight = params_.min_child_weight;
  tp.min_samples_leaf = 1.0;
  tp.features_per_node =
      params_.colsample < 1.0
          ? std::max(1, static_cast<int>(std::lround(
                            params_.colsample * static_cast<double>(d))))
          : -1;

  TreeBuilder builder(train, columns);
  std::vector<double> pred(n, base_score_);
  std::vector<double> g(n), h(n, 1.0), weight(n, 1.0);
  std::vector<int> leaf(n);
  std::vector<std::vector<FlatNode>> trees;
  trees.reserve(static_cast<std::size_t>(params_.n_estimators));
  for (int t = 0; t < params_.n_estimators; ++t) {
    // Squared loss: g = prediction residual, constant hessian. A few
    // microseconds of subtraction, so it runs inline: a parallel loop would
    // start threads every round for less work than starting them costs.
    for (std::size_t i = 0; i < n; ++i) g[i] = pred[i] - train.target(i);
    if (params_.subsample < 1.0) {
      for (std::size_t i = 0; i < n; ++i)
        weight[i] = rng.bernoulli(params_.subsample) ? 1.0 : 0.0;
    }
    const std::vector<FlatNode>& nodes =
        trees.emplace_back(builder.build(g, h, weight, tp, rng, leaf));
    // The builder already knows the leaf of every row it fitted; only rows
    // left out by subsampling walk the tree. Either way it is the leaf
    // walk_tree reaches, so predictions match the walk bit for bit.
    for (std::size_t i = 0; i < n; ++i) {
      const double value =
          leaf[i] >= 0 ? nodes[static_cast<std::size_t>(leaf[i])].split
                       : walk_tree(nodes.data(), 0, train.row(i).data());
      pred[i] += params_.learning_rate * value;
    }
  }
  // Depth-capped boosting (default max_depth 3) keeps every tree at <= 8
  // leaves, so fitted models qualify for the masked SIMD descent engine
  // whenever their per-feature threshold counts fit the byte-code budget
  // (DESIGN.md "SIMD descent").
  flat_ = FlatForest(trees);
}

void Gbdt::predict_batch(std::span<const double> rows,
                         std::size_t num_features,
                         std::span<double> out) const {
  ANB_CHECK(!flat_.empty(), "Gbdt::predict_batch: model not fitted");
  std::fill(out.begin(), out.end(), base_score_);
  flat_.accumulate(rows, num_features, params_.learning_rate, out);
}

namespace {

constexpr auto kGbdtFields = [](auto& p, auto&& field) {
  field("n_estimators", p.n_estimators);
  field("learning_rate", p.learning_rate);
  field("max_depth", p.max_depth);
  field("lambda", p.lambda);
  field("gamma", p.gamma);
  field("min_child_weight", p.min_child_weight);
  field("subsample", p.subsample);
  field("colsample", p.colsample);
};

}  // namespace

Json Gbdt::to_json(bin::Writer* sections) const {
  Json j = Json::object();
  j["type"] = name();
  j["base_score"] = base_score_;
  j["params"] = serial::write_params(params_, kGbdtFields);
  serial::put_forest(j, flat_, sections);
  return j;
}

std::unique_ptr<Gbdt> Gbdt::from_json(const Json& j,
                                      const bin::Reader* sections) {
  ANB_CHECK(j.at("type").as_string() == "xgb",
            "Gbdt::from_json: wrong type tag");
  auto model = std::make_unique<Gbdt>(
      serial::read_params<GbdtParams>(j.at("params"), kGbdtFields));
  model->base_score_ = j.at("base_score").as_number();
  model->flat_ = serial::get_forest(j, sections);
  return model;
}

}  // namespace anb
