#include "anb/surrogate/surrogate.hpp"

#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/svr.hpp"
#include "anb/surrogate/train_context.hpp"
#include "anb/util/error.hpp"
#include "anb/util/metrics.hpp"
#include "anb/util/parallel.hpp"

namespace anb {

void Surrogate::fit(const Dataset& train, TrainContext& ctx, Rng& rng) {
  ANB_CHECK(&ctx.data() == &train,
            "Surrogate::fit: context built for a different dataset");
  fit(train, rng);
}

namespace {
/// Rows per parallel_for_chunks work item in predict_matrix. Large enough
/// to amortize waking pool helpers, small enough to spread a NAS population
/// across workers.
constexpr std::size_t kPredictChunk = 256;
}  // namespace

double Surrogate::predict(std::span<const double> x) const {
  double out = 0.0;
  predict_batch(x, x.size(), {&out, 1});
  return out;
}

void Surrogate::predict_matrix(std::span<const double> rows,
                               std::size_t num_features,
                               std::span<double> out) const {
  ANB_CHECK(num_features > 0 && rows.size() == out.size() * num_features,
            "Surrogate::predict_matrix: row matrix / output size mismatch");
  parallel_for_chunks(out.size(), kPredictChunk,
                      [&](std::size_t begin, std::size_t end) {
                        predict_batch(
                            rows.subspan(begin * num_features,
                                         (end - begin) * num_features),
                            num_features, out.subspan(begin, end - begin));
                      });
}

std::vector<double> Surrogate::predict_all(const Dataset& data) const {
  std::vector<double> out(data.size());
  predict_matrix(data.features_flat(), data.num_features(), out);
  return out;
}

FitMetrics Surrogate::evaluate(const Dataset& data) const {
  ANB_CHECK(data.size() >= 2, "Surrogate::evaluate: need at least 2 rows");
  const auto preds = predict_all(data);
  FitMetrics m;
  m.r2 = r2_score(data.targets(), preds);
  m.kendall_tau = kendall_tau(data.targets(), preds);
  m.mae = mae(data.targets(), preds);
  m.rmse = rmse(data.targets(), preds);
  return m;
}

std::unique_ptr<Surrogate> surrogate_from_json(const Json& j,
                                               const bin::Reader* sections) {
  const std::string& type = j.at("type").as_string();
  if (type == "xgb") return Gbdt::from_json(j, sections);
  if (type == "lgb") return HistGbdt::from_json(j, sections);
  if (type == "rf") return RandomForest::from_json(j, sections);
  if (type == "esvr" || type == "nusvr") return Svr::from_json(j, sections);
  if (type == "ensemble") return EnsembleSurrogate::from_json(j, sections);
  throw Error("surrogate_from_json: unknown surrogate type '" + type + "'");
}

}  // namespace anb
