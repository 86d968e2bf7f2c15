#include "anb/surrogate/ensemble.hpp"

#include <algorithm>
#include <cmath>

#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"

namespace anb {

EnsembleSurrogate::EnsembleSurrogate(Factory factory, int size,
                                     double bootstrap_frac)
    : factory_(std::move(factory)),
      target_size_(size),
      bootstrap_frac_(bootstrap_frac) {
  ANB_CHECK(static_cast<bool>(factory_), "EnsembleSurrogate: null factory");
  ANB_CHECK(target_size_ >= 2, "EnsembleSurrogate: size must be >= 2");
  ANB_CHECK(bootstrap_frac_ > 0.0 && bootstrap_frac_ <= 1.0,
            "EnsembleSurrogate: bootstrap_frac must be in (0, 1]");
}

EnsembleSurrogate::EnsembleSurrogate(
    std::vector<std::unique_ptr<Surrogate>> members)
    : members_(std::move(members)) {
  ANB_CHECK(members_.size() >= 2,
            "EnsembleSurrogate: need at least 2 members");
  for (const auto& m : members_)
    ANB_CHECK(m != nullptr, "EnsembleSurrogate: null member");
}

void EnsembleSurrogate::fit(const Dataset& train, Rng& rng) {
  ANB_CHECK(static_cast<bool>(factory_),
            "EnsembleSurrogate::fit: wrapper built from fitted members has "
            "no factory to refit with");
  ANB_CHECK(train.size() >= 4, "EnsembleSurrogate::fit: dataset too small");
  ANB_SPAN("anb.fit.ensemble");
  obs::counter("anb.fit.ensemble.count").add(1);
  members_.clear();
  const auto subset_size = std::max<std::size_t>(
      2, static_cast<std::size_t>(bootstrap_frac_ *
                                  static_cast<double>(train.size())));
  for (int k = 0; k < target_size_; ++k) {
    auto model = factory_();
    ANB_CHECK(model != nullptr, "EnsembleSurrogate: factory returned null");
    const auto idx = rng.sample_indices(train.size(), subset_size);
    const Dataset member_train = train.subset(idx);
    Rng fit_rng = rng.fork();
    model->fit(member_train, fit_rng);
    members_.push_back(std::move(model));
  }
}

void EnsembleSurrogate::predict_batch(std::span<const double> rows,
                                      std::size_t num_features,
                                      std::span<double> out) const {
  ANB_CHECK(!members_.empty(), "EnsembleSurrogate::predict_batch: not fitted");
  ANB_CHECK(num_features > 0 && rows.size() == out.size() * num_features,
            "EnsembleSurrogate::predict_batch: row matrix / output size "
            "mismatch");
  std::fill(out.begin(), out.end(), 0.0);
  std::vector<double> tmp(out.size());
  for (const auto& m : members_) {
    m->predict_batch(rows, num_features, tmp);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += tmp[i];
  }
  const double n = static_cast<double>(members_.size());
  for (double& v : out) v /= n;
}

std::pair<double, double> EnsembleSurrogate::predict_dist(
    std::span<const double> x) const {
  ANB_CHECK(!members_.empty(), "EnsembleSurrogate: not fitted");
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& m : members_) {
    const double v = m->predict(x);
    sum += v;
    sum_sq += v * v;
  }
  const double n = static_cast<double>(members_.size());
  const double mean = sum / n;
  const double var = std::max(0.0, sum_sq / n - mean * mean);
  return {mean, std::sqrt(var)};
}

double EnsembleSurrogate::sample(std::span<const double> x, Rng& rng) const {
  const auto [mean, std] = predict_dist(x);
  return mean + std * rng.normal();
}

const Surrogate& EnsembleSurrogate::member(std::size_t i) const {
  ANB_CHECK(i < members_.size(), "EnsembleSurrogate: member out of range");
  return *members_[i];
}

Json EnsembleSurrogate::to_json(bin::Writer* sections) const {
  ANB_CHECK(!members_.empty(), "EnsembleSurrogate: not fitted");
  Json j = Json::object();
  j["type"] = name();
  Json arr = Json::array();
  for (const auto& m : members_) arr.push_back(m->to_json(sections));
  j["members"] = std::move(arr);
  return j;
}

std::unique_ptr<EnsembleSurrogate> EnsembleSurrogate::from_json(
    const Json& j, const bin::Reader* sections) {
  ANB_CHECK(j.at("type").as_string() == "ensemble",
            "EnsembleSurrogate::from_json: wrong type tag");
  std::vector<std::unique_ptr<Surrogate>> members;
  for (const auto& jm : j.at("members").as_array())
    members.push_back(surrogate_from_json(jm, sections));
  return std::make_unique<EnsembleSurrogate>(std::move(members));
}

}  // namespace anb
