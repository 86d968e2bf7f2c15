#include "anb/surrogate/svr.hpp"

#include <algorithm>
#include <cmath>

#include "anb/surrogate/smo.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/stats.hpp"
#include "serialize.hpp"

namespace anb {

Svr::Svr(SvrParams params) : params_(std::move(params)) {
  ANB_CHECK(params_.c > 0.0, "Svr: C must be > 0");
  ANB_CHECK(params_.epsilon >= 0.0, "Svr: epsilon must be >= 0");
  ANB_CHECK(params_.nu > 0.0 && params_.nu < 1.0, "Svr: nu must be in (0, 1)");
  ANB_CHECK(params_.tolerance > 0.0, "Svr: tolerance must be > 0");
}

double Svr::gamma_value(std::size_t num_features) const {
  return params_.gamma > 0.0
             ? params_.gamma
             : 1.0 / static_cast<double>(num_features);
}

Svr::FitOutput Svr::solve_epsilon(const std::vector<std::vector<float>>& kernel,
                                  std::span<const double> y,
                                  double epsilon) const {
  const int n = static_cast<int>(y.size());
  // libsvm's ε-SVR mapping: 2n dual variables, the first n are α (+1 sign),
  // the last n are α* (−1 sign); Q̃_st = sign_s sign_t K(s%n, t%n).
  SmoSolver::Problem prob;
  prob.n = 2 * n;
  prob.p.resize(static_cast<std::size_t>(2 * n));
  prob.y.resize(static_cast<std::size_t>(2 * n));
  prob.c.assign(static_cast<std::size_t>(2 * n), params_.c);
  for (int i = 0; i < n; ++i) {
    const auto si = static_cast<std::size_t>(i);
    prob.p[si] = epsilon - y[si];
    prob.y[si] = +1;
    prob.p[si + static_cast<std::size_t>(n)] = epsilon + y[si];
    prob.y[si + static_cast<std::size_t>(n)] = -1;
  }
  prob.tolerance = params_.tolerance;
  prob.q_column = [&kernel, n](int col, std::vector<double>& out) {
    const int real_col = col % n;
    const double sign_col = col < n ? 1.0 : -1.0;
    const auto& krow = kernel[static_cast<std::size_t>(real_col)];
    for (int t = 0; t < n; ++t) {
      const double q = sign_col * krow[static_cast<std::size_t>(t)];
      out[static_cast<std::size_t>(t)] = q;
      out[static_cast<std::size_t>(t + n)] = -q;
    }
  };

  const auto result = SmoSolver::solve(prob);
  FitOutput fit;
  fit.coef.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fit.coef[static_cast<std::size_t>(i)] =
        result.alpha[static_cast<std::size_t>(i)] -
        result.alpha[static_cast<std::size_t>(i + n)];
  }
  fit.bias = -result.rho;
  return fit;
}

void Svr::fit(const Dataset& train, Rng& /*rng*/) {
  ANB_SPAN("anb.fit.svr");
  obs::counter("anb.fit.svr.count").add(1);
  const std::size_t n = train.size();
  const std::size_t d = train.num_features();
  ANB_CHECK(n >= 2, "Svr::fit: need at least 2 rows");
  ANB_CHECK(n <= 8000,
            "Svr::fit: dense kernel solver supports at most 8000 rows");

  // --- standardize features and targets ---
  std::vector<double> feat_mean(d, 0.0);
  std::vector<double> feat_scale(d, 1.0);
  for (std::size_t f = 0; f < d; ++f) {
    double m = 0.0;
    for (std::size_t i = 0; i < n; ++i) m += train.feature(i, f);
    m /= static_cast<double>(n);
    double ss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double c = train.feature(i, f) - m;
      ss += c * c;
    }
    const double sd = std::sqrt(ss / static_cast<double>(n));
    feat_mean[f] = m;
    feat_scale[f] = sd > 1e-12 ? sd : 1.0;
  }
  target_mean_ = mean(train.targets());
  {
    double ss = 0.0;
    for (double t : train.targets()) ss += (t - target_mean_) * (t - target_mean_);
    const double sd = std::sqrt(ss / static_cast<double>(n));
    target_scale_ = sd > 1e-12 ? sd : 1.0;
  }

  std::vector<std::vector<double>> x(n, std::vector<double>(d));
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < d; ++f)
      x[i][f] = (train.feature(i, f) - feat_mean[f]) / feat_scale[f];
    y[i] = (train.target(i) - target_mean_) / target_scale_;
  }

  // --- dense RBF kernel matrix ---
  const double gamma = gamma_value(d);
  std::vector<std::vector<float>> kernel(n, std::vector<float>(n));
  for (std::size_t i = 0; i < n; ++i) {
    kernel[i][i] = 1.0f;
    for (std::size_t j = i + 1; j < n; ++j) {
      double dist2 = 0.0;
      for (std::size_t f = 0; f < d; ++f) {
        const double diff = x[i][f] - x[j][f];
        dist2 += diff * diff;
      }
      const auto k = static_cast<float>(std::exp(-gamma * dist2));
      kernel[i][j] = k;
      kernel[j][i] = k;
    }
  }

  FitOutput fit_out;
  if (params_.kind == SvrKind::kEpsilon) {
    effective_epsilon_ = params_.epsilon;
    fit_out = solve_epsilon(kernel, y, params_.epsilon);
  } else {
    // ν-SVR by bisection on ε: the out-of-tube fraction is decreasing in ε,
    // and ν-SVR's optimal tube satisfies fraction ≈ ν (Schölkopf et al.).
    double lo = 0.0;
    double hi = 2.0;  // standardized targets: 2σ tube already excludes ~0
    double best_eps = params_.epsilon;
    for (int iter = 0; iter < 12; ++iter) {
      const double eps = 0.5 * (lo + hi);
      fit_out = solve_epsilon(kernel, y, eps);
      // Out-of-tube fraction of the training residuals.
      int outside = 0;
      for (std::size_t i = 0; i < n; ++i) {
        double f = fit_out.bias;
        for (std::size_t j = 0; j < n; ++j)
          f += fit_out.coef[j] * kernel[j][i];
        if (std::abs(y[i] - f) > eps) ++outside;
      }
      const double frac = static_cast<double>(outside) / static_cast<double>(n);
      best_eps = eps;
      if (frac > params_.nu) {
        lo = eps;  // tube too narrow
      } else {
        hi = eps;
      }
      if (hi - lo < 1e-3) break;
    }
    effective_epsilon_ = best_eps;
    fit_out = solve_epsilon(kernel, y, best_eps);
  }

  // Keep only support vectors (nonzero dual coefficients), flattened
  // row-major — the layout predict_batch streams and the binary artifact
  // stores verbatim.
  std::vector<double> sv_flat;
  std::vector<double> sv_coef;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(fit_out.coef[i]) > 1e-12) {
      sv_flat.insert(sv_flat.end(), x[i].begin(), x[i].end());
      sv_coef.push_back(fit_out.coef[i]);
    }
  }
  bias_ = fit_out.bias;
  ANB_CHECK(!sv_coef.empty(),
            "Svr::fit: no support vectors (epsilon tube too wide?)");
  feat_mean_ = io::ArrayRef<double>(std::move(feat_mean));
  feat_scale_ = io::ArrayRef<double>(std::move(feat_scale));
  sv_coef_ = io::ArrayRef<double>(std::move(sv_coef));
  sv_flat_ = io::ArrayRef<double>(std::move(sv_flat));
}

void Svr::predict_batch(std::span<const double> rows,
                        std::size_t num_features,
                        std::span<double> out) const {
  ANB_CHECK(!sv_coef_.empty(), "Svr::predict_batch: model not fitted");
  ANB_CHECK(num_features == feat_mean_.size(),
            "Svr::predict_batch: feature dimension mismatch");
  ANB_CHECK(rows.size() == out.size() * num_features,
            "Svr::predict_batch: row matrix / output size mismatch");
  const std::size_t d = num_features;
  const double gamma = gamma_value(d);
  const std::size_t n_sv = sv_coef_.size();

  // Row blocks keep the standardized block plus the support-vector matrix
  // streaming through cache; per row the kernel terms accumulate in
  // support-vector order, exactly as the one-row case.
  constexpr std::size_t kBlock = 64;
  std::vector<double> xs(kBlock * d);
  for (std::size_t begin = 0; begin < out.size(); begin += kBlock) {
    const std::size_t end = std::min(out.size(), begin + kBlock);
    const std::size_t bn = end - begin;
    for (std::size_t i = 0; i < bn; ++i) {
      const double* x = rows.data() + (begin + i) * d;
      double* row_xs = xs.data() + i * d;
      for (std::size_t f = 0; f < d; ++f)
        row_xs[f] = (x[f] - feat_mean_[f]) / feat_scale_[f];
    }
    for (std::size_t i = begin; i < end; ++i) out[i] = bias_;
    for (std::size_t s = 0; s < n_sv; ++s) {
      const double* sv = sv_flat_.data() + s * d;
      const double coef = sv_coef_[s];
      for (std::size_t i = 0; i < bn; ++i) {
        const double* row_xs = xs.data() + i * d;
        double dist2 = 0.0;
        for (std::size_t k = 0; k < d; ++k) {
          const double diff = row_xs[k] - sv[k];
          dist2 += diff * diff;
        }
        out[begin + i] += coef * std::exp(-gamma * dist2);
      }
    }
    for (std::size_t i = begin; i < end; ++i)
      out[i] = out[i] * target_scale_ + target_mean_;
  }
}

namespace {

constexpr auto kSvrFields = [](auto& p, auto&& field) {
  field("c", p.c);
  field("epsilon", p.epsilon);
  field("nu", p.nu);
  field("gamma", p.gamma);
  field("tolerance", p.tolerance);
};

}  // namespace

Json Svr::to_json(bin::Writer* sections) const {
  ANB_CHECK(!sv_coef_.empty(), "Svr::to_json: model not fitted");
  Json j = Json::object();
  j["type"] = name();
  j["params"] = serial::write_params(params_, kSvrFields);
  j["effective_epsilon"] = effective_epsilon_;
  j["target_mean"] = target_mean_;
  j["target_scale"] = target_scale_;
  j["bias"] = bias_;
  serial::put_f64(j, "feat_mean", feat_mean_.span(), sections);
  serial::put_f64(j, "feat_scale", feat_scale_.span(), sections);
  serial::put_f64(j, "sv_coef", sv_coef_.span(), sections);
  if (sections != nullptr) {
    serial::put_f64(j, "sv_flat", sv_flat_.span(), sections);
    return j;
  }
  // The text format nests one row per support vector.
  const std::size_t d = feat_mean_.size();
  Json svs = Json::array();
  for (std::size_t s = 0; s < sv_coef_.size(); ++s)
    svs.push_back(Json::array_of(std::vector<double>(
        sv_flat_.data() + s * d, sv_flat_.data() + (s + 1) * d)));
  j["support_vectors"] = std::move(svs);
  return j;
}

std::unique_ptr<Svr> Svr::from_json(const Json& j,
                                    const bin::Reader* sections) {
  const std::string& type = j.at("type").as_string();
  ANB_CHECK(type == "esvr" || type == "nusvr",
            "Svr::from_json: wrong type tag");
  SvrParams params;
  params.kind = type == "esvr" ? SvrKind::kEpsilon : SvrKind::kNu;
  auto model = std::make_unique<Svr>(
      serial::read_params(j.at("params"), kSvrFields, params));
  model->effective_epsilon_ = j.at("effective_epsilon").as_number();
  model->target_mean_ = j.at("target_mean").as_number();
  model->target_scale_ = j.at("target_scale").as_number();
  model->bias_ = j.at("bias").as_number();
  model->feat_mean_ = serial::get_f64(j, "feat_mean", sections);
  model->feat_scale_ = serial::get_f64(j, "feat_scale", sections);
  model->sv_coef_ = serial::get_f64(j, "sv_coef", sections);
  const std::size_t d = model->feat_mean_.size();
  ANB_CHECK(model->feat_scale_.size() == d,
            "Svr::from_json: feature mean/scale size mismatch");
  if (sections != nullptr) {
    model->sv_flat_ = serial::get_f64(j, "sv_flat", sections);
  } else {
    std::vector<double> sv_flat;
    for (const auto& jsv : j.at("support_vectors").as_array()) {
      const std::vector<double> sv = jsv.as_double_vector();
      ANB_CHECK(sv.size() == d,
                "Svr::from_json: support vector dimension mismatch");
      sv_flat.insert(sv_flat.end(), sv.begin(), sv.end());
    }
    model->sv_flat_ = io::ArrayRef<double>(std::move(sv_flat));
  }
  ANB_CHECK(!model->sv_coef_.empty(), "Svr::from_json: no support vectors");
  ANB_CHECK(model->sv_flat_.size() == model->sv_coef_.size() * d,
            "Svr::from_json: coef/support-vector count mismatch");
  return model;
}

}  // namespace anb
