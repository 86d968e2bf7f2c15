#pragma once

// An oracle for the batched descent engines that shares none of their
// code: the per-tree walk FlatForest::predict_tree, summed in tree order
// with the model's own base score and scale (boosting) or divided by the
// tree count (random forests). Every family's predict() is a one-row
// batch, so comparing a batch against it would compare the engine with
// itself.

#include <cstddef>
#include <span>

#include "anb/surrogate/ensemble.hpp"
#include "anb/surrogate/flat_forest.hpp"
#include "anb/surrogate/gbdt.hpp"
#include "anb/surrogate/hist_gbdt.hpp"
#include "anb/surrogate/random_forest.hpp"
#include "anb/surrogate/surrogate.hpp"

namespace anb {

inline double per_tree_sum(const FlatForest& forest, double base,
                           double scale, std::span<const double> x) {
  double acc = base;
  for (std::size_t t = 0; t < forest.num_trees(); ++t)
    acc += scale * forest.predict_tree(t, x);
  return acc;
}

/// The model's prediction for `x` from per-tree walks: boosted families
/// sum their trees, random forests sum theirs and divide by the tree count
/// (predict_mean_std's mean), ensembles average their members in member
/// order, and the one family without trees (SVR) answers itself.
inline double per_tree_predict(const Surrogate& model,
                               std::span<const double> x) {
  if (const auto* m = dynamic_cast<const Gbdt*>(&model))
    return per_tree_sum(m->forest(), m->base_score(),
                        m->params().learning_rate, x);
  if (const auto* m = dynamic_cast<const HistGbdt*>(&model))
    return per_tree_sum(m->forest(), m->base_score(),
                        m->params().learning_rate, x);
  if (const auto* m = dynamic_cast<const RandomForest*>(&model))
    return m->predict_mean_std(x).first;
  if (const auto* m = dynamic_cast<const EnsembleSurrogate*>(&model)) {
    double sum = 0.0;
    for (std::size_t i = 0; i < m->size(); ++i)
      sum += per_tree_predict(m->member(i), x);
    return sum / static_cast<double>(m->size());
  }
  return model.predict(x);
}

}  // namespace anb
