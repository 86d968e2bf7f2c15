#include "anb/nas/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "anb/util/error.hpp"
#include "anb/util/pareto.hpp"

namespace anb {

Nsga2::Nsga2(Nsga2Params params, const SearchSpace& space)
    : params_(params), space_(&space) {
  ANB_CHECK(params_.population_size >= 4,
            "Nsga2: population_size must be >= 4");
  ANB_CHECK(params_.crossover_prob >= 0.0 && params_.crossover_prob <= 1.0,
            "Nsga2: crossover_prob must be in [0, 1]");
  ANB_CHECK(params_.mutation_prob >= 0.0 && params_.mutation_prob <= 1.0,
            "Nsga2: mutation_prob must be in [0, 1]");
}

std::vector<int> Nsga2::non_dominated_ranks(std::span<const double> obj1,
                                            std::span<const double> obj2) {
  ANB_CHECK(obj1.size() == obj2.size(), "Nsga2: objective size mismatch");
  const std::size_t n = obj1.size();
  auto dominates = [&](std::size_t a, std::size_t b) {
    return obj1[a] >= obj1[b] && obj2[a] >= obj2[b] &&
           (obj1[a] > obj1[b] || obj2[a] > obj2[b]);
  };

  // Deb's fast non-dominated sort.
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<int> domination_count(n, 0);
  std::vector<int> rank(n, -1);
  std::vector<std::size_t> current;
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (dominates(p, q)) {
        dominated_by[p].push_back(q);
      } else if (dominates(q, p)) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) {
      rank[p] = 0;
      current.push_back(p);
    }
  }
  int level = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : current) {
      for (std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) {
          rank[q] = level + 1;
          next.push_back(q);
        }
      }
    }
    ++level;
    current = std::move(next);
  }
  return rank;
}

std::vector<double> Nsga2::crowding_distance(
    std::span<const double> obj1, std::span<const double> obj2,
    std::span<const std::size_t> front) {
  std::vector<double> distance(front.size(), 0.0);
  if (front.size() <= 2) {
    std::fill(distance.begin(), distance.end(),
              std::numeric_limits<double>::infinity());
    return distance;
  }
  for (const auto* obj : {&obj1, &obj2}) {
    std::vector<std::size_t> order(front.size());
    for (std::size_t i = 0; i < front.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return (*obj)[front[a]] < (*obj)[front[b]];
    });
    const double lo = (*obj)[front[order.front()]];
    const double hi = (*obj)[front[order.back()]];
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;  // degenerate: all equal on this objective
    for (std::size_t i = 1; i + 1 < order.size(); ++i) {
      distance[order[i]] += ((*obj)[front[order[i + 1]]] -
                             (*obj)[front[order[i - 1]]]) /
                            (hi - lo);
    }
  }
  return distance;
}

namespace {

struct Member {
  Arch arch;
  double obj1 = 0.0, obj2 = 0.0;
  int rank = 0;
  double crowding = 0.0;
};

/// (rank, crowding)-lexicographic "better" comparison.
bool crowded_less(const Member& a, const Member& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  return a.crowding > b.crowding;
}

/// One child via binary tournaments on (rank, crowding), uniform block
/// crossover and per-decision mutation.
Arch make_child(const std::vector<Member>& population,
                const Nsga2Params& params, const SearchSpace& space,
                Rng& rng) {
  auto tournament = [&]() -> const Member& {
    const Member& a = population[rng.uniform_index(population.size())];
    const Member& b = population[rng.uniform_index(population.size())];
    return crowded_less(a, b) ? a : b;
  };
  const Member& p1 = tournament();
  const Member& p2 = tournament();

  Arch child = p1.arch;
  if (rng.bernoulli(params.crossover_prob)) {
    // Uniform group-wise crossover (whole blocks on MnasNet).
    for (const auto& [lo, hi] : space.crossover_groups()) {
      if (rng.bernoulli(0.5)) {
        for (int d = lo; d < hi; ++d)
          child.d[static_cast<std::size_t>(d)] =
              p2.arch.d[static_cast<std::size_t>(d)];
      }
    }
  }
  // Per-decision mutation.
  const auto& sizes = space.decision_sizes();
  for (std::size_t d = 0; d < static_cast<std::size_t>(child.n); ++d) {
    if (!rng.bernoulli(params.mutation_prob)) continue;
    const int size = sizes[d];
    child.d[d] = static_cast<std::int8_t>(
        (child.d[d] + 1 +
         static_cast<int>(rng.uniform_index(
             static_cast<std::uint64_t>(size - 1)))) %
        size);
  }
  space.validate(child);
  return child;
}

void assign_rank_and_crowding(std::vector<Member>& pop) {
  std::vector<double> o1, o2;
  o1.reserve(pop.size());
  o2.reserve(pop.size());
  for (const auto& m : pop) {
    o1.push_back(m.obj1);
    o2.push_back(m.obj2);
  }
  const auto ranks = Nsga2::non_dominated_ranks(o1, o2);
  for (std::size_t i = 0; i < pop.size(); ++i) pop[i].rank = ranks[i];

  const int max_rank = *std::max_element(ranks.begin(), ranks.end());
  for (int r = 0; r <= max_rank; ++r) {
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < pop.size(); ++i)
      if (ranks[i] == r) front.push_back(i);
    const auto crowding = Nsga2::crowding_distance(o1, o2, front);
    for (std::size_t k = 0; k < front.size(); ++k)
      pop[front[k]].crowding = crowding[k];
  }
}

}  // namespace

Nsga2Result Nsga2::run(const BiObjectiveOracle& oracle, int n_evals,
                       Rng& rng) const {
  ANB_CHECK(static_cast<bool>(oracle), "Nsga2: missing oracle");
  return run_batched(
      [&oracle](std::span<const Arch> archs) {
        std::vector<std::pair<double, double>> out;
        out.reserve(archs.size());
        for (const Arch& arch : archs) out.push_back(oracle(arch));
        return out;
      },
      n_evals, rng);
}

Nsga2Result Nsga2::run_batched(const BiObjectiveBatchOracle& oracle,
                               int n_evals, Rng& rng) const {
  ANB_CHECK(static_cast<bool>(oracle), "Nsga2: missing oracle");
  ANB_CHECK(n_evals >= params_.population_size,
            "Nsga2: n_evals must cover at least one population");

  Nsga2Result result;
  auto evaluate_batch = [&](const std::vector<Arch>& archs) {
    const auto objs = oracle(archs);
    ANB_CHECK(objs.size() == archs.size(),
              "Nsga2: batched oracle returned wrong size");
    std::vector<Member> members;
    members.reserve(archs.size());
    for (std::size_t i = 0; i < archs.size(); ++i) {
      result.archs.push_back(archs[i]);
      result.obj1.push_back(objs[i].first);
      result.obj2.push_back(objs[i].second);
      Member m;
      m.arch = archs[i];
      m.obj1 = objs[i].first;
      m.obj2 = objs[i].second;
      members.push_back(std::move(m));
    }
    return members;
  };

  // Seed generation: sample everything, then score in one call.
  std::vector<Arch> seeds;
  seeds.reserve(static_cast<std::size_t>(params_.population_size));
  for (int i = 0; i < params_.population_size; ++i)
    seeds.push_back(space_->sample(rng));
  std::vector<Member> population = evaluate_batch(seeds);
  assign_rank_and_crowding(population);

  int evals = params_.population_size;
  while (evals < n_evals) {
    // Offspring generation: one generation is up to population_size
    // children, truncated by the remaining budget. Selection reads only the
    // parent population's (rank, crowding), which is fixed for the whole
    // generation, so all children are generated before any is scored.
    const int n_children = std::min(params_.population_size, n_evals - evals);
    std::vector<Arch> child_archs;
    child_archs.reserve(static_cast<std::size_t>(n_children));
    for (int c = 0; c < n_children; ++c)
      child_archs.push_back(make_child(population, params_, *space_, rng));
    std::vector<Member> children = evaluate_batch(child_archs);
    evals += n_children;

    // Environmental selection over parents + children.
    population.insert(population.end(),
                      std::make_move_iterator(children.begin()),
                      std::make_move_iterator(children.end()));
    assign_rank_and_crowding(population);
    std::sort(population.begin(), population.end(), crowded_less);
    population.resize(static_cast<std::size_t>(params_.population_size));
  }

  result.front = pareto_front(result.obj1, result.obj2);
  return result;
}

}  // namespace anb
