// Workload `search`: the path a NAS researcher pays on every run. Set-up
// builds, saves and opens the untuned artifact. The timed part runs a
// fixed optimizer x seed matrix against it through the public API:
// RegularizedEvolution, Reinforce and RandomSearchNas on accuracy via
// NasOptimizer::run(SearchOracle) with a batched oracle, plus Nsga2 and
// pareto_search on accuracy x ZCU102 throughput. The query cache is on and
// is cleared before every optimizer run. Population-sized batches (RE's
// seed population, RS, NSGA-II) mix with batches of one (REINFORCE).
//
// The matrix is repeated in passes until --seconds have passed; every
// pass must reproduce the first pass's trajectory checksums. After the
// timed part, the first seed's runs are repeated with scalar oracles and
// must give the same trajectories.
//
// Traced run: untraced and traced passes alternate; in a traced pass
// each optimizer run and each oracle call into the benchmark is a span.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "anb/anb/harness.hpp"
#include "anb/nas/evolution.hpp"
#include "anb/nas/nsga2.hpp"
#include "anb/nas/random_search.hpp"
#include "anb/nas/reinforce.hpp"
#include "anb/util/rng.hpp"
#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using anb::AccelNASBench;
using anb::Arch;

constexpr int kSeeds = 4;
constexpr int kEvals = 600;        ///< RE, REINFORCE and RS budgets
constexpr int kNsgaEvals = 800;    ///< NSGA-II (population 40)
constexpr int kParetoTargets = 3;  ///< pareto_search: REINFORCE per target
constexpr int kParetoEvals = 200;
const anb::MetricKey kZcuThroughput{anb::DeviceKind::kZcu102,
                                    anb::PerfMetric::kThroughput};

enum class Optimizer { kRe, kReinforce, kRs, kNsga2, kPareto };

const char* optimizer_name(Optimizer o) {
  switch (o) {
    case Optimizer::kRe: return "RE";
    case Optimizer::kReinforce: return "REINFORCE";
    case Optimizer::kRs: return "RS";
    case Optimizer::kNsga2: return "NSGA-II";
    case Optimizer::kPareto: return "pareto_search";
  }
  return "?";
}

struct Cell {
  Optimizer optimizer;
  std::uint64_t seed;
};

struct CellResult {
  int evals = 0;
  std::uint64_t checksum = 0;
  double wall_s = 0.0;
};

/// Order-sensitive hash of a trajectory: architecture indices and the bit
/// patterns of their values.
class Checksum {
 public:
  void add(const Arch& arch, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    h_ = anb::hash_combine(h_, anb::MnasSpace::instance().to_index(arch));
    h_ = anb::hash_combine(h_, bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x5EA4C4;
};

std::uint64_t checksum(const anb::SearchTrajectory& t) {
  Checksum c;
  for (std::size_t i = 0; i < t.size(); ++i) c.add(t.archs[i], t.values[i]);
  return c.value();
}

std::uint64_t checksum(const anb::Nsga2Result& r) {
  Checksum c;
  for (std::size_t i = 0; i < r.archs.size(); ++i) {
    c.add(r.archs[i], r.obj1[i]);
    c.add(r.archs[i], r.obj2[i]);
  }
  return c.value();
}

std::uint64_t checksum(const anb::ParetoOutcome& r) {
  Checksum c;
  for (std::size_t i = 0; i < r.archs.size(); ++i) {
    c.add(r.archs[i], r.accuracy[i]);
    c.add(r.archs[i], r.perf[i]);
  }
  for (const std::size_t i : r.front) c.add(r.archs[i], 0.0);
  return c.value();
}

/// Oracle rows and batches seen by traced passes.
struct QueryTally {
  double rows = 0.0;
  double batches = 0.0;
  double hits = 0.0;     ///< query-cache hits, summed over optimizer runs
  double lookups = 0.0;  ///< query-cache hits + misses
};

class Searcher {
 public:
  Searcher(const AccelNASBench& bench, QueryTally& tally)
      : bench_(bench), tally_(tally) {}

  /// One optimizer run with batched oracles (scalar ones if `scalar`).
  CellResult run(const Cell& cell, bool scalar) const {
    bench_.clear_cache();
    const trace::Clock t0 = trace::now_ns();
    CellResult out;
    anb::Rng rng(cell.seed);
    const anb::SearchOracle oracle =
        scalar ? anb::SearchOracle(anb::EvalOracle(
                     [this](const Arch& a) { return accuracy(a); }))
               : anb::SearchOracle(anb::BatchEvalOracle(
                     [this](std::span<const Arch> a) { return accuracy(a); }));
    switch (cell.optimizer) {
      case Optimizer::kRe: {
        trace::Span s("nas.run");
        anb::RegularizedEvolution re;
        out.checksum = checksum(re.run(oracle, kEvals, rng));
        out.evals = kEvals;
        break;
      }
      case Optimizer::kReinforce: {
        trace::Span s("nas.run");
        anb::Reinforce reinforce;
        out.checksum = checksum(reinforce.run(oracle, kEvals, rng));
        out.evals = kEvals;
        break;
      }
      case Optimizer::kRs: {
        trace::Span s("nas.run");
        anb::RandomSearchNas rs;
        out.checksum = checksum(rs.run(oracle, kEvals, rng));
        out.evals = kEvals;
        break;
      }
      case Optimizer::kNsga2: {
        trace::Span s("nas.run");
        const anb::Nsga2 nsga;
        out.checksum =
            scalar ? checksum(nsga.run(
                         [this](const Arch& a) {
                           return std::make_pair(accuracy(a), throughput(a));
                         },
                         kNsgaEvals, rng))
                   : checksum(nsga.run_batched(
                         [this](std::span<const Arch> a) {
                           const std::vector<double> acc = accuracy(a);
                           const std::vector<double> thr = throughput(a);
                           std::vector<std::pair<double, double>> both;
                           both.reserve(a.size());
                           for (std::size_t i = 0; i < a.size(); ++i) {
                             both.emplace_back(acc[i], thr[i]);
                           }
                           return both;
                         },
                         kNsgaEvals, rng));
        out.evals = kNsgaEvals;
        break;
      }
      case Optimizer::kPareto: {
        // pareto_search queries the benchmark itself, so its query time
        // cannot be wrapped; it stays out of anb.query.s and
        // nas.self_us_per_eval.
        trace::Span s("anb.pareto_search");
        anb::ParetoSearchConfig config;
        config.key = kZcuThroughput;
        config.n_targets = kParetoTargets;
        config.n_evals_per_target = kParetoEvals;
        config.seed = cell.seed;
        out.checksum = checksum(anb::pareto_search(bench_, config));
        out.evals = kParetoTargets * kParetoEvals;
        break;
      }
    }
    out.wall_s = seconds_since(t0);
    if (trace::enabled()) {
      const anb::QueryCacheStats cache = bench_.cache_stats();
      tally_.hits += static_cast<double>(cache.hits);
      tally_.lookups += static_cast<double>(cache.hits + cache.misses);
    }
    return out;
  }

 private:
  double accuracy(const Arch& a) const {
    trace::Span s("anb.query");
    count(1);
    return bench_.query_accuracy(a);
  }
  double throughput(const Arch& a) const {
    trace::Span s("anb.query");
    count(1);
    return bench_.query_perf(a, kZcuThroughput);
  }
  std::vector<double> accuracy(std::span<const Arch> a) const {
    trace::Span s("anb.query");
    count(a.size());
    return bench_.query_accuracy_batch(a);
  }
  std::vector<double> throughput(std::span<const Arch> a) const {
    trace::Span s("anb.query");
    count(a.size());
    return bench_.query_perf_batch(a, kZcuThroughput);
  }
  void count(std::size_t rows) const {
    if (!trace::enabled()) return;
    tally_.rows += static_cast<double>(rows);
    tally_.batches += 1.0;
  }

  const AccelNASBench& bench_;
  QueryTally& tally_;
};

std::vector<Cell> matrix(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (int j = 0; j < kSeeds; ++j) {
    const std::uint64_t s = anb::hash_combine(seed, 0x5EA + j);
    for (const Optimizer o : {Optimizer::kRe, Optimizer::kReinforce,
                              Optimizer::kRs, Optimizer::kNsga2,
                              Optimizer::kPareto}) {
      cells.push_back({o, s});
    }
  }
  return cells;
}

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of every thread during the pass
  double evals = 0.0;
  std::vector<CellResult> cells;
};

PassResult run_pass(const Searcher& searcher, const std::vector<Cell>& cells,
                    const std::vector<std::uint64_t>& expected,
                    Report& report, std::uint64_t pass) {
  trace::set_run(pass);
  PassResult out;
  const trace::Clock t0 = trace::now_ns();
  const double cpu0 = process_cpu_s();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out.cells.push_back(searcher.run(cells[i], /*scalar=*/false));
    out.evals += out.cells.back().evals;
  }
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  for (std::size_t i = 0; i < cells.size() && !expected.empty(); ++i) {
    report.op(out.cells[i].checksum == expected[i],
              std::string("trajectory checksum changed between passes: ") +
                  optimizer_name(cells[i].optimizer));
  }
  return out;
}

}  // namespace

void run_search(const Args& args, Report& report) {
  const SetupArtifact artifact = make_setup_artifact(
      anb::hash_combine(args.seed, 0x9B0), args.out_dir + "/search.anbb",
      report);
  report_artifact(artifact, report);
  const std::vector<Cell> cells = matrix(args.seed);
  QueryTally tally;
  const Searcher searcher(artifact.bench, tally);

  // The first pass fixes the checksums every later pass must reproduce.
  const PassResult first = run_pass(searcher, cells, {}, report, 0);
  std::vector<std::uint64_t> expected;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expected.push_back(first.cells[i].checksum);
    std::printf("trajectory %s seed=%llu evals=%d checksum=%016llx\n",
                optimizer_name(cells[i].optimizer),
                static_cast<unsigned long long>(cells[i].seed),
                first.cells[i].evals,
                static_cast<unsigned long long>(first.cells[i].checksum));
  }

  // A traced run alternates untraced and traced passes.
  std::vector<PassResult> passes{first};
  std::vector<PassResult> traced;
  double parallel_calls = 0.0;
  double parallel_items = 0.0;
  double elapsed = first.wall_s;
  while (elapsed < args.seconds || (args.trace && traced.empty())) {
    const bool trace_this = args.trace && passes.size() > traced.size();
    const auto before = registry_counters();
    trace::set_enabled(trace_this);
    PassResult p = run_pass(searcher, cells, expected, report,
                            passes.size() + traced.size());
    trace::set_enabled(false);
    elapsed += p.wall_s;
    if (trace_this) {
      const auto after = registry_counters();
      parallel_calls += counter_delta(before, after, "anb.parallel.calls");
      parallel_items += counter_delta(before, after, "anb.parallel.items");
      traced.push_back(std::move(p));
    } else {
      passes.push_back(std::move(p));
    }
  }

  // Scalar-oracle reruns of the first seed must match the batched runs.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].seed != cells.front().seed ||
        cells[i].optimizer == Optimizer::kPareto) {
      continue;
    }
    report.op(searcher.run(cells[i], /*scalar=*/true).checksum == expected[i],
              std::string("scalar-oracle rerun differs from batched run: ") +
                  optimizer_name(cells[i].optimizer));
  }

  // op_ms is a pass's wall time per optimizer run, so every optimizer x
  // seed counts in proportion to its cost.
  const double n_cells = static_cast<double>(cells.size());
  std::vector<double> rates, run_ms, cpu_ms, untraced_s;
  for (const PassResult& p : passes) {
    rates.push_back(p.evals / p.wall_s);
    untraced_s.push_back(p.wall_s);
    run_ms.push_back(p.wall_s * 1e3 / n_cells);
    cpu_ms.push_back(p.cpu_s * 1e3 / n_cells);
  }
  report.set("op_ms", median(run_ms));
  report.set("cpu_ms", median(cpu_ms));
  std::printf("search_evals_per_s %.1f evals/s (median of %zu passes, %.0f "
              "evals each)\n",
              median(rates), rates.size(), first.evals);
  std::printf("search pass wall per optimizer run %s\n",
              describe(summarize(run_ms), "ms").c_str());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<double> ms;
    for (const PassResult& p : passes) ms.push_back(p.cells[i].wall_s * 1e3);
    std::printf("run %s seed=%llu %s\n", optimizer_name(cells[i].optimizer),
                static_cast<unsigned long long>(cells[i].seed),
                describe(summarize(ms), "ms").c_str());
  }
  if (!args.trace) return;

  const double n = static_cast<double>(traced.size());
  double nas_evals = 0.0;
  double traced_total = 0.0;
  std::vector<double> traced_s;
  for (const PassResult& p : traced) {
    traced_s.push_back(p.wall_s);
    traced_total += p.wall_s;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].optimizer != Optimizer::kPareto) {
        nas_evals += p.cells[i].evals;
      }
    }
  }
  const double query_s = trace::total_s("anb.query");
  report.set("anb.query.s", query_s / n);
  report.set("anb.query.us_per_row", ratio(query_s * 1e6, tally.rows));
  report.set("anb.query.batch_rows_mean", ratio(tally.rows, tally.batches));
  report.set("anb.query.cache_hit_ratio", ratio(tally.hits, tally.lookups));
  report.set("anb.query.cache_lookups", tally.lookups / n);
  report.set("nas.self_us_per_eval",
             ratio(trace::self_s("nas.run") * 1e6, nas_evals));
  report.set("util.parallel.calls", parallel_calls / n);
  report.set("util.parallel.items", parallel_items / n);
  report.set("trace.overhead_frac", ratio(median(traced_s) - median(untraced_s),
                                          median(untraced_s)));
  report.set("trace.coverage_frac",
             ratio(trace::total_s("nas.run") +
                       trace::total_s("anb.pareto_search"),
                   traced_total));
  std::printf("anb.query.cache_hit_ratio %s\n",
              describe_ratio(tally.hits, tally.lookups).c_str());
}

}  // namespace perfbench
