#include "anb/anb/collection.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <set>
#include <utility>

#include "anb/ir/model_ir.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/util/error.hpp"
#include "anb/util/parallel.hpp"

namespace anb {

void RetryPolicy::validate() const {
  ANB_CHECK(max_read_attempts >= 1,
            "RetryPolicy: max_read_attempts must be >= 1");
  ANB_CHECK(outlier_tolerance > 0.0,
            "RetryPolicy: outlier_tolerance must be > 0");
  ANB_CHECK(outlier_reads >= 3 && outlier_reads % 2 == 1,
            "RetryPolicy: outlier_reads must be an odd count >= 3");
  ANB_CHECK(max_quarantine_frac >= 0.0 && max_quarantine_frac <= 1.0,
            "RetryPolicy: max_quarantine_frac must be in [0, 1]");
}

Dataset CollectedData::make_dataset(std::span<const double> labels) const {
  ANB_CHECK(labels.size() == archs.size(),
            "CollectedData::make_dataset: label/arch count mismatch");
  const SearchSpace& sp = anb::space(space);
  Dataset out(static_cast<std::size_t>(sp.feature_dim()));
  for (std::size_t i = 0; i < archs.size(); ++i)
    out.add(sp.features(archs[i]), labels[i]);
  return out;
}

Dataset CollectedData::perf_dataset(MetricKey key) const {
  const auto it = perf.find(dataset_name(key));
  ANB_CHECK(it != perf.end(),
            "CollectedData: no labels for " + dataset_name(key));
  return make_dataset(it->second);
}

namespace {

/// Per-sample failure accounting, filled independently for each work item
/// inside the parallel measurement loop and reduced in index order — the
/// report totals are therefore exact and identical at any thread count.
struct SampleCounters {
  std::uint64_t attempts = 0;
  std::uint64_t retries = 0;
  std::uint64_t transient_errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t rejected_outliers = 0;
  bool outlier_resolved = false;
  bool quarantined = false;
};

bool readings_agree(double a, double b, double tolerance) {
  return std::abs(a - b) <= tolerance * std::max(std::abs(a), std::abs(b));
}

/// One robust sample following the RetryPolicy protocol. `read` performs a
/// physical measurement for the given attempt number and may throw
/// TransientError/TimeoutError; attempts are numbered monotonically across
/// the whole sample so injected faults are deterministic per reading.
/// Returns std::nullopt when some reading exhausted its retry budget (the
/// architecture is then quarantined by the caller).
std::optional<double> robust_sample(
    const std::function<double(std::uint64_t)>& read, const RetryPolicy& rp,
    SampleCounters& c) {
  std::uint64_t attempt = 0;
  const auto read_with_retry = [&]() -> std::optional<double> {
    for (int t = 0; t < rp.max_read_attempts; ++t) {
      ++c.attempts;
      try {
        return read(attempt++);
      } catch (const TransientError&) {
        ++c.transient_errors;
        ++c.retries;
      } catch (const TimeoutError&) {
        ++c.timeouts;
        ++c.retries;
      }
    }
    return std::nullopt;
  };

  const auto first = read_with_retry();
  if (!first) {
    c.quarantined = true;
    return std::nullopt;
  }
  const auto second = read_with_retry();
  if (!second) {
    c.quarantined = true;
    return std::nullopt;
  }
  if (readings_agree(*first, *second, rp.outlier_tolerance)) return *first;

  // Disagreement: one of the two readings is an outlier. Re-measure to
  // `outlier_reads` total readings and accept the median — on a device
  // whose clean readings repeat exactly (same seed), the median recovers
  // the fault-free value whenever a majority of readings is clean.
  c.outlier_resolved = true;
  std::vector<double> readings{*first, *second};
  while (static_cast<int>(readings.size()) < rp.outlier_reads) {
    const auto next = read_with_retry();
    if (!next) {
      c.quarantined = true;
      return std::nullopt;
    }
    readings.push_back(*next);
  }
  std::vector<double> sorted = readings;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  for (const double r : readings) {
    if (!readings_agree(r, median, rp.outlier_tolerance))
      ++c.rejected_outliers;
  }
  return median;
}

/// Keeps only the elements of `v` whose index is not marked quarantined.
template <typename T>
void drop_quarantined(std::vector<T>& v,
                      const std::vector<std::uint8_t>& quarantined) {
  std::vector<T> kept;
  kept.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (quarantined[i] == 0) kept.push_back(std::move(v[i]));
  }
  v = std::move(kept);
}

}  // namespace

DataCollector::DataCollector(const SpaceSim& sim, std::vector<Device> devices)
    : sim_(&sim), devices_(std::move(devices)) {}

CollectedData DataCollector::collect(const CollectionConfig& config) const {
  ANB_CHECK(config.n_archs >= 1, "DataCollector: n_archs must be >= 1");
  config.scheme.validate();
  config.retry.validate();
  ANB_SPAN("anb.collect");

  const SearchSpace& sp = sim_->space();
  CollectedData data;
  data.space = sp.id();
  Rng rng(config.seed);
  std::set<std::uint64_t> seen;
  data.archs.reserve(static_cast<std::size_t>(config.n_archs));
  while (static_cast<int>(data.archs.size()) < config.n_archs) {
    Arch arch = sp.sample(rng);
    if (!seen.insert(sp.to_index(arch)).second) continue;
    data.archs.push_back(arch);
  }
  const std::size_t n = data.archs.size();

  // Accuracy labels: one proxified training run per architecture. Each
  // run's randomness is keyed by its index, so the loop parallelizes with
  // bit-identical results (the paper used a 24-GPU cluster here).
  data.accuracy.resize(n);
  std::vector<double> gpu_hours(n, 0.0);
  {
    ANB_SPAN("anb.collect.accuracy");
    parallel_for(n, [&](std::size_t i) {
      const TrainResult run =
          sim_->train(data.archs[i], config.scheme, /*run_seed=*/i);
      data.accuracy[i] = run.top1;
      gpu_hours[i] = run.gpu_hours;
    });
  }
  for (double h : gpu_hours) data.total_gpu_hours += h;

  // Performance labels: robust warm-up-and-average measurement per device
  // (retry, outlier rejection, quarantine — see RetryPolicy). Model IRs
  // are shared across devices, built once up front.
  if (config.collect_perf) {
    std::vector<ModelIR> irs(n);
    {
      ANB_SPAN("anb.collect.ir_build");
      parallel_for(n, [&](std::size_t i) {
        irs[i] = sim_->lower(data.archs[i], 224);
      });
    }

    // Archs quarantined by a *kept* dataset; a dataset that fails as a
    // whole is dropped without poisoning the survivors.
    std::vector<std::uint8_t> quarantined(n, 0);

    const auto measure_dataset =
        [&](const std::string& name,
            const std::function<double(std::size_t, std::uint64_t)>& read) {
          ANB_SPAN("anb.collect.measure." + name);
          std::vector<double> values(n, 0.0);
          std::vector<SampleCounters> counters(n);
          parallel_for(n, [&](std::size_t i) {
            const auto value = robust_sample(
                [&](std::uint64_t attempt) { return read(i, attempt); },
                config.retry, counters[i]);
            if (value) values[i] = *value;
          });

          // Serial, index-ordered reduction: exact and thread-invariant.
          std::size_t n_quarantined = 0;
          for (const SampleCounters& c : counters) {
            data.report.attempts += c.attempts;
            data.report.retries += c.retries;
            data.report.transient_errors += c.transient_errors;
            data.report.timeouts += c.timeouts;
            data.report.rejected_outliers += c.rejected_outliers;
            data.report.outlier_resolves += c.outlier_resolved ? 1 : 0;
            n_quarantined += c.quarantined ? 1 : 0;
          }
          const double frac =
              static_cast<double>(n_quarantined) / static_cast<double>(n);
          if (frac > config.retry.max_quarantine_frac) {
            data.report.failed_datasets.push_back(name);
            return;  // dataset failed as a whole: skip, do not quarantine
          }
          for (std::size_t i = 0; i < n; ++i) {
            if (counters[i].quarantined) quarantined[i] = 1;
          }
          data.perf[name] = std::move(values);
        };

    for (const auto& device : devices_) {
      const auto seed_of = [&](std::size_t i) {
        return hash_combine(config.seed, i);
      };
      measure_dataset(dataset_name(MetricKey{device.kind(), PerfMetric::kThroughput}),
                      [&](std::size_t i, std::uint64_t attempt) {
                        return device.measure_throughput(irs[i], seed_of(i),
                                                         attempt);
                      });
      if (device.supports_latency()) {
        measure_dataset(dataset_name(MetricKey{device.kind(), PerfMetric::kLatency}),
                        [&](std::size_t i, std::uint64_t attempt) {
                          return device.measure_latency(irs[i], seed_of(i),
                                                        attempt);
                        });
      }
      if (config.collect_energy) {
        measure_dataset(dataset_name(MetricKey{device.kind(), PerfMetric::kEnergy}),
                        [&](std::size_t i, std::uint64_t attempt) {
                          return device.measure_energy(irs[i], seed_of(i),
                                                       attempt);
                        });
      }
      if (config.collect_peak_memory) {
        measure_dataset(dataset_name(MetricKey{device.kind(), PerfMetric::kPeakMemory}),
                        [&](std::size_t i, std::uint64_t attempt) {
                          return device.measure_peak_memory(irs[i], seed_of(i),
                                                            attempt);
                        });
      }
    }

    // Drop quarantined architectures from every surviving vector, keeping
    // rows aligned. The report keeps the dropped architectures themselves.
    if (std::find(quarantined.begin(), quarantined.end(), 1) !=
        quarantined.end()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (quarantined[i] != 0) data.report.quarantined.push_back(data.archs[i]);
      }
      drop_quarantined(data.archs, quarantined);
      drop_quarantined(data.accuracy, quarantined);
      for (auto& [name, labels] : data.perf)
        drop_quarantined(labels, quarantined);
    }
  }

  // Export the run's failure accounting to the metrics registry, once, from
  // the already thread-invariant CollectionReport — the counters inherit its
  // determinism instead of re-deriving it.
  obs::counter("anb.collect.archs").add(data.archs.size());
  obs::counter("anb.collect.attempts").add(data.report.attempts);
  obs::counter("anb.collect.retries").add(data.report.retries);
  obs::counter("anb.collect.transient_errors")
      .add(data.report.transient_errors);
  obs::counter("anb.collect.timeouts").add(data.report.timeouts);
  obs::counter("anb.collect.outlier_resolves")
      .add(data.report.outlier_resolves);
  obs::counter("anb.collect.rejected_outliers")
      .add(data.report.rejected_outliers);
  obs::counter("anb.collect.quarantined").add(data.report.quarantined.size());
  obs::counter("anb.collect.failed_datasets")
      .add(data.report.failed_datasets.size());
  return data;
}

}  // namespace anb
