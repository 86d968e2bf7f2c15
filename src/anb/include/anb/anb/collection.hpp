#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "anb/anb/benchmark.hpp"
#include "anb/anb/space_sim.hpp"
#include "anb/hwsim/device.hpp"
#include "anb/surrogate/dataset.hpp"
#include "anb/trainsim/scheme.hpp"

namespace anb {

/// Recovery policy of the on-device measurement pipeline. Real fleets time
/// out, crash, and return outlier timings; every reading therefore goes
/// through bounded retry, and every accepted sample through the
/// measure-repeat-reject protocol below (the HW-NAS-Bench-style guard that
/// makes device datasets trustworthy):
///
///   1. take two readings; if they agree within `outlier_tolerance`
///      (relative), accept the first;
///   2. otherwise re-measure up to `outlier_reads` total readings and
///      accept their median, counting every reading that deviates from the
///      median beyond the tolerance as a rejected outlier.
///
/// A reading that keeps failing (TransientError/TimeoutError) for
/// `max_read_attempts` consecutive attempts quarantines the architecture:
/// it is dropped from the collected dataset and reported. A device×metric
/// dataset that quarantines more than `max_quarantine_frac` of the
/// architectures is considered failed as a whole: it is skipped (not
/// emitted), reported, and its quarantines do not poison the surviving
/// datasets.
struct RetryPolicy {
  int max_read_attempts = 4;       ///< measurement tries per reading
  double outlier_tolerance = 0.05; ///< relative agreement threshold
  int outlier_reads = 5;           ///< readings in a median resolve (odd)
  double max_quarantine_frac = 0.25;

  void validate() const;
};

/// Configuration of the benchmark-construction data collection (§3.3).
struct CollectionConfig {
  int n_archs = 5200;        ///< paper: ~5.2k random architectures
  std::uint64_t seed = 7;
  TrainingScheme scheme;     ///< the proxy scheme p* used for training
  bool collect_perf = true;  ///< also run the 6-device measurement pipeline
  /// Also collect per-device energy (extension beyond the paper, E12).
  bool collect_energy = false;
  /// Also collect per-device peak memory (second extension metric).
  bool collect_peak_memory = false;
  RetryPolicy retry;
};

/// Exact accounting of the measurement pipeline's failure handling. All
/// counters are accumulated per work item and reduced in index order, so
/// they are identical at any thread count (and exactly zero on a fault-free
/// run except `attempts`, which counts the two protocol readings per
/// sample).
struct CollectionReport {
  std::uint64_t attempts = 0;     ///< measurement invocations, incl. retries
  std::uint64_t retries = 0;      ///< failed invocations that were retried
  std::uint64_t transient_errors = 0;  ///< TransientError count (⊂ retries)
  std::uint64_t timeouts = 0;          ///< TimeoutError count (⊂ retries)
  std::uint64_t outlier_resolves = 0;  ///< samples that needed median-of-k
  std::uint64_t rejected_outliers = 0; ///< readings discarded by the resolve
  /// dataset_name() of every device×metric dataset dropped because it
  /// quarantined more than RetryPolicy::max_quarantine_frac of the archs.
  std::vector<std::string> failed_datasets;
  /// Genotypes dropped because some reading in a *kept* dataset
  /// exhausted its retry budget, in collection (index) order.
  std::vector<Arch> quarantined;

  /// True when nothing failed: no retries, no outlier resolves, no
  /// quarantined architecture, no dropped dataset.
  bool clean() const {
    return retries == 0 && outlier_resolves == 0 && rejected_outliers == 0 &&
           failed_datasets.empty() && quarantined.empty();
  }
};

/// The raw collected data: architectures plus their measured labels.
struct CollectedData {
  SpaceId space = SpaceId::kMnasNet;  ///< the space `archs` came from
  std::vector<Arch> archs;
  std::vector<double> accuracy;  ///< ANB-Acc labels (proxified top-1)
  /// ANB-{device}-{metric} labels, keyed by dataset_name(). Datasets that
  /// failed as a whole (see RetryPolicy) are absent.
  std::map<std::string, std::vector<double>> perf;
  double total_gpu_hours = 0.0;  ///< simulated training cost of collection
  /// Failure-handling accounting of the measurement pipeline. Quarantined
  /// architectures are already removed from `archs`/`accuracy`/`perf`.
  CollectionReport report;

  /// Feature-encoded dataset for a label vector.
  Dataset make_dataset(std::span<const double> labels) const;
  Dataset accuracy_dataset() const { return make_dataset(accuracy); }
  Dataset perf_dataset(MetricKey key) const;
};

/// Runs the Fig. 2 (bottom) pipeline: sample unique random architectures,
/// train each with the proxy scheme, and measure throughput/latency on the
/// accelerator fleet (int8-quantized DPU runs on the FPGAs are modelled by
/// the device specs). Deterministic given the config seed. Space-generic:
/// sampling, training, and IR lowering all route through the SpaceSim.
class DataCollector {
 public:
  DataCollector(const SpaceSim& sim, std::vector<Device> devices);

  CollectedData collect(const CollectionConfig& config) const;

 private:
  const SpaceSim* sim_;
  std::vector<Device> devices_;
};

}  // namespace anb
