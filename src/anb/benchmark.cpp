#include "anb/anb/benchmark.hpp"

#include <atomic>
#include <cstddef>
#include <unordered_map>
#include <utility>

#include "anb/fbnet/fbnet_space.hpp"
#include "anb/obs/registry.hpp"
#include "anb/obs/span.hpp"
#include "anb/surrogate/ensemble.hpp"
#include "anb/util/error.hpp"
#include "anb/util/fault.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/thread_annotations.hpp"

namespace anb {

namespace {
/// Epoch-style bound on each per-surrogate cache map: when an insert would
/// push past this, the map is dropped wholesale and refills. The MnasNet
/// space has ~10^13 points, so an unbounded map could grow without limit
/// under a long random search; 2^20 entries (~24 MiB/map) is far beyond any
/// optimizer budget in this repo, so eviction never fires in practice.
constexpr std::size_t kMaxCacheEntries = std::size_t{1} << 20;

/// Process-wide query counters (see DESIGN.md "Observability"). The cache
/// hit/miss counters back QueryCacheStats; per-instance accounting is
/// recovered by baseline subtraction in CacheState.
obs::Counter& query_count() {
  static obs::Counter& c = obs::counter("anb.query.count");
  return c;
}
obs::Counter& batch_count() {
  static obs::Counter& c = obs::counter("anb.query.batch.count");
  return c;
}
obs::Counter& batch_rows() {
  static obs::Counter& c = obs::counter("anb.query.batch.rows");
  return c;
}
obs::Histogram& batch_size_hist() {
  static obs::Histogram& h = obs::histogram("anb.query.batch.size");
  return h;
}
obs::Counter& cache_hits() {
  static obs::Counter& c = obs::counter("anb.query.cache.hits");
  return c;
}
obs::Counter& cache_misses() {
  static obs::Counter& c = obs::counter("anb.query.cache.misses");
  return c;
}
}  // namespace

/// Architecture-keyed query cache. Values are keyed by
/// SearchSpace::to_index(arch) — an exact bijection between architectures
/// and integers, so two distinct architectures can never alias. The maps
/// are mutex-guarded; hit/miss counts go to the process-wide registry
/// counters, with per-instance baselines captured here so cache_stats()
/// keeps its since-construction semantics. Predictions run *outside* the
/// lock: surrogates are deterministic, so two threads racing on the same
/// miss compute the same value and the duplicate insert is a no-op.
struct AccelNASBench::CacheState {
  Mutex mu;
  std::atomic<bool> enabled{true};
  std::uint64_t hits_baseline ANB_GUARDED_BY(mu) = 0;
  std::uint64_t misses_baseline ANB_GUARDED_BY(mu) = 0;
  std::unordered_map<std::uint64_t, double> accuracy_map ANB_GUARDED_BY(mu);
  std::unordered_map<MetricKey, std::unordered_map<std::uint64_t, double>>
      perf_maps ANB_GUARDED_BY(mu);

  CacheState() {
    hits_baseline = cache_hits().value();
    misses_baseline = cache_misses().value();
  }

  std::unordered_map<std::uint64_t, double>& map_for(const MetricKey* key)
      ANB_REQUIRES(mu) {
    return key == nullptr ? accuracy_map : perf_maps[*key];
  }
};

AccelNASBench::AccelNASBench() : cache_(std::make_unique<CacheState>()) {}
AccelNASBench::~AccelNASBench() = default;
AccelNASBench::AccelNASBench(AccelNASBench&&) noexcept = default;
AccelNASBench& AccelNASBench::operator=(AccelNASBench&&) noexcept = default;

const char* perf_metric_name(PerfMetric metric) {
  switch (metric) {
    case PerfMetric::kThroughput: return "Thr";
    case PerfMetric::kLatency: return "Lat";
    case PerfMetric::kEnergy: return "Enr";
    case PerfMetric::kPeakMemory: return "Mem";
  }
  return "unknown";
}

PerfMetric perf_metric_from_name(const std::string& name) {
  if (name == "Thr") return PerfMetric::kThroughput;
  if (name == "Lat") return PerfMetric::kLatency;
  if (name == "Enr") return PerfMetric::kEnergy;
  if (name == "Mem") return PerfMetric::kPeakMemory;
  throw Error("perf_metric_from_name: unknown metric '" + name + "'");
}

std::string device_short_name(DeviceKind kind) {
  switch (kind) {
    case DeviceKind::kTpuV2: return "TPUv2";
    case DeviceKind::kTpuV3: return "TPUv3";
    case DeviceKind::kA100: return "A100";
    case DeviceKind::kRtx3090: return "RTX";
    case DeviceKind::kZcu102: return "ZCU";
    case DeviceKind::kVck190: return "VCK";
    case DeviceKind::kMobileNpu: return "NPU";
    case DeviceKind::kServerCpu: return "CPU";
  }
  return "unknown";
}

DeviceKind device_from_short_name(const std::string& name) {
  if (name == "TPUv2") return DeviceKind::kTpuV2;
  if (name == "TPUv3") return DeviceKind::kTpuV3;
  if (name == "A100") return DeviceKind::kA100;
  if (name == "RTX") return DeviceKind::kRtx3090;
  if (name == "ZCU") return DeviceKind::kZcu102;
  if (name == "VCK") return DeviceKind::kVck190;
  if (name == "NPU") return DeviceKind::kMobileNpu;
  if (name == "CPU") return DeviceKind::kServerCpu;
  throw Error("device_from_short_name: unknown device '" + name + "'");
}

std::string MetricKey::to_string() const { return dataset_name(*this); }

MetricKey MetricKey::parse(const std::string& name) {
  // "ANB-<device>-<metric>"; the metric tag never contains '-', so split
  // at the last dash.
  const std::string prefix = "ANB-";
  ANB_CHECK(name.rfind(prefix, 0) == 0,
            "MetricKey::parse: expected 'ANB-' prefix in '" + name + "'");
  const auto last_dash = name.rfind('-');
  ANB_CHECK(last_dash != std::string::npos && last_dash > prefix.size(),
            "MetricKey::parse: malformed dataset name '" + name + "'");
  return MetricKey{
      device_from_short_name(
          name.substr(prefix.size(), last_dash - prefix.size())),
      perf_metric_from_name(name.substr(last_dash + 1))};
}

std::string dataset_name(MetricKey key) {
  return "ANB-" + device_short_name(key.device) + "-" +
         perf_metric_name(key.metric);
}

std::string AccelNASBench::perf_json_key(MetricKey key) {
  return std::string(device_kind_name(key.device)) + "/" +
         perf_metric_name(key.metric);
}

MetricKey AccelNASBench::perf_json_key_parse(const std::string& key) {
  const auto slash = key.find('/');
  ANB_CHECK(slash != std::string::npos,
            "AccelNASBench: malformed perf key '" + key + "'");
  return MetricKey{device_kind_from_name(key.substr(0, slash)),
                   perf_metric_from_name(key.substr(slash + 1))};
}

const SearchSpace& AccelNASBench::space_obj() const { return anb::space(space_); }

void AccelNASBench::check_space(const Arch& arch) const {
  ANB_CHECK(arch.space == space_,
            std::string("AccelNASBench: genotype is from space '") +
                space_name(arch.space) + "' but this benchmark serves '" +
                space_name(space_) + "'");
}

void AccelNASBench::set_space(SpaceId space) {
  ANB_CHECK(accuracy_ == nullptr && perf_.empty(),
            "AccelNASBench::set_space: surrogates already installed");
  register_builtin_spaces();
  anb::space(space);  // throws for unregistered ids
  space_ = space;
}

void AccelNASBench::set_accuracy_surrogate(
    std::unique_ptr<Surrogate> surrogate) {
  ANB_CHECK(surrogate != nullptr, "AccelNASBench: null accuracy surrogate");
  accuracy_ = std::move(surrogate);
}

void AccelNASBench::set_perf_surrogate(MetricKey key,
                                       std::unique_ptr<Surrogate> surrogate) {
  ANB_CHECK(surrogate != nullptr, "AccelNASBench: null perf surrogate");
  ANB_CHECK(key.metric != PerfMetric::kLatency ||
                device_supports_latency(key.device),
            "AccelNASBench: latency is only offered for FPGA platforms");
  perf_[key] = std::move(surrogate);
}

bool AccelNASBench::has_perf(MetricKey key) const {
  return perf_.count(key) > 0;
}

double AccelNASBench::query_accuracy(const Arch& arch) const {
  ANB_CHECK(accuracy_ != nullptr,
            "AccelNASBench: accuracy surrogate not installed");
  double out = 0.0;
  query_rows(*accuracy_, nullptr, {&arch, 1}, {&out, 1});
  query_count().add(1);
  return out;
}

std::vector<double> AccelNASBench::query_accuracy_batch(
    std::span<const Arch> archs) const {
  ANB_CHECK(accuracy_ != nullptr,
            "AccelNASBench: accuracy surrogate not installed");
  return cached_query_batch(*accuracy_, nullptr, archs);
}

namespace {
const EnsembleSurrogate* as_ensemble(const Surrogate* surrogate) {
  return dynamic_cast<const EnsembleSurrogate*>(surrogate);
}
}  // namespace

bool AccelNASBench::has_noisy_accuracy() const {
  return as_ensemble(accuracy_.get()) != nullptr;
}

double AccelNASBench::query_accuracy_noisy(const Arch& arch, Rng& rng) const {
  const auto* ensemble = as_ensemble(accuracy_.get());
  ANB_CHECK(ensemble != nullptr,
            "AccelNASBench: noisy queries need an ensemble accuracy "
            "surrogate (PipelineOptions::ensemble_accuracy)");
  check_space(arch);
  return ensemble->sample(space_obj().features(arch), rng);
}

std::pair<double, double> AccelNASBench::query_accuracy_dist(
    const Arch& arch) const {
  const auto* ensemble = as_ensemble(accuracy_.get());
  ANB_CHECK(ensemble != nullptr,
            "AccelNASBench: predictive distributions need an ensemble "
            "accuracy surrogate (PipelineOptions::ensemble_accuracy)");
  check_space(arch);
  return ensemble->predict_dist(space_obj().features(arch));
}

double AccelNASBench::query_perf(const Arch& arch, MetricKey key) const {
  const auto it = perf_.find(key);
  ANB_CHECK(it != perf_.end(),
            "AccelNASBench: no surrogate for " + dataset_name(key));
  double out = 0.0;
  query_rows(*it->second, &key, {&arch, 1}, {&out, 1});
  query_count().add(1);
  return out;
}

std::vector<double> AccelNASBench::query_perf_batch(
    std::span<const Arch> archs, MetricKey key) const {
  const auto it = perf_.find(key);
  ANB_CHECK(it != perf_.end(),
            "AccelNASBench: no surrogate for " + dataset_name(key));
  return cached_query_batch(*it->second, &key, archs);
}

std::vector<double> AccelNASBench::cached_query_batch(
    const Surrogate& surrogate, const MetricKey* key,
    std::span<const Arch> archs) const {
  const std::size_t n = archs.size();
  std::vector<double> out(n);
  if (n == 0) return out;
  {
    ANB_SPAN("anb.query.batch");
    query_rows(surrogate, key, archs, out);
  }
  batch_count().add(1);
  batch_rows().add(n);
  batch_size_hist().observe(n);
  return out;
}

void AccelNASBench::query_rows(const Surrogate& surrogate,
                               const MetricKey* key,
                               std::span<const Arch> archs,
                               std::span<double> out) const {
  const std::size_t n = archs.size();
  for (const Arch& arch : archs) check_space(arch);
  const SearchSpace& sp = space_obj();

  // Encodes the rows listed in `rows_to_encode` into one flat feature
  // matrix and predicts them with the surrogate's parallel batch path.
  // For the tree families that path auto-dispatches to the masked SIMD
  // descent engine (DESIGN.md "SIMD descent") — assembling misses into one
  // matrix here is what hands them vector-width batches instead of
  // per-arch scalar walks, at identical (bit-for-bit) results.
  const auto predict_rows = [&](std::span<const std::size_t> rows_to_encode,
                                std::span<double> pred) {
    const std::vector<double> first = sp.features(archs[rows_to_encode[0]]);
    const std::size_t num_features = first.size();
    std::vector<double> rows;
    rows.reserve(rows_to_encode.size() * num_features);
    rows.insert(rows.end(), first.begin(), first.end());
    for (std::size_t m = 1; m < rows_to_encode.size(); ++m) {
      const std::vector<double> f = sp.features(archs[rows_to_encode[m]]);
      rows.insert(rows.end(), f.begin(), f.end());
    }
    surrogate.predict_matrix(rows, num_features, pred);
  };

  if (cache_ == nullptr || !cache_->enabled.load(std::memory_order_relaxed)) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    predict_rows(all, out);
    return;
  }

  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = sp.to_index(archs[i]);

  // Phase 1 (locked): resolve cache hits, collect one representative row
  // per unique missing key. Duplicates of a miss within the batch count as
  // hits — they are served without an extra prediction.
  std::vector<std::size_t> miss_rows;
  std::unordered_map<std::uint64_t, std::size_t> miss_slot;
  std::vector<char> filled(n, 0);
  std::uint64_t hits = 0;
  {
    MutexLock lock(cache_->mu);
    const auto& map = cache_->map_for(key);
    for (std::size_t i = 0; i < n; ++i) {
      const auto hit = map.find(keys[i]);
      if (hit != map.end()) {
        out[i] = hit->second;
        filled[i] = 1;
        ++hits;
      } else if (miss_slot.emplace(keys[i], miss_rows.size()).second) {
        miss_rows.push_back(i);
      } else {
        ++hits;
      }
    }
  }
  if (hits > 0) cache_hits().add(hits);
  if (miss_rows.empty()) return;

  // Phase 2 (unlocked): one batched prediction over the unique misses.
  std::vector<double> pred(miss_rows.size());
  predict_rows(miss_rows, pred);

  // Phase 3 (locked): publish, then fan the predictions back out to every
  // row — including in-batch duplicates of a miss.
  {
    MutexLock lock(cache_->mu);
    auto& map = cache_->map_for(key);
    if (map.size() + pred.size() > kMaxCacheEntries) map.clear();
    for (std::size_t m = 0; m < miss_rows.size(); ++m)
      map.emplace(keys[miss_rows[m]], pred[m]);
  }
  cache_misses().add(static_cast<std::uint64_t>(pred.size()));
  for (std::size_t i = 0; i < n; ++i)
    if (filled[i] == 0) out[i] = pred[miss_slot.at(keys[i])];
}

void AccelNASBench::set_cache_enabled(bool enabled) {
  if (cache_ != nullptr)
    cache_->enabled.store(enabled, std::memory_order_relaxed);
}

bool AccelNASBench::cache_enabled() const {
  return cache_ != nullptr && cache_->enabled.load(std::memory_order_relaxed);
}

void AccelNASBench::clear_cache() const {
  if (cache_ == nullptr) return;
  MutexLock lock(cache_->mu);
  cache_->accuracy_map.clear();
  cache_->perf_maps.clear();
  cache_->hits_baseline = cache_hits().value();
  cache_->misses_baseline = cache_misses().value();
}

QueryCacheStats AccelNASBench::cache_stats() const {
  QueryCacheStats stats;
  if (cache_ == nullptr) return stats;
  MutexLock lock(cache_->mu);
  stats.hits = cache_hits().value() - cache_->hits_baseline;
  stats.misses = cache_misses().value() - cache_->misses_baseline;
  return stats;
}

std::vector<MetricKey> AccelNASBench::perf_targets() const {
  std::vector<MetricKey> out;
  out.reserve(perf_.size());
  for (const auto& [key, surrogate] : perf_) out.push_back(key);
  return out;
}

void AccelNASBench::save(const std::string& path) const {
  const std::string text = to_json().dump();
  if (fault::any_armed()) {
    if (const auto fire = fault::should_fire(kBenchmarkSaveFaultSite)) {
      // Short write: a prefix of the payload reaches disk, then the write
      // "fails". The truncated file must never load as a valid benchmark.
      const auto cut =
          static_cast<std::size_t>(fire->uniform() *
                                   static_cast<double>(text.size()));
      write_text_file(path, text.substr(0, cut));
      throw Error("AccelNASBench::save: injected short write to " + path);
    }
  }
  write_text_file(path, text);
}

AccelNASBench AccelNASBench::load_text(std::string text) {
  if (fault::any_armed()) {
    if (const auto fire = fault::should_fire(kBenchmarkLoadFaultSite)) {
      // Short read: only a prefix of the file arrives; the JSON parse of
      // the truncated text throws anb::Error below.
      const auto cut =
          static_cast<std::size_t>(fire->uniform() *
                                   static_cast<double>(text.size()));
      text.resize(cut);
    }
  }
  return from_json(Json::parse(text));
}

AccelNASBench AccelNASBench::load(const std::string& path) {
  try {
    return load_text(read_text_file(path));
  } catch (const Error& e) {
    throw Error("AccelNASBench::load: cannot load '" + path +
                "': " + e.what());
  }
}

}  // namespace anb
