#include "anb/obs/registry.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "anb/util/error.hpp"
#include "anb/util/mutex.hpp"
#include "anb/util/thread_annotations.hpp"

namespace anb::obs {

namespace detail {

std::atomic<int> g_metrics_enabled{1};

}  // namespace detail

namespace {

/// Cells per histogram: kHistogramBuckets bucket counts plus the exact sum.
constexpr std::size_t kHistogramCells = kHistogramBuckets + 1;

/// One thread's private accumulation cells. Indexed by the absolute cell
/// offsets handed out at registration; grown lazily by the owning thread,
/// so growth needs no lock (the vector is only read by other threads under
/// the registry mutex at merge time, and merges require quiescence).
struct Shard {
  std::vector<std::uint64_t> cells;
};

struct MetricMeta {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::size_t handle = 0;  // index into the kind's handle deque
  std::size_t cell = 0;    // first shard cell (counters/histograms)
};

}  // namespace

namespace detail {

/// Process-wide registry. Leaked on purpose (like fault.cpp's Registry) so
/// metric updates from late-destroyed threads never race a destructor.
/// Everything the mutex guards says so in its declaration; the *_locked
/// helpers carry ANB_REQUIRES(mu), so a call path that forgets the lock is
/// a compile error under -Wthread-safety.
struct RegistryImpl {
  Mutex mu;
  // name -> meta id; std::less<> enables string_view lookups.
  std::map<std::string, std::size_t, std::less<>> index ANB_GUARDED_BY(mu);
  // A deque, not a vector: metric_name() hands out references to the names
  // stored here, which must survive later registrations (a vector's
  // reallocation would move the strings and dangle every handed-out name).
  std::deque<MetricMeta> metas ANB_GUARDED_BY(mu);
  std::size_t n_cells ANB_GUARDED_BY(mu) = 0;  // total shard cells handed out

  // Handles live in deques so references stay stable across registration.
  std::deque<Counter> counters ANB_GUARDED_BY(mu);
  std::deque<Gauge> gauges ANB_GUARDED_BY(mu);
  std::deque<Histogram> histograms ANB_GUARDED_BY(mu);
  std::deque<std::atomic<std::uint64_t>> gauge_slots ANB_GUARDED_BY(mu);

  // Shard lifecycle: live shards in registration order, a serial
  // accumulation of dead threads' cells, and a freelist so threads that
  // come and go (a server's workers, a test's client threads) recycle
  // storage instead of growing it without bound. The cells *inside* a live
  // shard are written lock-free by their owning thread (that is the whole
  // point of sharding) and only read by others under mu at merge time — so
  // the pointers are guarded, the pointees deliberately are not.
  std::vector<Shard*> live ANB_GUARDED_BY(mu);
  std::vector<std::uint64_t> retired ANB_GUARDED_BY(mu);
  std::vector<Shard*> free_shards ANB_GUARDED_BY(mu);

  static RegistryImpl& get() {
    static RegistryImpl* impl = new RegistryImpl();
    return *impl;
  }

  /// Merged value of one cell: retired threads first, then live shards in
  /// registration order. Serial, so the reduction order is fixed (and for
  /// uint64 sums, order is irrelevant anyway — this mirrors the
  /// CollectionReport discipline for clarity, not correctness).
  std::uint64_t merged_cell_locked(std::size_t cell) const ANB_REQUIRES(mu) {
    std::uint64_t total = cell < retired.size() ? retired[cell] : 0;
    for (const Shard* shard : live) {
      if (cell < shard->cells.size()) total += shard->cells[cell];
    }
    return total;
  }

  const std::string& metric_name(std::size_t metric) {
    MutexLock lock(mu);
    return metas[metric].name;
  }

  /// Find-or-register under the lock; returns the meta index. Throws on a
  /// kind mismatch for an existing name.
  std::size_t register_locked(std::string_view name, MetricKind kind)
      ANB_REQUIRES(mu) {
    ANB_CHECK(!name.empty(), "obs: metric name must be non-empty");
    auto it = index.find(name);
    if (it != index.end()) {
      const MetricMeta& meta = metas[it->second];
      ANB_CHECK(meta.kind == kind,
                "obs: metric '" + std::string(name) +
                    "' already registered as " +
                    std::string(metric_kind_name(meta.kind)));
      return it->second;
    }
    MetricMeta meta;
    meta.name = std::string(name);
    meta.kind = kind;
    meta.cell = n_cells;
    switch (kind) {
      case MetricKind::kCounter:
        meta.handle = counters.size();
        counters.push_back(Counter(metas.size(), n_cells));
        n_cells += 1;
        break;
      case MetricKind::kGauge:
        meta.handle = gauges.size();
        gauge_slots.emplace_back(0);
        gauges.push_back(Gauge(metas.size(), &gauge_slots.back()));
        break;
      case MetricKind::kHistogram:
        meta.handle = histograms.size();
        histograms.push_back(Histogram(metas.size(), n_cells));
        n_cells += kHistogramCells;
        break;
    }
    const std::size_t id = metas.size();
    metas.push_back(std::move(meta));
    index.emplace(metas.back().name, id);
    return id;
  }
};

}  // namespace detail

namespace {

using detail::RegistryImpl;

/// Thread-local shard holder; the destructor retires the shard's cells
/// into the registry's serial accumulator and recycles the storage.
struct TlsShard {
  Shard* shard = nullptr;

  ~TlsShard() {
    if (shard == nullptr) return;
    RegistryImpl& r = RegistryImpl::get();
    MutexLock lock(r.mu);
    if (r.retired.size() < shard->cells.size()) {
      r.retired.resize(shard->cells.size(), 0);
    }
    for (std::size_t i = 0; i < shard->cells.size(); ++i) {
      r.retired[i] += shard->cells[i];
    }
    std::fill(shard->cells.begin(), shard->cells.end(), 0);
    r.live.erase(std::find(r.live.begin(), r.live.end(), shard));
    r.free_shards.push_back(shard);
    shard = nullptr;
  }
};

thread_local TlsShard t_shard;

Shard& local_shard() {
  if (t_shard.shard == nullptr) {
    RegistryImpl& r = RegistryImpl::get();
    MutexLock lock(r.mu);
    if (!r.free_shards.empty()) {
      t_shard.shard = r.free_shards.back();
      r.free_shards.pop_back();
    } else {
      t_shard.shard = new Shard();
    }
    r.live.push_back(t_shard.shard);
  }
  return *t_shard.shard;
}

/// Grow-on-demand cell access within the calling thread's shard.
std::uint64_t& shard_cell(Shard& shard, std::size_t cell) {
  if (shard.cells.size() <= cell) shard.cells.resize(cell + 1, 0);
  return shard.cells[cell];
}

std::size_t histogram_bucket(std::uint64_t value) {
  if (value == 0) return 0;
  return std::min<std::size_t>(kHistogramBuckets - 1, std::bit_width(value));
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  throw Error("obs: unknown MetricKind");
}

void set_metrics_enabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void Counter::add(std::uint64_t n) {
  if (!metrics_enabled()) return;
  shard_cell(local_shard(), cell_) += n;
}

std::uint64_t Counter::value() const {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  return r.merged_cell_locked(cell_);
}

const std::string& Counter::name() const {
  return RegistryImpl::get().metric_name(metric_);
}

void Gauge::set(double value) {
  if (!metrics_enabled()) return;
  slot_->store(std::bit_cast<std::uint64_t>(value), std::memory_order_relaxed);
}

double Gauge::value() const {
  return std::bit_cast<double>(slot_->load(std::memory_order_relaxed));
}

const std::string& Gauge::name() const {
  return RegistryImpl::get().metric_name(metric_);
}

void Histogram::observe(std::uint64_t value) {
  if (!metrics_enabled()) return;
  Shard& shard = local_shard();
  // Touch the last cell first so one resize covers the whole span.
  shard_cell(shard, cell_ + kHistogramBuckets) += value;  // exact sum
  shard.cells[cell_ + histogram_bucket(value)] += 1;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  std::vector<std::uint64_t> out(kHistogramBuckets, 0);
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    out[b] = r.merged_cell_locked(cell_ + b);
  }
  return out;
}

std::uint64_t Histogram::count() const {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    total += r.merged_cell_locked(cell_ + b);
  }
  return total;
}

std::uint64_t Histogram::sum() const {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  return r.merged_cell_locked(cell_ + kHistogramBuckets);
}

const std::string& Histogram::name() const {
  return RegistryImpl::get().metric_name(metric_);
}

Counter& counter(std::string_view name) {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  const std::size_t id = r.register_locked(name, MetricKind::kCounter);
  return r.counters[r.metas[id].handle];
}

Gauge& gauge(std::string_view name) {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  const std::size_t id = r.register_locked(name, MetricKind::kGauge);
  return r.gauges[r.metas[id].handle];
}

Histogram& histogram(std::string_view name) {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  const std::size_t id = r.register_locked(name, MetricKind::kHistogram);
  return r.histograms[r.metas[id].handle];
}

std::vector<MetricValue> snapshot_metrics() {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  std::vector<MetricValue> out;
  out.reserve(r.metas.size());
  for (const MetricMeta& meta : r.metas) {
    MetricValue v;
    v.name = meta.name;
    v.kind = meta.kind;
    switch (meta.kind) {
      case MetricKind::kCounter:
        v.value = r.merged_cell_locked(meta.cell);
        break;
      case MetricKind::kGauge:
        v.gauge_value = r.gauges[meta.handle].value();
        break;
      case MetricKind::kHistogram: {
        const std::size_t base = meta.cell;
        v.buckets.resize(kHistogramBuckets);
        for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
          v.buckets[b] = r.merged_cell_locked(base + b);
          v.value += v.buckets[b];
        }
        v.sum = r.merged_cell_locked(base + kHistogramBuckets);
        break;
      }
    }
    out.push_back(std::move(v));
  }
  // Registration order can vary run to run (thread interleaving at first
  // touch); name order cannot.
  std::sort(out.begin(), out.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_metrics() {
  RegistryImpl& r = RegistryImpl::get();
  MutexLock lock(r.mu);
  std::fill(r.retired.begin(), r.retired.end(), 0);
  for (Shard* shard : r.live) {
    std::fill(shard->cells.begin(), shard->cells.end(), 0);
  }
  for (auto& slot : r.gauge_slots) {
    slot.store(0, std::memory_order_relaxed);
  }
}

std::string metrics_csv_string() {
  std::ostringstream os;
  os << "metric,kind,value\n";
  for (const MetricValue& v : snapshot_metrics()) {
    switch (v.kind) {
      case MetricKind::kCounter:
        os << v.name << ",counter," << v.value << "\n";
        break;
      case MetricKind::kGauge: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v.gauge_value);
        os << v.name << ",gauge," << buf << "\n";
        break;
      }
      case MetricKind::kHistogram:
        os << v.name << ".count,histogram," << v.value << "\n";
        os << v.name << ".sum,histogram," << v.sum << "\n";
        for (std::size_t b = 0; b < v.buckets.size(); ++b) {
          if (v.buckets[b] == 0) continue;  // sparse: most buckets are empty
          os << v.name << ".bucket" << b << ",histogram," << v.buckets[b]
             << "\n";
        }
        break;
    }
  }
  return os.str();
}

void write_metrics_csv(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ANB_CHECK(out.good(), "obs: cannot open metrics CSV for writing: " + path);
  out << metrics_csv_string();
  out.flush();
  ANB_CHECK(out.good(), "obs: failed writing metrics CSV: " + path);
}

}  // namespace anb::obs
