// Workload `serve`: the set-up artifact served by an in-process
// serve::Server, driven open-loop from this process through a few
// pipelined connections (fewer than nproc). This exercises the protocol,
// the Scheduler's coalescing, the outboxes and the per-connection
// threads, and uses the predict layer in small coalesced batches.
//
// The generator: every step's schedule is drawn from --seed before the
// first request is sent. One sender thread (the main thread) writes frames
// from the public encode_query_* functions when they are due; one receiver
// thread per connection reads replies with Client::recv_reply. Each
// request is timed from when it was due, so a stalled sender shows up in
// latency. Requests are scalar accuracy and perf queries over four
// MetricKey buckets; half draw from a small hot set of architectures, the
// rest are fresh random ones.
//
// The run is kRounds rounds, each a Poisson step at the reference rate and
// a saturation burst, then a ladder of rates that stops at the first step
// that misses the p99 limit, lets the backlog (sent - answered) grow,
// sends late, or sees a failure; serve_max_qps is the highest rate that
// passed. kRetryLater, error replies, disconnects, replies still missing
// after the drain and values that differ from a direct in-process query
// are failures.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anb/serve/client.hpp"
#include "anb/serve/protocol.hpp"
#include "anb/serve/server.hpp"
#include "anb/util/parallel.hpp"
#include "anb/util/rng.hpp"
#include "common.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using anb::AccelNASBench;
using anb::Arch;

/// Arrival rates of the ladder, req/s. The first is the reference rate,
/// below the knee.
const std::vector<double> kLadder{2000, 4000, 8000, 16000, 24000, 32000};
/// The bounded metrics are medians over rounds spread across the run, so a
/// stall of the shared host in one round does not move them. A round is a
/// step at the reference rate and a saturation burst.
constexpr int kRounds = 4;
/// Shares of --seconds spent at the reference rate (over all rounds) and on
/// the ladder (over all its steps).
constexpr double kReferenceShare = 0.5;
constexpr double kLadderShare = 0.3;
/// The p99 latency a step must meet (stated in BENCHMARK.json).
constexpr double kP99LimitUs = 2000.0;
/// A step whose p99 sending lag exceeds this is invalid: the generator,
/// not the server, set its latency.
constexpr double kLagLimitUs = 1000.0;
/// The sender stops a step early once this many requests are unanswered.
constexpr std::uint64_t kMaxBacklog = 2048;
/// A step's backlog "grows" when it rises by more than this between the
/// step's midpoint and its last send.
constexpr std::uint64_t kBacklogSlack = 64;
constexpr double kDrainTimeoutS = 2.0;
constexpr std::size_t kHotArchs = 32;
/// The saturation bursts send this many requests per --seconds (over all
/// rounds) as fast as a window of kSaturationWindow unanswered requests
/// allows; their completion rate is the server's capacity. The window keeps
/// pending rows below the scheduler's admission bound, so saturation causes
/// no kRetryLater.
constexpr std::size_t kSaturationPerSecond = 10000;
constexpr std::uint64_t kSaturationWindow = 1024;

struct Bucket {
  bool accuracy;
  anb::MetricKey key;
};
const std::vector<Bucket> kBuckets{
    {true, {}},
    {false, {anb::DeviceKind::kZcu102, anb::PerfMetric::kThroughput}},
    {false, {anb::DeviceKind::kZcu102, anb::PerfMetric::kLatency}},
    {false, {anb::DeviceKind::kA100, anb::PerfMetric::kThroughput}},
};

struct Request {
  std::int64_t due_offset_ns = 0;  ///< from the start of its step
  std::uint32_t bucket = 0;
  std::uint64_t arch = 0;  ///< MnasSpace::to_index
};

struct Step {
  double rate = 0.0;  ///< 0 for a saturation burst
  std::vector<Request> requests;
};

struct Schedule {
  std::vector<Step> reference;   ///< one per round
  std::vector<Step> saturation;  ///< one per round
  std::vector<Step> ladder;

  std::size_t requests() const {
    std::size_t n = 0;
    for (const auto* steps : {&reference, &saturation, &ladder}) {
      for (const Step& s : *steps) n += s.requests.size();
    }
    return n;
  }
};

Schedule make_schedule(std::uint64_t seed, int seconds) {
  const anb::MnasSpace& space = anb::MnasSpace::instance();
  anb::Rng hot_rng(anb::hash_combine(seed, 0x407));
  std::vector<std::uint64_t> hot;
  for (std::size_t i = 0; i < kHotArchs; ++i) {
    hot.push_back(space.to_index(space.sample(hot_rng)));
  }
  auto draw = [&](anb::Rng& rng, std::int64_t due_offset_ns) {
    Request r;
    r.due_offset_ns = due_offset_ns;
    r.bucket = static_cast<std::uint32_t>(rng.uniform_index(kBuckets.size()));
    r.arch = rng.uniform() < 0.5 ? hot[rng.uniform_index(hot.size())]
                                 : space.to_index(space.sample(rng));
    return r;
  };
  std::uint64_t stream = 0;
  auto poisson = [&](double rate, double duration) {
    anb::Rng rng(anb::hash_combine(seed, 0x5C0 + stream++));
    Step step;
    step.rate = rate;
    for (double t = -std::log(1.0 - rng.uniform()) / rate; t < duration;
         t += -std::log(1.0 - rng.uniform()) / rate) {
      step.requests.push_back(draw(rng, static_cast<std::int64_t>(t * 1e9)));
    }
    return step;
  };
  auto burst = [&](std::size_t n) {
    anb::Rng rng(anb::hash_combine(seed, 0x5C0 + stream++));
    Step step;
    for (std::size_t i = 0; i < n; ++i) step.requests.push_back(draw(rng, 0));
    return step;
  };
  Schedule out;
  for (int r = 0; r < kRounds; ++r) {
    out.reference.push_back(
        poisson(kLadder.front(), seconds * kReferenceShare / kRounds));
    out.saturation.push_back(
        burst(kSaturationPerSecond * static_cast<std::size_t>(seconds) /
              kRounds));
  }
  for (const double rate : kLadder) {
    out.ladder.push_back(
        poisson(rate, seconds * kLadderShare /
                          static_cast<double>(kLadder.size())));
  }
  return out;
}

enum Status : std::uint8_t { kPending = 0, kValue, kRetryLater, kErrorReply };

/// Reply slots, indexed by request id - 1. A receiver writes a slot's
/// time and value, then publishes them with a release store of status.
struct Replies {
  explicit Replies(std::size_t n)
      : recv_ns(n), value(n), status(n) {}
  std::vector<std::int64_t> recv_ns;
  std::vector<double> value;
  std::vector<std::atomic<std::uint8_t>> status;
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> unexpected{0};
  std::atomic<std::uint64_t> disconnects{0};
};

void receive(anb::serve::Client& client, Replies& replies,
             const std::atomic<bool>& stopping) {
  for (;;) {
    anb::serve::Reply reply;
    try {
      trace::Span s("serve.recv_reply", 0);
      reply = client.recv_reply();
    } catch (const std::exception&) {
      if (!stopping.load()) replies.disconnects.fetch_add(1);
      return;
    }
    const std::int64_t now = trace::now_ns();
    const std::uint64_t slot = reply.request_id - 1;
    if (reply.request_id == 0 || slot >= replies.status.size() ||
        replies.status[slot].load(std::memory_order_acquire) != kPending) {
      replies.unexpected.fetch_add(1);
      continue;
    }
    replies.recv_ns[slot] = now;
    replies.value[slot] = reply.value;
    const Status status = reply.type == anb::serve::MsgType::kValue
                              ? kValue
                              : reply.type == anb::serve::MsgType::kRetryLater
                                    ? kRetryLater
                                    : kErrorReply;
    replies.status[slot].store(status, std::memory_order_release);
    replies.answered.fetch_add(1);
  }
}

/// The generator's connections and one receiver thread per connection.
/// stop(), which the destructor also runs, wakes and joins every receiver,
/// so no path out of run_serve leaves a thread running.
class Connections {
 public:
  Connections(const std::string& socket_path, std::size_t n) {
    for (std::size_t c = 0; c < n; ++c) {
      clients_.push_back(std::make_unique<anb::serve::Client>(socket_path));
      clients_.back()->hello(c, 0);
    }
  }
  ~Connections() { stop(); }
  Connections(const Connections&) = delete;
  Connections& operator=(const Connections&) = delete;

  /// Start the receivers; `replies` must outlive this object.
  void start(Replies& replies) {
    for (auto& client : clients_) {
      receivers_.emplace_back(receive, std::ref(*client), std::ref(replies),
                              std::cref(stopping_));
    }
  }

  void stop() {
    stopping_.store(true);
    for (auto& client : clients_) client->socket().shutdown_read();
    for (std::thread& t : receivers_) {
      if (t.joinable()) t.join();
    }
  }

  std::size_t size() const { return clients_.size(); }
  /// CPU seconds the receiver threads have used so far.
  double cpu_s() {
    double total = 0.0;
    for (std::thread& t : receivers_) total += thread_cpu_s(t.native_handle());
    return total;
  }
  anb::net::Socket& socket(std::size_t i) { return clients_[i]->socket(); }

 private:
  std::vector<std::unique_ptr<anb::serve::Client>> clients_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> receivers_;
};

void wait_until(std::int64_t due_ns) {
  for (;;) {
    const std::int64_t now = trace::now_ns();
    if (now >= due_ns) return;
    // Sleep until shortly before the due time, then spin: a sleep alone
    // wakes tens of microseconds late.
    if (due_ns - now > 200'000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - 100'000));
    }
  }
}

struct StepResult {
  double rate = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failures = 0;
  Summary latency_us;
  double p25_us = 0.0;
  double p99_us = 0.0;  ///< infinity unless >= 10 samples lie beyond p99
  double lag_p99_us = 0.0;
  double completed_per_s = 0.0;  ///< ok replies per second of the step
  /// CPU time of the server's threads from the first send to the end of
  /// the drain, per ok reply.
  double server_cpu_us = 0.0;
  bool backlog_grew = false;
  bool passed = false;
};

class Generator {
 public:
  Generator(Connections& conns, Replies& replies, const AccelNASBench& direct)
      : conns_(conns), replies_(replies), direct_(direct) {}

  /// Send `step` on its schedule, drain it, check every reply.
  StepResult run_step(const Step& step, Report& report) {
    const std::uint64_t first = next_slot_;
    next_slot_ += step.requests.size();
    trace::set_run(++steps_run_);
    trace::Span step_span("serve.step");
    StepResult out;
    out.rate = step.rate;
    std::vector<double> lags;
    lags.reserve(step.requests.size());
    std::vector<std::int64_t> due(step.requests.size());
    const std::uint64_t answered_before = replies_.answered.load();
    std::uint64_t backlog_mid = 0;
    bool aborted = false;
    const bool saturate = step.rate == 0.0;
    const double cpu0 = server_cpu_s();
    const std::int64_t start = trace::now_ns() + 1'000'000;
    for (std::size_t i = 0; i < step.requests.size(); ++i) {
      const Request& r = step.requests[i];
      due[i] = start + r.due_offset_ns;
      wait_until(due[i]);
      if (saturate) {
        while (out.sent - (replies_.answered.load() - answered_before) >=
               kSaturationWindow) {
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        due[i] = trace::now_ns();
      } else {
        lags.push_back(static_cast<double>(trace::now_ns() - due[i]) * 1e-3);
      }
      const std::uint64_t id = first + i + 1;
      const Bucket& b = kBuckets[r.bucket];
      bool sent = false;
      {
        trace::Span s("serve.send");
        const std::vector<char> frame =
            b.accuracy ? anb::serve::encode_query_accuracy(id, r.arch)
                       : anb::serve::encode_query_perf(id, b.key, r.arch);
        sent = conns_.socket(i % conns_.size()).send_all(frame);
      }
      if (!sent) replies_.disconnects.fetch_add(1);
      ++out.sent;
      const std::uint64_t backlog =
          out.sent - (replies_.answered.load() - answered_before);
      if (i == step.requests.size() / 2) backlog_mid = backlog;
      if (!saturate && backlog > kMaxBacklog) {
        aborted = true;
        break;
      }
    }
    const std::uint64_t backlog_end =
        out.sent - (replies_.answered.load() - answered_before);
    out.backlog_grew = aborted || backlog_end > backlog_mid + kBacklogSlack;

    const trace::Clock drain = trace::now_ns();
    while (replies_.answered.load() - answered_before < out.sent &&
           seconds_since(drain) < kDrainTimeoutS) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double step_cpu_s = server_cpu_s() - cpu0;

    // Every reply against a direct query on the uncached copy.
    std::vector<std::vector<Arch>> archs(kBuckets.size());
    std::vector<std::vector<std::size_t>> rows(kBuckets.size());
    const anb::MnasSpace& space = anb::MnasSpace::instance();
    std::vector<double> latency_us;
    std::int64_t last_reply = start;
    for (std::size_t i = 0; i < out.sent; ++i) {
      const std::uint8_t status =
          replies_.status[first + i].load(std::memory_order_acquire);
      if (status != kValue) {
        ++out.failures;  // missing, kRetryLater or an error reply
        continue;
      }
      latency_us.push_back(
          static_cast<double>(replies_.recv_ns[first + i] - due[i]) * 1e-3);
      last_reply = std::max(last_reply, replies_.recv_ns[first + i]);
      archs[step.requests[i].bucket].push_back(
          space.from_index(step.requests[i].arch));
      rows[step.requests[i].bucket].push_back(first + i);
    }
    for (std::size_t b = 0; b < kBuckets.size(); ++b) {
      const std::vector<double> expected =
          kBuckets[b].accuracy
              ? direct_.query_accuracy_batch(archs[b])
              : direct_.query_perf_batch(archs[b], kBuckets[b].key);
      for (std::size_t k = 0; k < expected.size(); ++k) {
        if (std::memcmp(&expected[k], &replies_.value[rows[b][k]],
                        sizeof(double)) == 0) {
          ++out.ok;
        } else {
          ++out.failures;
        }
      }
    }
    report.ops(out.sent, out.failures,
               "requests without a correct reply at " +
                   std::to_string(static_cast<long>(out.rate)) + " req/s");
    out.latency_us = summarize(latency_us);
    std::sort(latency_us.begin(), latency_us.end());
    out.p25_us = latency_us.empty() ? 0.0 : percentile(latency_us, 25.0);
    out.p99_us =samples_beyond(latency_us.size(), 99.0) >= kTailSamples
                     ? percentile(latency_us, 99.0)
                     : std::numeric_limits<double>::infinity();
    out.completed_per_s = ratio(static_cast<double>(out.ok),
                                static_cast<double>(last_reply - start) * 1e-9);
    out.server_cpu_us = ratio(step_cpu_s * 1e6, static_cast<double>(out.ok));
    std::sort(lags.begin(), lags.end());
    out.lag_p99_us = lags.empty() ? 0.0 : percentile(lags, 99.0);
    out.passed = out.failures == 0 && !out.backlog_grew &&
                 out.p99_us <= kP99LimitUs && out.lag_p99_us <= kLagLimitUs;
    if (saturate) {
      std::printf("saturation: window=%llu sent=%llu ok=%llu failed=%llu "
                  "completed %.0f req/s, server cpu %.2fus/req, %s\n",
                  static_cast<unsigned long long>(kSaturationWindow),
                  static_cast<unsigned long long>(out.sent),
                  static_cast<unsigned long long>(out.ok),
                  static_cast<unsigned long long>(out.failures),
                  out.completed_per_s, out.server_cpu_us,
                  describe(out.latency_us, "us").c_str());
      return out;
    }
    std::printf("step rate=%.0f/s sent=%llu ok=%llu failed=%llu %s "
                "server cpu %.2fus/req lag_p99=%.1fus backlog mid=%llu "
                "end=%llu -> %s\n",
                out.rate, static_cast<unsigned long long>(out.sent),
                static_cast<unsigned long long>(out.ok),
                static_cast<unsigned long long>(out.failures),
                describe(out.latency_us, "us").c_str(), out.server_cpu_us,
                out.lag_p99_us,
                static_cast<unsigned long long>(backlog_mid),
                static_cast<unsigned long long>(backlog_end),
                out.passed ? "pass" : "fail");
    return out;
  }

 private:
  /// CPU seconds of every thread but the generator's: the sender (this
  /// thread) and the receivers.
  double server_cpu_s() const {
    return process_cpu_s() - thread_cpu_s(pthread_self()) - conns_.cpu_s();
  }

  Connections& conns_;
  Replies& replies_;
  const AccelNASBench& direct_;
  std::uint64_t next_slot_ = 0;
  std::uint64_t steps_run_ = 0;
};

std::size_t task_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Median microseconds of one query_accuracy_batch call of `batch` rows on
/// the uncached copy, over the reference step's accuracy architectures.
double direct_query_us(const AccelNASBench& direct, const Step& step,
                       std::size_t batch) {
  const anb::MnasSpace& space = anb::MnasSpace::instance();
  std::vector<Arch> archs;
  for (const Request& r : step.requests) {
    if (kBuckets[r.bucket].accuracy) archs.push_back(space.from_index(r.arch));
  }
  std::vector<double> samples;
  for (std::size_t i = 0; i + batch <= archs.size(); i += batch) {
    const trace::Clock t0 = trace::now_ns();
    (void)direct.query_accuracy_batch(
        std::span<const Arch>(archs.data() + i, batch));
    samples.push_back(seconds_since(t0) * 1e6);
  }
  return median(samples);
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  const std::string path = args.out_dir + "/serve.anbb";
  const SetupArtifact artifact =
      make_setup_artifact(anb::hash_combine(args.seed, 0x9B0), path, report);
  report_artifact(artifact, report);

  const trace::Clock t0 = trace::now_ns();
  AccelNASBench direct = AccelNASBench::open(path, anb::io::MapMode::kMap);
  direct.set_cache_enabled(false);
  const Schedule schedule = make_schedule(args.seed, args.seconds);

  anb::serve::ServeOptions options;
  // Relative, so the socket stays inside the checkout and its path short.
  options.socket_path = args.out_dir + "/anbd-" + std::to_string(getpid()) +
                        ".sock";
  anb::serve::Server server(artifact.bench, options);
  server.start();
  const std::size_t n_conns = std::clamp<std::size_t>(
      anb::default_num_threads() - 1, 1, 3);
  Replies replies(schedule.requests());
  Connections conns(server.socket_path(), n_conns);
  conns.start(replies);
  Generator gen(conns, replies, direct);
  const double server_threads =
      static_cast<double>(task_count()) - static_cast<double>(1 + n_conns);
  report.set("setup_s", artifact.setup_s + seconds_since(t0));

  // In a traced run the odd rounds and the ladder are traced; the even
  // rounds give the untraced latency that tracing overhead is taken from.
  std::vector<double> p25_us, p50_us, p50_traced_us, p99_us, completed,
      server_cpu_us;
  std::size_t samples = 0;
  // Every round starts from an empty query cache, so the cache's growth
  // under the fresh architectures of earlier rounds does not slow later
  // rounds. No request is in flight between steps.
  anb::QueryCacheStats cache;
  auto take_cache_stats = [&] {
    const anb::QueryCacheStats now = artifact.bench.cache_stats();
    cache.hits += now.hits;
    cache.misses += now.misses;
  };
  for (int r = 0; r < kRounds; ++r) {
    take_cache_stats();
    artifact.bench.clear_cache();
    trace::set_enabled(args.trace && r % 2 == 1);
    const StepResult reference = gen.run_step(schedule.reference[r], report);
    if (trace::enabled()) {
      p50_traced_us.push_back(reference.latency_us.median);
    } else {
      p25_us.push_back(reference.p25_us);
      p50_us.push_back(reference.latency_us.median);
    }
    p99_us.push_back(reference.p99_us);
    samples += reference.latency_us.count;
    const StepResult burst = gen.run_step(schedule.saturation[r], report);
    completed.push_back(burst.completed_per_s);
    server_cpu_us.push_back(burst.server_cpu_us);
  }
  take_cache_stats();
  artifact.bench.clear_cache();
  trace::set_enabled(args.trace);
  std::vector<StepResult> ladder;
  for (const Step& step : schedule.ladder) {
    ladder.push_back(gen.run_step(step, report));
    if (!ladder.back().passed) break;
  }
  trace::set_enabled(false);
  take_cache_stats();

  conns.stop();
  server.stop();
  const anb::serve::ServeReport served = server.report();
  report.op(replies.unexpected.load() == 0, "reply with an unknown request id");
  report.op(replies.disconnects.load() == 0, "connection lost");

  double max_qps = 0.0;
  for (const StepResult& r : ladder) {
    if (!r.passed) break;
    max_qps = r.rate;
  }
  // The bounded latency is the p25, not the p50: when the host steals vCPU
  // time, every thread hand-off of a request can wait for it, which moved
  // the p50 at 2000 req/s between 0.37 and 0.81 ms across identical runs
  // while the p25 stayed within +-10%.
  // At the reference rate a bucket almost never fills to batch_max, so a
  // request waits out the whole coalesce window: most of the p25 is that
  // timer, and op_ms sees server work only once it is a sizeable share of
  // it. cpu_ms, the server's CPU time per request at saturation, has no
  // timer in it and moves with every cost the server pays per request.
  const double window_us = options.scheduler.coalesce_wait_us;
  report.set("op_ms", median(p25_us) * 1e-3);
  report.set("cpu_ms", median(server_cpu_us) * 1e-3);
  report.set("serve.max_qps", max_qps);
  std::printf("serve_p25_us %.1f us at %.0f req/s (median of %zu rounds); "
              "the %.0f us coalesce window is %.0f%% of it\n",
              median(p25_us), kLadder.front(), p25_us.size(), window_us,
              100.0 * ratio(window_us, median(p25_us)));
  std::printf("serve_p50_us %.1f us at %.0f req/s (median of %zu rounds)\n",
              median(p50_us), kLadder.front(), p50_us.size());
  std::printf("serve_p99_us %.1f us at %.0f req/s (median of %zu rounds, "
              "n=%zu)\n",
              median(p99_us), kLadder.front(), p99_us.size(), samples);
  std::printf("serve_max_qps %.0f req/s (p99 limit %.0f us)\n", max_qps,
              kP99LimitUs);
  std::printf("serve saturation %.0f req/s, server cpu %.3f us/req "
              "(medians of %zu bursts)\n",
              median(completed), median(server_cpu_us), completed.size());

  const double batches = static_cast<double>(served.batches);
  const double batch_rows_mean =
      ratio(static_cast<double>(served.rows), batches);
  double lag_p99_us = 0.0;
  for (const StepResult& r : ladder) {
    lag_p99_us = std::max(lag_p99_us, r.lag_p99_us);
  }
  report.set("serve.batches", batches);
  report.set("serve.batch_rows_mean", batch_rows_mean);
  report.set("serve.retry_later", static_cast<double>(served.retry_later));
  report.set("serve.errors", static_cast<double>(served.responses_error));
  report.set("serve.threads", server_threads);
  report.set("anb.query.cache_hit_ratio",
             ratio(static_cast<double>(cache.hits),
                   static_cast<double>(cache.hits + cache.misses)));
  report.set("anb.query.cache_lookups",
             static_cast<double>(cache.hits + cache.misses));
  report.set("gen.lag_p99_us", lag_p99_us);
  report.set("serve.direct_query_us",
             direct_query_us(direct, schedule.reference.front(),
                             std::max<std::size_t>(
                                 1, static_cast<std::size_t>(
                                        std::lround(batch_rows_mean)))));
  if (args.trace) {
    report.set("trace.overhead_frac",
               ratio(median(p50_traced_us) - median(p50_us), median(p50_us)));
    report.set("trace.coverage_frac",
               ratio(trace::total_s("serve.send"),
                     trace::total_s("serve.step")));
  }
  std::printf("serve.threads %.0f (connections=%zu)\n", server_threads,
              n_conns);
}

}  // namespace perfbench
