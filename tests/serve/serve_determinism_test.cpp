// The headline contract of the serving layer: the same request multiset
// produces bit-identical response values regardless of client count,
// arrival interleaving, micro-batch cut points, scheduler thread count,
// or whether coalescing is enabled at all (batch_max = 1). Each scenario
// replays a seeded request multiset from N concurrent in-process clients
// against every server configuration and EXPECT_EQs the doubles (exact
// bit comparison) against a serial cache-less oracle computed without
// any server.

#include "anb/serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "anb/serve/client.hpp"
#include "anb/util/rng.hpp"
#include "serve_test_util.hpp"

namespace anb {
namespace {

using namespace anb::serve;
using namespace anb::serve_test;

/// Shuts `socket` down if still alive after `limit`, so a read waiting
/// for a reply that never comes throws Disconnected instead of blocking
/// the suite until ctest's timeout.
class ReadDeadline {
 public:
  ReadDeadline(net::Socket& socket, std::chrono::seconds limit)
      : watchdog_([&socket, limit, done = done_.get_future()] {
          if (done.wait_for(limit) == std::future_status::timeout) {
            socket.shutdown_both();
          }
        }) {}
  ~ReadDeadline() {
    done_.set_value();
    watchdog_.join();
  }
  ReadDeadline(const ReadDeadline&) = delete;
  ReadDeadline& operator=(const ReadDeadline&) = delete;

 private:
  std::promise<void> done_;  // declared first: the watchdog reads it
  std::thread watchdog_;
};

/// One client request: a target bucket and one or more architectures
/// (size 1 = scalar frame, larger = batch frame).
struct Op {
  bool accuracy = true;
  MetricKey key;
  std::vector<std::uint64_t> archs;
};

/// Seeded request script for one client: a shuffled mix of scalar and
/// batch queries over a shared arch pool, different per client.
std::vector<Op> make_script(std::uint64_t seed,
                            const std::vector<std::uint64_t>& pool) {
  Rng rng(seed);
  std::vector<Op> ops;
  for (int i = 0; i < 30; ++i) {
    Op op;
    const double which = rng.uniform();
    if (which < 0.5) {
      op.accuracy = true;
    } else {
      op.accuracy = false;
      op.key = which < 0.75 ? kA100Thr : kZcuLat;
    }
    const std::size_t rows =
        rng.uniform() < 0.2 ? 1 + rng.uniform_index(5) : 1;
    for (std::size_t r = 0; r < rows; ++r) {
      op.archs.push_back(pool[rng.uniform_index(pool.size())]);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Serial oracle: scalar queries on a cache-less bench, no server at all.
std::vector<std::vector<double>> oracle(const AccelNASBench& bench,
                                        const std::vector<Op>& script,
                                        const SearchSpace& sp) {
  std::vector<std::vector<double>> out;
  for (const Op& op : script) {
    std::vector<double> values;
    for (std::uint64_t index : op.archs) {
      const Arch arch = sp.from_index(index);
      values.push_back(op.accuracy ? bench.query_accuracy(arch)
                                   : bench.query_perf(arch, op.key));
    }
    out.push_back(std::move(values));
  }
  return out;
}

/// Replay `script` through a client connection; returns per-op values.
std::vector<std::vector<double>> replay(const std::string& socket_path,
                                        std::uint64_t client_id,
                                        const std::vector<Op>& script,
                                        SpaceId space) {
  Client client(socket_path);
  client.hello(client_id, 0);
  std::vector<std::vector<double>> out;
  for (const Op& op : script) {
    if (op.archs.size() == 1) {
      const double v =
          op.accuracy ? client.query_accuracy(op.archs[0], space)
                      : client.query_perf(op.key, op.archs[0], space);
      out.push_back({v});
    } else {
      out.push_back(op.accuracy
                        ? client.query_accuracy_batch(op.archs, space)
                        : client.query_perf_batch(op.key, op.archs, space));
    }
  }
  return out;
}

class ServeDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { init(MnasSpace::instance()); }

  /// Space-generic fixture body: the FBNet suite below re-enters it with
  /// the other registered space.
  void init(const SearchSpace& sp) {
    register_builtin_spaces();
    space_ = sp.id();
    bench_ = make_bench(11, sp);
    bench_.set_cache_enabled(false);  // determinism must not lean on it
    pool_ = distinct_indices(16, 21, sp);
    for (std::uint64_t c = 0; c < kClients; ++c) {
      scripts_.push_back(make_script(100 + c, pool_));
      expected_.push_back(oracle(bench_, scripts_.back(), sp));
    }
  }

  /// Run every client's script concurrently against one configuration and
  /// assert bit-identical results; returns the server report.
  ServeReport run_config(unsigned worker_threads, std::uint32_t batch_max) {
    ServeOptions options;
    options.scheduler.worker_threads = worker_threads;
    options.scheduler.batch_max = batch_max;
    Server server(bench_, options);
    server.start();

    std::vector<std::vector<std::vector<double>>> got(kClients);
    std::vector<std::thread> threads;
    for (std::uint64_t c = 0; c < kClients; ++c) {
      threads.emplace_back([this, &server, &got, c] {
        got[c] = replay(server.socket_path(), c, scripts_[c], space_);
      });
    }
    for (auto& t : threads) t.join();

    const std::string label =
        "workers=" + std::to_string(worker_threads) +
        " batch_max=" + std::to_string(batch_max);
    for (std::uint64_t c = 0; c < kClients; ++c) {
      EXPECT_EQ(got[c].size(), expected_[c].size()) << label;
      const std::size_t n = std::min(got[c].size(), expected_[c].size());
      for (std::size_t i = 0; i < n; ++i) {
        // EXPECT_EQ on double is exact: same bits or failure.
        EXPECT_EQ(got[c][i], expected_[c][i])
            << label << " client " << c << " op " << i;
      }
    }
    server.stop();
    return server.report();
  }

  static constexpr std::uint64_t kClients = 6;
  SpaceId space_ = SpaceId::kMnasNet;
  AccelNASBench bench_;
  std::vector<std::uint64_t> pool_;
  std::vector<std::vector<Op>> scripts_;
  std::vector<std::vector<std::vector<double>>> expected_;
};

TEST_F(ServeDeterminismTest, BitIdenticalAcrossThreadCountsAndCoalescing) {
  // Coalescing on, at 1 / 2 / hardware scheduler threads, and with a tiny
  // batch_max (many cut points) vs the default (few): every combination
  // must agree with the serial oracle bit-for-bit, hence with each other.
  run_config(/*worker_threads=*/1, /*batch_max=*/64);
  run_config(/*worker_threads=*/2, /*batch_max=*/64);
  run_config(/*worker_threads=*/0, /*batch_max=*/64);
  run_config(/*worker_threads=*/2, /*batch_max=*/3);
  // Coalescing off: every row flushed on its own, same values.
  run_config(/*worker_threads=*/1, /*batch_max=*/1);
}

TEST_F(ServeDeterminismTest, ReportIsExactAndConserved) {
  const ServeReport report = run_config(2, 8);

  // Every client announced itself, so no anonymous row.
  EXPECT_EQ(report.clients.count(kAnonymousClient), 0u);
  ASSERT_EQ(report.clients.size(), kClients);

  std::uint64_t want_rows = 0;
  for (std::uint64_t c = 0; c < kClients; ++c) {
    const ClientReport& row = report.clients.at(c);
    // hello + one request per op, all answered ok.
    EXPECT_EQ(row.received, scripts_[c].size() + 1) << "client " << c;
    EXPECT_EQ(row.ok, row.received);
    EXPECT_EQ(row.error, 0u);
    EXPECT_EQ(row.retry_later, 0u);
    EXPECT_EQ(row.dropped, 0u);
    EXPECT_EQ(row.received, row.ok + row.error + row.retry_later + row.dropped);
    for (const Op& op : scripts_[c]) want_rows += op.archs.size();
  }
  EXPECT_EQ(report.connections_accepted, kClients);
  // Every queued row was flushed exactly once, whatever the cut points.
  EXPECT_EQ(report.rows, want_rows);
  EXPECT_GE(report.batches, 1u);
  std::uint64_t bucket_total = 0;
  for (const auto& [name, rows] : report.bucket_rows) bucket_total += rows;
  EXPECT_EQ(bucket_total, want_rows);
}

/// The acceptance contract holds per space: an FBNet-backed server must
/// be just as bit-identical across thread counts and coalescing settings
/// as the MnasNet one (same scripts, FBNet index pool and genotypes).
class FbnetServeDeterminismTest : public ServeDeterminismTest {
 protected:
  void SetUp() override { init(FbnetSpace::instance()); }
};

TEST_F(FbnetServeDeterminismTest, BitIdenticalAcrossThreadCountsAndCoalescing) {
  run_config(/*worker_threads=*/1, /*batch_max=*/64);
  run_config(/*worker_threads=*/2, /*batch_max=*/64);
  run_config(/*worker_threads=*/0, /*batch_max=*/64);
  run_config(/*worker_threads=*/2, /*batch_max=*/3);
  run_config(/*worker_threads=*/1, /*batch_max=*/1);
}

TEST_F(ServeDeterminismTest, BackpressureIsDeterministicUnderPause) {
  // With a tiny queue and flushing paused, admissions are exact: the
  // first `queue_capacity` rows are admitted, every later submit gets
  // kRetryLater, and after resume the admitted rows all complete with
  // oracle values.
  ServeOptions options;
  options.scheduler.queue_capacity = 4;
  options.scheduler.worker_threads = 2;
  Server server(bench_, options);
  server.start();
  server.scheduler_for_test().pause();

  Client client(server.socket_path());
  client.hello(77, 0);
  const AccelNASBench& oracle_bench = bench_;

  // While paused, pipeline 10 scalar requests through the raw frame API
  // (the blocking client would deadlock waiting for held replies). The
  // six kRetryLater replies arrive while still paused; reading them
  // before resume() proves every frame was admitted or refused before
  // any row could drain. The admitted values arrive only after resume.
  // Replies are matched to requests by echoed id.
  std::map<std::uint64_t, std::uint64_t> arch_by_id;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::uint64_t id = client.next_request_id();
    arch_by_id[id] = pool_[i];
    const auto frame = encode_query_accuracy(id, pool_[i]);
    ASSERT_TRUE(client.socket().send_all(frame));
  }

  std::size_t ok = 0;
  std::size_t retry = 0;
  auto read_reply = [&] {
    const Reply reply = client.recv_reply();
    ASSERT_TRUE(arch_by_id.count(reply.request_id));
    if (reply.type == MsgType::kRetryLater) {
      ++retry;
    } else {
      ASSERT_EQ(reply.type, MsgType::kValue);
      EXPECT_EQ(reply.value,
                oracle_bench.query_accuracy(
                    MnasSpace::instance().from_index(arch_by_id.at(reply.request_id))));
      ++ok;
    }
  };
  {
    // A wrong admission count leaves a read waiting; fail it fast.
    const ReadDeadline deadline(client.socket(), std::chrono::seconds(30));
    for (std::size_t i = 0; i < 6; ++i) read_reply();
    server.scheduler_for_test().resume();
    for (std::size_t i = 0; i < 4; ++i) read_reply();
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(retry, 6u);

  server.stop();
  const ServeReport report = server.report();
  const ClientReport& row = report.clients.at(77);
  EXPECT_EQ(row.retry_later, 6u);
  EXPECT_EQ(row.ok, 5u);  // hello + 4 admitted queries
}

}  // namespace
}  // namespace anb
