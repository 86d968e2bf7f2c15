// Graceful degradation under injected client misbehavior: stalled reads,
// slow writes, and server-side connection drops. Two contracts:
//
//  1. Values stay bit-exact — a fault can delay or sever a conversation,
//     never corrupt a number.
//  2. The ServeReport is exact and thread-invariant: every fault decision
//     is keyed on (client_id, incarnation, request_id), so the same armed
//     policy produces the same per-client counts at any scheduler thread
//     count or interleaving (mirroring the CollectionReport invariance
//     contract of the robust-collection layer).
//
// Plus isolation: a stalled client occupies only its own connection
// threads — other clients' buckets keep flushing (asserted by completion,
// not wall-clock, so the test cannot flake on timing).

#include "anb/serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "anb/serve/client.hpp"
#include "anb/serve/protocol.hpp"
#include "anb/util/fault.hpp"
#include "serve_test_util.hpp"

namespace anb {
namespace {

using namespace anb::serve;
using namespace anb::serve_test;

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_ = make_bench(51);
    bench_.set_cache_enabled(false);
    pool_ = distinct_indices(12, 61);
    for (std::uint64_t index : pool_) {
      expected_.push_back(
          bench_.query_accuracy(MnasSpace::instance().from_index(index)));
    }
  }

  void TearDown() override { fault::disarm_all(); }

  /// Replay each client's fixed request sequence (every pool arch once,
  /// accuracy), reconnecting with a bumped incarnation on drop faults.
  /// Returns the report after a graceful stop.
  ServeReport run_clients(unsigned worker_threads, std::size_t clients) {
    ServeOptions options;
    options.scheduler.worker_threads = worker_threads;
    Server server(bench_, options);
    server.start();

    std::vector<std::thread> threads;
    for (std::uint64_t c = 0; c < clients; ++c) {
      threads.emplace_back([this, &server, c] {
        // A drop fault can sever the connection on ANY request — including
        // the kHello itself (it keys under its announced identity) — so
        // connect + hello sits inside the same retry loop as the queries.
        // Each reconnect bumps the incarnation, giving retried requests
        // fresh fault decisions; the per-client trajectory is a pure
        // function of the armed policy, hence thread-invariant.
        std::uint32_t incarnation = 0;
        std::unique_ptr<Client> client;
        std::size_t next_op = 0;
        while (next_op < pool_.size()) {
          try {
            if (!client) {
              client = std::make_unique<Client>(server.socket_path());
              client->hello(c, incarnation);
            }
            const double got = client->query_accuracy(pool_[next_op]);
            EXPECT_EQ(got, expected_[next_op])
                << "client " << c << " op " << next_op;
            ++next_op;
          } catch (const Disconnected&) {
            client.reset();
            ++incarnation;
            ASSERT_LT(incarnation, 64u) << "drop fault never cleared";
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    server.stop();
    return server.report();
  }

  AccelNASBench bench_;
  std::vector<std::uint64_t> pool_;
  std::vector<double> expected_;
};

TEST_F(ServeFaultTest, StalledReadsKeepValuesExactAndReportInvariant) {
  fault::ScopedFault stall(kServeReadStallSite,
                           fault::Policy::bernoulli(0.4, 7));
  const ServeReport one = run_clients(/*worker_threads=*/1, /*clients=*/4);
  const ServeReport many = run_clients(/*worker_threads=*/0, /*clients=*/4);

  // Per-client rows are exact and identical across thread counts; batch
  // *cut points* may differ (stalls shift arrival timing), but total rows
  // cannot.
  EXPECT_EQ(one.clients, many.clients);
  EXPECT_EQ(one.rows, many.rows);
  EXPECT_EQ(one.bucket_rows, many.bucket_rows);

  std::uint64_t stalls = 0;
  for (const auto& [id, row] : one.clients) {
    EXPECT_EQ(row.received, row.ok + row.error + row.retry_later + row.dropped);
    EXPECT_EQ(row.dropped, 0u);
    EXPECT_EQ(row.error, 0u);
    stalls += row.stall_faults;
  }
  EXPECT_GT(stalls, 0u) << "policy armed but no stall ever fired";
}

TEST_F(ServeFaultTest, DropFaultsForceReconnectAndStayExact) {
  fault::ScopedFault drop(kServeDropSite, fault::Policy::bernoulli(0.2, 11));
  const ServeReport one = run_clients(/*worker_threads=*/1, /*clients=*/3);
  const ServeReport many = run_clients(/*worker_threads=*/0, /*clients=*/3);

  EXPECT_EQ(one.clients, many.clients);
  EXPECT_EQ(one.connections_accepted, many.connections_accepted);

  std::uint64_t dropped = 0;
  for (const auto& [id, row] : one.clients) {
    EXPECT_EQ(row.received, row.ok + row.error + row.retry_later + row.dropped);
    dropped += row.dropped;
    // Every op eventually succeeded: ok covers hellos plus one success
    // per op; drops added extra received.
    EXPECT_GE(row.ok, pool_.size() + 1);
  }
  EXPECT_GT(dropped, 0u) << "policy armed but no drop ever fired";
  // Each drop severed a connection, so the reconnects are visible.
  EXPECT_GT(one.connections_accepted, 3u);
}

TEST_F(ServeFaultTest, SlowWritesKeepValuesExactAndReportInvariant) {
  fault::ScopedFault slow(kServeWriteSlowSite,
                          fault::Policy::bernoulli(0.3, 13));
  const ServeReport one = run_clients(/*worker_threads=*/1, /*clients=*/3);
  const ServeReport many = run_clients(/*worker_threads=*/0, /*clients=*/3);

  EXPECT_EQ(one.clients, many.clients);
  std::uint64_t slows = 0;
  for (const auto& [id, row] : one.clients) slows += row.slow_faults;
  EXPECT_GT(slows, 0u) << "policy armed but no slow write ever fired";
}

TEST_F(ServeFaultTest, StalledClientDoesNotBlockOtherBuckets) {
  // Client 0 stalls on every request (kAlways fires for all connections,
  // but only client 0's thread is sending here while the fast clients
  // hammer a different bucket). Arm, then have fast clients run a large
  // perf workload; completion of the fast clients while the stalled
  // client is still mid-sequence is the isolation proof — if a stalled
  // reader held the scheduler or another bucket's flush, the fast clients
  // could not finish.
  Server server(bench_, {});
  server.start();

  // The stalled client queries accuracy (its own bucket) with every
  // request stalling ~2ms; the fast clients query A100 throughput.
  fault::ScopedFault stall(kServeReadStallSite, fault::Policy::always());
  std::thread stalled([this, &server] {
    Client client(server.socket_path());
    client.hello(100, 0);
    for (std::uint64_t index : pool_) {
      EXPECT_EQ(client.query_accuracy(index),
                bench_.query_accuracy(MnasSpace::instance().from_index(index)));
    }
  });

  std::vector<std::thread> fast;
  for (std::uint64_t c = 0; c < 3; ++c) {
    fast.emplace_back([this, &server, c] {
      Client client(server.socket_path());
      client.hello(c, 0);
      for (int round = 0; round < 4; ++round) {
        const auto values = client.query_perf_batch(kA100Thr, pool_);
        for (std::size_t i = 0; i < pool_.size(); ++i) {
          EXPECT_EQ(values[i],
                    bench_.query_perf(MnasSpace::instance().from_index(pool_[i]),
                                      kA100Thr));
        }
      }
    });
  }
  for (auto& t : fast) t.join();
  stalled.join();
  server.stop();

  const ServeReport report = server.report();
  EXPECT_EQ(report.clients.at(100).ok, pool_.size() + 1);
  EXPECT_GT(report.clients.at(100).stall_faults, 0u);
}

TEST_F(ServeFaultTest, AnswersProducedAfterClientLeftAreCounted) {
  // A client sends 8 queries and leaves without reading while flushing is
  // paused, so every answer is produced after its connection closed. The
  // answers cannot be delivered, but their outcomes must land on the
  // client's row: received == ok + error + retry_later + dropped.
  Server server(bench_, {});
  server.start();
  server.scheduler_for_test().pause();
  {
    Client client(server.socket_path());
    for (std::uint64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          client.socket().send_all(encode_query_accuracy(i, pool_[i])));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.scheduler_for_test().resume();
  server.stop();

  const ServeReport report = server.report();
  const ClientReport& row = report.clients.at(kAnonymousClient);
  EXPECT_EQ(row.received, 8u);
  EXPECT_EQ(row.ok, 8u);
}

}  // namespace
}  // namespace anb
