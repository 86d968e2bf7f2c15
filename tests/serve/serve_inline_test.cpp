// Who answers a query on a running server: each poll turn submits its
// queries without a wake and starts them once, at the end of the turn
// (Scheduler::flush_or_wake). A lone query is flushed on the I/O thread
// itself; a pipelined burst larger than kInlineMaxRows goes to a worker.
// Either way every query is answered without waiting for another event
// on the socket, and every value is bit-identical to a direct query.

#include "anb/serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "anb/obs/registry.hpp"
#include "anb/serve/client.hpp"
#include "anb/serve/protocol.hpp"
#include "serve_test_util.hpp"

namespace anb {
namespace {

using namespace anb::serve;
using namespace anb::serve_test;

class ServeInlineTest : public ::testing::Test {
 protected:
  const AccelNASBench bench_ = make_bench(5);
  const std::vector<std::uint64_t> pool_ = distinct_indices(64, 13);
};

TEST_F(ServeInlineTest, LoneQueriesAreAnsweredOnTheIoThread) {
  ServeOptions options;
  options.scheduler.worker_threads = 2;
  Server server(bench_, options);
  server.start();
  obs::Counter& inline_batches = obs::counter("anb.serve.inline.batches");
  const std::uint64_t inline0 = inline_batches.value();

  // One query at a time: each turn holds one row, and the workers are
  // idle, so the turn that reads it flushes it. A turn that left it for
  // a worker it never woke would leave the read to the deadline.
  constexpr std::size_t kQueries = 20;
  Client client(server.socket_path());
  {
    const ReadDeadline deadline(client.socket(), std::chrono::seconds(30));
    client.hello(3, 0);
    for (std::size_t i = 0; i < kQueries; ++i) {
      const Arch arch = MnasSpace::instance().from_index(pool_[i]);
      if (i % 2 == 0) {
        EXPECT_EQ(client.query_accuracy(pool_[i]), bench_.query_accuracy(arch));
      } else {
        EXPECT_EQ(client.query_perf(kA100Thr, pool_[i]),
                  bench_.query_perf(arch, kA100Thr));
      }
    }
  }
  server.stop();

  const ServeReport report = server.report();
  EXPECT_EQ(report.batches, kQueries);
  EXPECT_EQ(report.rows, kQueries);
  EXPECT_EQ(report.clients.at(3).ok, kQueries + 1);  // hello + queries
  // A worker that starts after the first row is queued takes it without
  // a wake; once they wait, every lone row is flushed by the loop.
  EXPECT_GT(inline_batches.value(), inline0);
}

TEST_F(ServeInlineTest, PipelinedBurstIsAnsweredInFull) {
  ServeOptions options;
  options.scheduler.worker_threads = 2;
  options.scheduler.batch_max = 8;
  Server server(bench_, options);
  server.start();

  // One send of many frames: a turn that reads more rows than the loop
  // flushes itself wakes a worker, and rows left behind each full flush
  // wake the next. However the frames split across turns, every one is
  // answered.
  Client client(server.socket_path());
  std::map<std::uint64_t, std::uint64_t> arch_by_id;
  std::vector<char> burst;
  for (const std::uint64_t arch : pool_) {
    const std::uint64_t id = client.next_request_id();
    arch_by_id[id] = arch;
    const std::vector<char> frame = encode_query_accuracy(id, arch);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.socket().send_all(burst));
  {
    const ReadDeadline deadline(client.socket(), std::chrono::seconds(30));
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const Reply reply = client.recv_reply();
      ASSERT_EQ(reply.type, MsgType::kValue);
      const std::uint64_t arch = arch_by_id.at(reply.request_id);
      EXPECT_EQ(reply.value, bench_.query_accuracy(
                                 MnasSpace::instance().from_index(arch)));
    }
  }
  server.stop();

  const ServeReport report = server.report();
  EXPECT_EQ(report.rows, pool_.size());
  EXPECT_EQ(report.responses_ok, pool_.size());
}

}  // namespace
}  // namespace anb
