// The server under connection floods and descriptor exhaustion. One I/O
// thread serves every client, so the process's task count at 256
// connected clients is the same as at one, and every flooded client
// still gets bit-exact answers. Running out of descriptors must not kill
// the server either: accept backs off without spinning, admitted clients
// keep being answered, and the queued connection is served once
// descriptors free up.

#include "anb/serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anb/serve/client.hpp"
#include "anb/serve/protocol.hpp"
#include "serve_test_util.hpp"

namespace anb {
namespace {

using namespace anb::serve;
using namespace anb::serve_test;

std::size_t task_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

class ServeFloodTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_ = make_bench(91);
    bench_.set_cache_enabled(false);
    pool_ = distinct_indices(16, 93);
    for (std::uint64_t index : pool_) {
      expected_.push_back(
          bench_.query_accuracy(MnasSpace::instance().from_index(index)));
    }
  }

  /// Body of the descriptor-exhaustion test, run in a child process: the
  /// exit code names the first failed check (0 = all passed).
  int exhaust_descriptors() {
    Server server(bench_, {});
    server.start();
    Client admitted(server.socket_path());
    admitted.hello(1, 0);
    // One query before the limit: UBSan's vptr check caches the types a
    // query touches, and a check that misses its cache needs a pipe(2),
    // which fails, and reports, once no descriptor is left.
    if (admitted.query_accuracy(pool_[0]) != expected_[0]) return 9;

    // Allow a few descriptors above the highest open one, then take them
    // all, so the next accept fails with EMFILE.
    int highest = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      highest = std::max(highest, std::stoi(entry.path().filename()));
    }
    const rlimit limit{static_cast<rlim_t>(highest) + 9,
                       static_cast<rlim_t>(highest) + 9};
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return 10;
    std::vector<int> fillers;
    for (int fd; (fd = ::dup(STDERR_FILENO)) >= 0;) fillers.push_back(fd);
    if (fillers.empty()) return 11;

    // One free descriptor: the client takes it, so the server's accept of
    // this queued connection runs out.
    ::close(fillers.back());
    fillers.pop_back();
    Client queued(server.socket_path());

    // The server neither dies nor spins on the still-readable listener,
    // and it keeps answering the client it admitted before.
    const double cpu0 = process_cpu_s();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const double spent = process_cpu_s() - cpu0;
    if (spent > 0.15) {
      std::fprintf(stderr, "server spent %.3f s of CPU while exhausted\n",
                   spent);
      return 12;
    }
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (admitted.query_accuracy(pool_[i]) != expected_[i]) return 13;
    }

    // Free descriptors: the queued connection is accepted and served.
    for (int fd : fillers) ::close(fd);
    if (queued.query_accuracy(pool_[0]) != expected_[0]) return 14;
    server.stop();
    if (server.report().connections_accepted != 2) return 15;
    return 0;
  }

  AccelNASBench bench_;
  std::vector<std::uint64_t> pool_;
  std::vector<double> expected_;
};

TEST_F(ServeFloodTest, ManyClientsCostNoServerThreads) {
  constexpr std::size_t kClients = 256;
  ServeOptions options;
  options.scheduler.worker_threads = 2;
  Server server(bench_, options);
  server.start();

  // This thread alone drives every client: it sends one query on each
  // connection, then reads every reply, so all of them are open with a
  // request in flight at once.
  std::vector<std::unique_ptr<Client>> clients;
  clients.push_back(std::make_unique<Client>(server.socket_path()));
  clients[0]->hello(0, 0);  // accepted and served
  const std::size_t tasks_at_one = task_count();
  while (clients.size() < kClients) {
    clients.push_back(std::make_unique<Client>(server.socket_path()));
  }
  for (std::size_t round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(clients[c]->socket().send_all(encode_query_accuracy(
          c, pool_[(c + round) % pool_.size()])));
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      const Reply reply = clients[c]->recv_reply();
      ASSERT_EQ(reply.type, MsgType::kValue) << "client " << c;
      EXPECT_EQ(reply.request_id, c);
      EXPECT_EQ(reply.value, expected_[(c + round) % pool_.size()])
          << "client " << c << " round " << round;
    }
    EXPECT_EQ(task_count(), tasks_at_one) << "round " << round;
  }
  clients.clear();
  server.stop();

  const ServeReport report = server.report();
  EXPECT_EQ(report.connections_accepted, kClients);
  EXPECT_EQ(report.responses_ok, 2 * kClients + 1);
}

TEST_F(ServeFloodTest, RunningOutOfDescriptorsKeepsServing) {
  // A re-executed child lowers only its own RLIMIT_NOFILE.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(std::exit(exhaust_descriptors()), ::testing::ExitedWithCode(0),
              "");
}

}  // namespace
}  // namespace anb
