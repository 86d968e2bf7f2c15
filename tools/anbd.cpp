// anbd — the Accel-NASBench daemon.
//
//   anbd --bench FILE [--socket PATH] [--batch-max N] [--queue N]
//        [--workers N]
//
// Opens the benchmark artifact once (.anbb artifacts are memory-mapped,
// so the surrogate tables are shared, page-cache-resident state) and
// serves accuracy/performance queries to any number of local searcher
// processes over a unix-domain socket — the paper's "benchmark as a
// sustainable service" story: one warm process instead of N copies of
// the forests.
//
// The daemon prints the socket path on stdout (so wrappers can discover
// a --socket-less default) and serves until SIGTERM, SIGINT or a client's
// kShutdown frame (`anbench query-remote --socket PATH --shutdown`). It
// then answers every admitted request, prints a summary on stderr,
// removes its socket file and exits 0.
//
// Scheduler flags: a free worker flushes pending rows at once, up to
// --batch-max per batch (default 64), so rows batch up only while every
// worker (--workers, default one per core) is busy; --batch-max 1 serves
// every row on its own. --queue bounds the rows pending before requests
// get kRetryLater.
// Numbers are parsed strictly; a bad value is a usage error (exit 2).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "anb/anb/benchmark.hpp"
#include "anb/serve/server.hpp"
#include "parse_count.hpp"

namespace {

/// More flush workers than this is a typo, not a deployment.
constexpr unsigned long kMaxWorkers = 1024;
constexpr unsigned long kU32Max = std::numeric_limits<std::uint32_t>::max();

anb::serve::Server* g_server = nullptr;

void on_stop_signal(int) { g_server->stop_async(); }

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: anbd --bench FILE [--socket PATH] [--batch-max N]\n"
               "            [--queue N] [--workers N]\n"
               "  --batch-max N  most rows per batched query (>= 1, "
               "default 64)\n"
               "  --queue N      rows pending before kRetryLater (>= 1, "
               "default 4096)\n"
               "  --workers N    flush workers (0 = one per core, at most "
               "%lu)\n",
               kMaxWorkers);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench_path;
  anb::serve::ServeOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--bench") {
      bench_path = value();
    } else if (arg == "--socket") {
      options.socket_path = value();
    } else if (arg == "--batch-max") {
      options.scheduler.batch_max = static_cast<std::uint32_t>(
          anb::cli::parse_count(arg, value(), 1, kU32Max, usage));
    } else if (arg == "--queue") {
      options.scheduler.queue_capacity = anb::cli::parse_count(
          arg, value(), 1, std::numeric_limits<std::size_t>::max(), usage);
    } else if (arg == "--workers") {
      options.scheduler.worker_threads = static_cast<unsigned>(
          anb::cli::parse_count(arg, value(), 0, kMaxWorkers, usage));
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (bench_path.empty()) usage("--bench is required");

  try {
    const anb::AccelNASBench bench = anb::AccelNASBench::open(bench_path);
    anb::serve::Server server(bench, options);
    server.start();
    g_server = &server;
    std::signal(SIGTERM, on_stop_signal);
    std::signal(SIGINT, on_stop_signal);
    std::printf("%s\n", server.socket_path().c_str());
    std::fflush(stdout);  // wrappers wait for the path line
    server.wait();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);

    const anb::serve::ServeReport report = server.report();
    std::fprintf(stderr,
                 "anbd: served %llu requests (%llu ok, %llu error, "
                 "%llu retry) over %llu connections, %llu batches / %llu "
                 "rows\n",
                 static_cast<unsigned long long>(report.requests_received),
                 static_cast<unsigned long long>(report.responses_ok),
                 static_cast<unsigned long long>(report.responses_error),
                 static_cast<unsigned long long>(report.retry_later),
                 static_cast<unsigned long long>(report.connections_accepted),
                 static_cast<unsigned long long>(report.batches),
                 static_cast<unsigned long long>(report.rows));
    return 0;
  } catch (const anb::Error& e) {
    std::fprintf(stderr, "anbd: error: %s\n", e.what());
    return 1;
  }
}
