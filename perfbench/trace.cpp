#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_run{0};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint64_t> g_next_thread{1};

std::mutex g_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_mu

thread_local std::uint64_t t_current = 0;
thread_local std::uint64_t t_thread = 0;

std::uint64_t thread_number() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

Clock now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_enabled(bool enabled) { g_enabled.store(enabled); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_run(std::uint64_t run) { g_run.store(run); }

Span::Span(const char* name, std::uint64_t parent) {
  if (!enabled()) return;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1);
  record_.parent = parent == kCurrentParent ? t_current : parent;
  record_.run = g_run.load(std::memory_order_relaxed);
  record_.thread = thread_number();
  saved_current_ = t_current;
  t_current = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (record_.id == 0) return;
  record_.end_ns = now_ns();
  t_current = saved_current_;
  const std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(record_);
}

std::vector<SpanRecord> spans() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::vector<SpanRecord> spans_named(const std::string& name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans()) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

double total_s(const std::string& name) {
  double total = 0.0;
  for (const SpanRecord& s : spans_named(name)) total += s.seconds();
  return total;
}

double self_s(const std::string& name) {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, std::vector<std::pair<Clock, Clock>>>
      children;
  for (const SpanRecord& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  double self = 0.0;
  for (const SpanRecord& s : all) {
    if (name != s.name) continue;
    // Children may run concurrently on several threads, so the covered
    // part is the union of their intervals, clipped to the parent.
    auto kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    Clock covered = 0;
    Clock reach = s.start_ns;
    for (const auto& [begin, end] : kids) {
      const Clock lo = std::max(begin, reach);
      const Clock hi = std::min(end, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, s.end_ns));
    }
    self += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

void write_jsonl(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot write " + path);
  for (const SpanRecord& s : spans()) {
    out << "{\"run\":" << s.run << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  if (!out.flush()) throw std::runtime_error("trace: short write to " + path);
}

}  // namespace perfbench::trace
