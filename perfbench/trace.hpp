#pragma once

#include <cstdint>
#include <string>
#include <vector>

// The benchmark's own span recorder. In a traced run the benchmark wraps
// each call it makes into a layer's public function in a Span; spans are
// kept in memory and written out as JSON lines when the run ends. The
// library's own obs spans stay off, so the traced run measures the same
// program as the untraced one plus this recorder.
//
// While recording is off, constructing a Span reads one flag and records
// nothing.

namespace perfbench::trace {

using Clock = std::int64_t;  ///< steady-clock nanoseconds

Clock now_ns();

struct SpanRecord {
  const char* name = "";   ///< a string literal
  Clock start_ns = 0;
  Clock end_ns = 0;
  std::uint64_t id = 0;      ///< unique within the process, from 1
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t run = 0;     ///< the operation the span belongs to
  std::uint64_t thread = 0;  ///< recorder-assigned thread number

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

void set_enabled(bool enabled);
bool enabled();

/// Run id stamped on spans opened from now on (one per build, search pass
/// or serve rate step).
void set_run(std::uint64_t run);

/// Marks "use the innermost open span on this thread as the parent".
inline constexpr std::uint64_t kCurrentParent = ~std::uint64_t{0};

class Span {
 public:
  /// `parent` names the span that caused this one when it was opened on
  /// another thread (a parallel_for worker, a receiver thread).
  explicit Span(const char* name, std::uint64_t parent = kCurrentParent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id, 0 while recording is off.
  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
  std::uint64_t saved_current_ = 0;
};

/// Every span closed so far, in closing order.
std::vector<SpanRecord> spans();

/// Spans named `name` closed so far.
std::vector<SpanRecord> spans_named(const std::string& name);

/// Summed duration of the spans named `name`, in seconds.
double total_s(const std::string& name);

/// Summed self time of the spans named `name`: each span's duration minus
/// the part of it that its child spans cover.
double self_s(const std::string& name);

/// Write every span as one JSON object per line (see README.md).
void write_jsonl(const std::string& path);

}  // namespace perfbench::trace
