// In-memory causal spans recorded by the benchmark around its calls into
// each library layer. Every span carries an id, its parent's id and the
// id of the request (query or vote round) it belongs to; spans are kept
// in per-thread logs and analysed after the run. Nothing here touches
// the library's own obs tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace wallbench {

/// Monotonic wall time in nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 for a root span
  std::uint64_t request = 0;  // shared by every span of one request
  const char* name = "";      // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// One thread's span buffer and open-span stack. Owned and used by a
/// single thread; read by the analysis only after that thread joined.
class SpanLog {
 public:
  /// `thread_index` keeps span ids unique across logs.
  explicit SpanLog(std::uint32_t thread_index);

  /// Opens a span as a child of the innermost open one. `request` 0
  /// inherits the parent's request id.
  std::uint64_t open(const char* name, std::uint64_t request,
                     std::int64_t start_ns);
  /// Closes the innermost open span.
  void close(std::int64_t end_ns);
  /// Records an already finished span as a child of the innermost open
  /// span (used for stage timings reported after the fact).
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_id();

  std::uint64_t id_base_;
  std::uint64_t sequence_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // indices into spans_
};

/// The calling thread's span log; null while tracing is off, which turns
/// every ScopedSpan into a no-op.
SpanLog* active_log();
void set_active_log(SpanLog* log);

/// RAII span on the calling thread's active log.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0)
      : log_(active_log()) {
    if (log_ != nullptr) log_->open(name, request, now_ns());
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// and child time outside the parent's interval is ignored).
std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans);

}  // namespace wallbench
