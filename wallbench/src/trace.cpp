#include "trace.h"

#include <algorithm>
#include <stdexcept>

namespace wallbench {

namespace {
thread_local SpanLog* tls_log = nullptr;
}  // namespace

SpanLog* active_log() { return tls_log; }
void set_active_log(SpanLog* log) { tls_log = log; }

SpanLog::SpanLog(std::uint32_t thread_index)
    : id_base_(static_cast<std::uint64_t>(thread_index + 1) << 40) {
  spans_.reserve(1 << 16);
}

std::uint64_t SpanLog::next_id() { return id_base_ | ++sequence_; }

std::uint64_t SpanLog::open(const char* name, std::uint64_t request,
                            std::int64_t start_ns) {
  Span span;
  span.id = next_id();
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  span.request = request;
  if (!open_.empty()) {
    const Span& parent = spans_[open_.back()];
    span.parent = parent.id;
    if (request == 0) span.request = parent.request;
  }
  open_.push_back(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void SpanLog::close(std::int64_t end_ns) {
  if (open_.empty()) throw std::logic_error("SpanLog::close: no open span");
  spans_[open_.back()].end_ns = end_ns;
  open_.pop_back();
}

void SpanLog::add(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  Span span;
  span.id = next_id();
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  if (!open_.empty()) {
    const Span& parent = spans_[open_.back()];
    span.parent = parent.id;
    span.request = parent.request;
  }
  spans_.push_back(span);
}

std::unordered_map<std::uint64_t, std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& span : spans) by_id.emplace(span.id, &span);

  // Children intervals per parent, clipped to the parent.
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      covered;
  for (const Span& span : spans) {
    if (span.parent == 0) continue;
    const auto it = by_id.find(span.parent);
    if (it == by_id.end()) continue;
    const Span& parent = *it->second;
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) covered[span.parent].emplace_back(lo, hi);
  }

  std::unordered_map<std::uint64_t, std::int64_t> self;
  self.reserve(spans.size());
  for (const Span& span : spans) {
    std::int64_t child_ns = 0;
    const auto it = covered.find(span.id);
    if (it != covered.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t run_lo = intervals.front().first;
      std::int64_t run_hi = intervals.front().second;
      for (const auto& [lo, hi] : intervals) {
        if (lo > run_hi) {
          child_ns += run_hi - run_lo;
          run_lo = lo;
        }
        run_hi = std::max(run_hi, hi);
      }
      child_ns += run_hi - run_lo;
    }
    self[span.id] = span.duration_ns() - child_ns;
  }
  return self;
}

}  // namespace wallbench
