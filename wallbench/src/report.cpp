#include "report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace wallbench {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics[name] = Metric{value, unit, samples};
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += format(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    out += format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %zu}",
                  name.c_str(), value, metric.unit.c_str(), metric.samples);
  }
  out += "}}";
  return out;
}

void Report::print() const {
  std::printf("# wallbench workload=%s trace=%d\n", workload.c_str(),
              traced ? 1 : 0);
  for (const auto& line : lines) std::printf("# %s\n", line.c_str());
  for (const auto& error : errors) std::printf("# CHECK FAILED: %s\n", error.c_str());
  std::printf("# %-34s %16s %-10s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, metric] : metrics) {
    std::printf("# %-34s %16.6g %-10s %zu\n", name.c_str(), metric.value,
                metric.unit.c_str(), metric.samples);
  }
  std::printf("%s\n", json().c_str());
  std::fflush(stdout);
}

}  // namespace wallbench
