// A run's results: named metrics with unit and sample count, the
// operation counts, the correctness verdict, and human-readable lines.
// The last line printed is one JSON object holding every metric; the
// wrapper script picks the end-to-end or per-layer set from it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace wallbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Report {
  std::string workload;
  bool traced = false;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> lines;  // human-readable detail, printed first
  std::vector<std::string> errors;  // correctness findings

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  void note(std::string line) { lines.push_back(std::move(line)); }
  void fail_check(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }

  /// Prints the detail lines, a metric table, then the JSON line.
  void print() const;
  std::string json() const;
};

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace wallbench
