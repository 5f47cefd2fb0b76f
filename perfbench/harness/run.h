// Shared plumbing of the benchmark harness: run options, the result the
// harness hands to perfbench/run.py, and a monotonic clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Root of the checkout (holds examples/ and the built daemon path is
  /// given separately).
  std::string root = ".";
  /// Scratch directory for the daemon socket and its artifacts.
  std::string workDir = ".";
  /// Path of the sherlockc binary (serve-zipf only).
  std::string daemon;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records one failed operation; the run then reports correct=false.
  void fail(const std::string& why) {
    ++failed;
    correct = false;
    std::cout << "FAIL: " << why << "\n";
  }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

RunResult runOffline(const RunOptions& options);
RunResult runServeZipf(const RunOptions& options);

}  // namespace perfbench
