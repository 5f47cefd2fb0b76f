// Sample statistics the benchmark reports: medians, the tail percentile
// rule, geometric means and process memory.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of unsorted samples; 0 when
/// empty.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// The tail the benchmark reports: the highest percentile of the ladder
/// 99.9 / 99 / 95 / 90 / 75 / 50 that leaves at least ten samples
/// strictly above its rank. With too few samples for any rung the
/// median is reported and `enough` is false.
struct Tail {
  double percentile = 0;  ///< the chosen rung, e.g. 90
  double value = 0;
  size_t samples = 0;     ///< total samples
  size_t beyond = 0;      ///< samples ranked above the chosen one
  bool enough = false;
};
Tail tailPercentile(const std::vector<double>& samples);

/// Geometric mean of positive values (throws on a non-positive one).
double geomean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
/// Returns 0 if /proc is unreadable.
double peakRssMb(int pid = 0);

/// "p90 of 120 samples (11 beyond)" for the run log.
std::string describe(const Tail& tail);

}  // namespace perfbench
