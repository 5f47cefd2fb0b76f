#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/// 0-based index of the nearest-rank p-th percentile among n samples.
size_t rankIndex(size_t n, double p) {
  auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) / 100.0));
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[rankIndex(samples.size(), p)];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

Tail tailPercentile(const std::vector<double>& samples) {
  constexpr size_t kMinBeyond = 10;
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    size_t index = rankIndex(n, p);
    size_t beyond = n - 1 - index;
    if (beyond >= kMinBeyond || p == 50.0) {
      tail.percentile = p;
      tail.value = sorted[index];
      tail.beyond = beyond;
      tail.enough = beyond >= kMinBeyond;
      return tail;
    }
  }
  return tail;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double logSum = 0;
  for (double v : values) {
    if (!(v > 0)) throw std::runtime_error("geomean of a non-positive value");
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

double peakRssMb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0;
    fields >> kb;
    return kb / 1024.0;
  }
  return 0;
}

std::string describe(const Tail& tail) {
  std::ostringstream out;
  out << "p" << tail.percentile << " of " << tail.samples << " samples ("
      << tail.beyond << " beyond" << (tail.enough ? "" : ", TOO FEW") << ")";
  return out.str();
}

}  // namespace perfbench
