#include "harness/spans.h"

#include <algorithm>
#include <utility>

namespace perfbench {

double SpanRecorder::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(const std::string& name, uint64_t request) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.startUs = nowUs();
  spans_.push_back(std::move(span));
  int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].endUs = nowUs();
  // Spans close in LIFO order; tolerate a parent closed before a child
  // by dropping everything above it.
  while (!open_.empty()) {
    int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> selfTimesUs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans)
    if (span.parent >= 0)
      children[static_cast<size_t>(span.parent)].emplace_back(span.startUs,
                                                              span.endUs);
  std::vector<double> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].startUs;
    const double hi = spans[i].endUs;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double runStart = 0, runEnd = 0;
    bool inRun = false;
    for (auto [start, end] : kids) {
      start = std::max(start, lo);
      end = std::min(end, hi);
      if (end <= start) continue;
      if (inRun && start <= runEnd) {
        runEnd = std::max(runEnd, end);
        continue;
      }
      if (inRun) covered += runEnd - runStart;
      runStart = start;
      runEnd = end;
      inRun = true;
    }
    if (inRun) covered += runEnd - runStart;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, std::vector<double>> selfTimesByName(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> self = selfTimesUs(spans);
  std::map<std::string, std::vector<double>> byName;
  for (size_t i = 0; i < spans.size(); ++i)
    byName[spans[i].name].push_back(self[i]);
  return byName;
}

}  // namespace perfbench
