// Benchmark-side tracing: spans recorded around the harness's calls into
// each layer (name, start, end, parent span, request id), kept in memory
// and reduced to per-layer self times when the run ends. Nothing here
// touches the program's own tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double startUs = 0;
  double endUs = 0;
  int parent = -1;       ///< index of the enclosing span, -1 at top level
  uint64_t request = 0;  ///< spans of one kernel/request share this id
};

/// Single-threaded span recorder. Disabled recorders cost one branch per
/// span, so the untraced run can share the traced run's code path.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its index (-1
  /// when disabled).
  int begin(const std::string& name, uint64_t request);
  void end(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const std::string& name, uint64_t request)
        : recorder_(recorder), index_(recorder.begin(name, request)) {}
    ~Scope() { recorder_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_;
  };

 private:
  double nowUs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> selfTimesUs(const std::vector<SpanRecord>& spans);

/// Self times grouped by span name, one sample per span.
std::map<std::string, std::vector<double>> selfTimesByName(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench
