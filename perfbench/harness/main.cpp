// perfbench: runs one workload of the pipeline benchmark and prints
//
//   MODEL {...}     modeled outputs of configs also in BENCH_table2/BENCH_7
//   RESULT {...}    correct / attempted / failed / metrics
//
// perfbench/run.py builds this binary, pins its environment, cross-checks
// the MODEL lines and prints the final result line.
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench/json.h"
#include "harness/run.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload paper-sweep|small-kernels|"
               "serve-zipf|fault-guarded --seed N --seconds S --trace 0|1 "
               "--root DIR --work-dir DIR --daemon PATH\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to time a build without NDEBUG "
               "(configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo or Release)\n";
  return 3;
#endif
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::stoull(value);
    else if (arg == "--seconds") options.seconds = std::stod(value);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--root") options.root = value;
    else if (arg == "--work-dir") options.workDir = value;
    else if (arg == "--daemon") options.daemon = value;
    else usage();
  }
  const std::string& w = options.workload;
  if (w != "paper-sweep" && w != "small-kernels" && w != "serve-zipf" &&
      w != "fault-guarded")
    usage();

  RunResult result;
  try {
    result = w == "serve-zipf" ? runServeZipf(options) : runOffline(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  sherlock::bench::Json metrics = sherlock::bench::Json::object();
  for (const auto& [name, metric] : result.metrics)
    metrics.set(name, sherlock::bench::Json::object()
                          .set("value", metric.value)
                          .set("unit", metric.unit));
  sherlock::bench::Json root = sherlock::bench::Json::object();
  root.set("correct", result.correct)
      .set("attempted", result.attempted)
      .set("failed", result.failed)
      .set("metrics", std::move(metrics));
  std::string line = root.dump();
  for (char& c : line)
    if (c == '\n') c = ' ';
  std::cout << "RESULT " << line << std::endl;
  return result.correct ? 0 : 1;
}
