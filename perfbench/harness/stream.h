// Seeded request streams for the serve-zipf workload: a zipf-ranked hot
// kernel set, byte-different but canonically equal variants of each hot
// kernel, and a pool of kernels outside the hot set. Every byte is a pure
// function of the workload seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/graph.h"
#include "support/rng.h"

namespace perfbench {

/// Samples ranks 0..n-1 with P(rank r) proportional to 1 / (r + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s);
  int sample(sherlock::Rng& rng) const;
  int size() const { return static_cast<int>(cumulative_.size()); }

 private:
  std::vector<double> cumulative_;
};

/// A variant of `g` that computes the same function with different
/// source bytes: inputs are renamed under a seeded prefix and the operand
/// lists of commutative ops are shuffled. ir::canonicalHash is unchanged.
sherlock::ir::Graph makeVariant(const sherlock::ir::Graph& g, uint64_t seed);

/// Hot kernel k's variant v (variant 0 is the kernel itself) is source
/// k * kVariantsPerKernel + v of a ServeStream.
constexpr int kVariantsPerKernel = 8;

struct ServeStream {
  /// Distinct request bodies (sherlock-dag text): the hot kernels with
  /// their variants, then the fresh kernels.
  std::vector<std::string> sources;
  /// Hot-kernel index behind each source, -1 for fresh kernels.
  std::vector<int> kernelOf;
  /// The requests, as source indices. Which class the daemon serves each
  /// one from (direct hit, canonical hit, cold) is read from its reply;
  /// evictions decide it as much as the stream does.
  std::vector<int> requests;
};

/// The serve-zipf stream of `seed`. Its shape (hot-set size, zipf
/// exponent, variant and fresh shares, kernel sizes, length) is fixed in
/// stream.cpp; perfbench/README.md says which of it is assumed.
ServeStream makeServeStream(uint64_t seed);

/// Random DAG with `ops` operations whose wiring is drawn from `seed`.
/// Width, fan-in (2, so it compiles at MRA 2), NOT share and locality are
/// fixed, so seeds vary the kernels without moving their typical cost.
/// Shared by the serve stream and the small-kernels workload.
sherlock::ir::Graph randomKernel(uint64_t seed, int ops);

}  // namespace perfbench
