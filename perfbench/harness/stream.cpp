#include "harness/stream.h"

#include <algorithm>
#include <cmath>

#include "ir/ops.h"
#include "ir/serialize.h"
#include "support/parallel.h"
#include "workloads/random_dag.h"

namespace perfbench {

using namespace sherlock;

namespace {

// The traffic mix. Only the zipf exponent has a source (BENCH_8's
// stream); the other values are assumptions, see perfbench/README.md.
constexpr int kHotKernels = 32;      // zipf-ranked working set
constexpr int kFreshKernels = 128;   // pool outside the hot set, used in order
constexpr double kZipfS = 1.1;
constexpr double kVariantShare = 0.25;  // of hot-set requests
constexpr double kFreshShare = 0.04;    // of all requests
constexpr int kRequests = 65536;        // stream length; clients wrap around
constexpr int kMinOps = 16;
constexpr int kMaxOps = 128;

}  // namespace

ZipfSampler::ZipfSampler(int n, double s) {
  double total = 0;
  cumulative_.reserve(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cumulative_.push_back(total);
  }
}

int ZipfSampler::sample(Rng& rng) const {
  double u = rng.uniform() * cumulative_.back();
  auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min(static_cast<int>(it - cumulative_.begin()), size() - 1);
}

ir::Graph makeVariant(const ir::Graph& g, uint64_t seed) {
  Rng rng(seed);
  std::string prefix = "x" + std::to_string(rng.below(1u << 20)) + "_";
  ir::Graph out;
  int inputIndex = 0;
  for (ir::NodeId id = g.firstId(); id < g.endId(); ++id) {
    const ir::Node& node = g.node(id);
    if (node.isInput()) {
      out.addInput(prefix + std::to_string(inputIndex++));
    } else if (node.isConst()) {
      out.addConst(node.constValue);
    } else {
      std::vector<ir::NodeId> operands = node.operands;
      if (ir::isMultiOperand(node.op))
        for (size_t i = operands.size(); i > 1; --i)
          std::swap(operands[i - 1], operands[rng.below(i)]);
      out.addOp(node.op, std::move(operands));
    }
  }
  for (ir::NodeId output : g.outputs()) out.markOutput(output);
  return out;
}

ir::Graph randomKernel(uint64_t seed, int ops) {
  workloads::RandomDagSpec spec;
  spec.seed = seed;
  spec.ops = ops;
  spec.inputs = std::clamp(ops / 8, 4, 24);
  spec.maxArity = 2;
  spec.notProbability = 0.1;
  spec.locality = 0.6;
  return workloads::buildRandomDag(spec);
}

ServeStream makeServeStream(uint64_t seed) {
  ServeStream stream;
  Rng rng(deriveSeed(seed, 1));
  // Sizes step evenly through [minOps, maxOps] and are dealt to the
  // popularity ranks in a fixed interleaved order, so that neither size
  // nor popularity depends on the seed: only the wiring does.
  auto opsAt = [](int rank) {
    int step = (rank * 13) % kHotKernels;  // 13 is coprime to the 32 ranks
    return kMinOps + (kMaxOps - kMinOps) * step / (kHotKernels - 1);
  };
  for (int k = 0; k < kHotKernels; ++k) {
    int ops = opsAt(k);
    ir::Graph base = randomKernel(deriveSeed(seed, 1000 + k), ops);
    for (int v = 0; v < kVariantsPerKernel; ++v) {
      stream.sources.push_back(ir::graphToText(
          v == 0 ? base
                 : makeVariant(base, deriveSeed(seed, 100000 + k * 64 + v))));
      stream.kernelOf.push_back(k);
    }
  }
  const int freshBase = static_cast<int>(stream.sources.size());
  for (int f = 0; f < kFreshKernels; ++f) {
    int ops = opsAt(f % kHotKernels);
    stream.sources.push_back(
        ir::graphToText(randomKernel(deriveSeed(seed, 500000 + f), ops)));
    stream.kernelOf.push_back(-1);
  }

  ZipfSampler zipf(kHotKernels, kZipfS);
  int nextFresh = 0;
  stream.requests.reserve(kRequests);
  for (int r = 0; r < kRequests; ++r) {
    if (rng.chance(kFreshShare)) {
      stream.requests.push_back(freshBase + nextFresh);
      nextFresh = (nextFresh + 1) % kFreshKernels;
      continue;
    }
    int kernel = zipf.sample(rng);  // hot kernel k has popularity rank k
    int variant = 0;
    if (rng.chance(kVariantShare))
      variant = 1 + static_cast<int>(rng.below(kVariantsPerKernel - 1));
    stream.requests.push_back(kernel * kVariantsPerKernel + variant);
  }
  return stream;
}

}  // namespace perfbench
