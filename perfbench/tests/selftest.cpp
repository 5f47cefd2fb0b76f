// Tests of the benchmark's own helpers. Build and run with
//   python3 perfbench/run.py --self-test
#include <cmath>
#include <iostream>
#include <set>
#include <string>

#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/stream.h"
#include "ir/canonical.h"
#include "ir/serialize.h"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::cerr << __FILE__ << ":" << __LINE__ << ": CHECK(" #cond ")\n"; \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void tailLeavesTenSamplesBeyond() {
  // 1000 samples: p99 has exactly 10 above it, p99.9 only one.
  Tail t = tailPercentile(iota(1000));
  CHECK(t.percentile == 99.0);
  CHECK(t.value == 990);
  CHECK(t.beyond == 10);
  CHECK(t.enough);
  // 100 samples: p90 leaves 10, p95 only 5.
  t = tailPercentile(iota(100));
  CHECK(t.percentile == 90.0 && t.value == 90 && t.beyond == 10);
  // 40 samples: p75 leaves 10.
  t = tailPercentile(iota(40));
  CHECK(t.percentile == 75.0 && t.value == 30 && t.beyond == 10);
  // Order of the input does not matter.
  std::vector<double> shuffled = iota(100);
  std::swap(shuffled[0], shuffled[99]);
  CHECK(tailPercentile(shuffled).value == 90);
  // Too few samples for any rung: the median, flagged.
  t = tailPercentile(iota(15));
  CHECK(t.percentile == 50.0 && !t.enough && t.value == 8);
  CHECK(median(iota(5)) == 3);
  CHECK(std::abs(geomean({1, 4, 16}) - 4) < 1e-12);
}

void zipfStreamIsDeterministicBySeed() {
  ServeStream a = makeServeStream(42);
  ServeStream b = makeServeStream(42);
  ServeStream c = makeServeStream(43);
  CHECK(a.sources == b.sources);
  CHECK(a.requests == b.requests);
  CHECK(a.sources != c.sources);
  CHECK(a.requests != c.requests);
  // Repeats, variants and fresh kernels all occur, at roughly their
  // shares: 4% fresh, and variants in 25% of the other 96%.
  const double n = static_cast<double>(a.requests.size());
  double fresh = 0, variant = 0;
  for (int source : a.requests) {
    const bool hot = a.kernelOf[static_cast<size_t>(source)] >= 0;
    fresh += !hot;
    variant += hot && source % kVariantsPerKernel != 0;
  }
  CHECK(fresh / n > 0.035 && fresh / n < 0.045);
  CHECK(variant / n > 0.22 && variant / n < 0.26);
  // Zipf: rank 0 is drawn more often than rank 7.
  ZipfSampler zipf(8, 1.1);
  sherlock::Rng rng(7);
  int counts[8] = {};
  for (int i = 0; i < 10000; ++i) ++counts[zipf.sample(rng)];
  CHECK(counts[0] > 2 * counts[7]);
}

void variantsShareTheCanonicalHash() {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    sherlock::ir::Graph g = randomKernel(seed, 16 + static_cast<int>(seed) * 8);
    sherlock::ir::Graph v = makeVariant(g, seed * 31);
    std::string gt = sherlock::ir::graphToText(g);
    std::string vt = sherlock::ir::graphToText(v);
    CHECK(gt != vt);
    CHECK(sherlock::ir::canonicalHash(sherlock::ir::graphFromText(gt)) ==
          sherlock::ir::canonicalHash(sherlock::ir::graphFromText(vt)));
    CHECK(vt != sherlock::ir::graphToText(makeVariant(g, seed * 31 + 1)));
  }
  // Sources in a stream are pairwise distinct byte-wise, and each
  // variant shares its hot kernel's canonical hash.
  ServeStream s = makeServeStream(5);
  std::set<std::string> distinct(s.sources.begin(), s.sources.end());
  CHECK(distinct.size() == s.sources.size());
  for (size_t i = 0; i < s.sources.size(); ++i) {
    if (s.kernelOf[i] < 0) continue;
    const size_t base = static_cast<size_t>(s.kernelOf[i] * kVariantsPerKernel);
    CHECK(sherlock::ir::canonicalHash(sherlock::ir::graphFromText(s.sources[i])) ==
          sherlock::ir::canonicalHash(sherlock::ir::graphFromText(s.sources[base])));
  }
}

void selfTimeSubtractsChildren() {
  // parent [0, 100] with children [10, 30] and [20, 50] (overlapping,
  // covered once: 40) and a grandchild [12, 18] inside the first child.
  std::vector<SpanRecord> spans = {
      {"parent", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 20, 50, 0, 1},
      {"leaf", 12, 18, 1, 1},
      {"other", 200, 260, -1, 2},
  };
  std::vector<double> self = selfTimesUs(spans);
  CHECK(self[0] == 60);
  CHECK(self[1] == 14);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  CHECK(self[4] == 60);
  // A child sticking out of its parent only counts inside it.
  std::vector<SpanRecord> clipped = {{"p", 0, 10, -1, 1}, {"c", 5, 20, 0, 1}};
  CHECK(selfTimesUs(clipped)[0] == 5);
  // The recorder nests spans under the innermost open one.
  SpanRecorder rec(true);
  {
    SpanRecorder::Scope outer(rec, "outer", 9);
    SpanRecorder::Scope inner(rec, "inner", 9);
  }
  CHECK(rec.spans().size() == 2);
  CHECK(rec.spans()[1].parent == 0 && rec.spans()[0].parent == -1);
  CHECK(rec.spans()[1].request == 9);
  CHECK(selfTimesByName(rec.spans()).at("inner").size() == 1);
  SpanRecorder off(false);
  { SpanRecorder::Scope s(off, "x", 1); }
  CHECK(off.spans().empty());
}

}  // namespace

int main() {
  tailLeavesTenSamplesBeyond();
  zipfStreamIsDeterministicBySeed();
  variantsShareTheCanonicalHash();
  selfTimeSubtractsChildren();
  if (failures) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-test: all checks passed\n";
  return 0;
}
