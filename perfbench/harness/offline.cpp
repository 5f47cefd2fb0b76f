// The three offline workloads: paper-sweep, small-kernels and
// fault-guarded. Each kernel runs source/DAG -> verified Program ->
// simulation -> output check, serially on this thread, round after round
// until the run length is used up.
//
// Untraced runs call the facades a user calls (frontend::compileKernel /
// ir::graphFromText, transforms::optimize, mapping::compile with
// verification on, sim::simulate). Traced runs call the layer functions
// one by one with the same options inside benchmark-side spans, and check
// that every Program matches the facade's byte for byte.
#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench/common.h"
#include "bench/json.h"
#include "frontend/lexer.h"
#include "frontend/lowering.h"
#include "harness/run.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "harness/stream.h"
#include "ir/canonical.h"
#include "ir/evaluator.h"
#include "ir/serialize.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "workloads/aes_math.h"

namespace perfbench {

using namespace sherlock;

namespace {

using InputWords = std::map<std::string, std::vector<uint64_t>>;

/// One kernel of a workload with its seeded inputs and the expected
/// outputs from a reference the compiler does not produce.
struct Kernel {
  std::string name;
  ir::Graph graph;       ///< prebuilt DAG (paper kernels)
  std::string text;      ///< source text (small-kernels)
  bool kernelLanguage = false;
  long tokens = 0;       ///< lexer tokens of a kernel-language source
  int laneWords = 1;
  InputWords inputs;
  std::vector<std::vector<uint64_t>> expected;  ///< per output, laneWords
};

struct Item {
  const Kernel* kernel = nullptr;
  std::string tech;
  isa::TargetSpec target;
  int dim = 0;
  std::string grid = "1x1";
  mapping::Strategy strategy = mapping::Strategy::Optimized;
  int mra = 2;
  const device::FaultMap* faultMap = nullptr;
  int spareRows = 0;
  bool guarded = false;
  uint64_t mcSeed = 1;
  /// Modeled outputs also covered by BENCH_table2.json / BENCH_7.json.
  bool crossCheck = false;

  std::string label() const {
    return strCat(kernel->name, "/", tech, "/",
                  strategy == mapping::Strategy::Naive ? "naive" : "opt",
                  "/", dim, "/", grid, "/mra", mra);
  }
};

struct Workload {
  /// Seconds one round of items takes on the reference host (4 cores,
  /// RelWithDebInfo). A run does ceil(--seconds / this) whole rounds, so
  /// it measures at least --seconds there, and every run of a workload
  /// does the same work and reports percentiles over the same sample
  /// count.
  double nominalRoundSeconds = 1;
  std::deque<Kernel> kernels;
  std::deque<device::FaultMap> faultMaps;
  std::vector<Item> items;
  double buildMs = 0;          ///< kernel generation
  std::vector<double> faultMapMs;
  long faultyCells = 0;
};

// ---------------------------------------------------------------------
// Inputs and references

/// Sets bit-sliced input words "<prefix>.<i>" from per-lane values.
void setSliced(InputWords& inputs, const std::string& prefix, int bits,
               const std::vector<uint64_t>& lanes, int laneWords) {
  for (int i = 0; i < bits; ++i) {
    std::vector<uint64_t> words(static_cast<size_t>(laneWords), 0);
    for (size_t lane = 0; lane < lanes.size(); ++lane)
      if ((lanes[lane] >> i) & 1) words[lane / 64] |= uint64_t{1} << (lane % 64);
    inputs[strCat(prefix, ".", i)] = std::move(words);
  }
}

std::vector<uint64_t> packBits(const std::vector<bool>& lanes, int laneWords) {
  std::vector<uint64_t> words(static_cast<size_t>(laneWords), 0);
  for (size_t lane = 0; lane < lanes.size(); ++lane)
    if (lanes[lane]) words[lane / 64] |= uint64_t{1} << (lane % 64);
  return words;
}

std::vector<uint64_t> randomLanes(Rng& rng, size_t lanes, int bits) {
  std::vector<uint64_t> values(lanes);
  for (auto& v : values) v = rng() & ((uint64_t{1} << bits) - 1);
  return values;
}

void buildBitweaving(Kernel& k, Rng& rng) {
  constexpr int kBits = 16, kSegments = 32;
  const size_t lanes = 64 * static_cast<size_t>(k.laneWords);
  std::vector<uint64_t> c1 = randomLanes(rng, lanes, kBits);
  std::vector<uint64_t> c2 = randomLanes(rng, lanes, kBits);
  for (size_t l = 0; l < lanes; ++l)
    if (c1[l] > c2[l]) std::swap(c1[l], c2[l]);
  setSliced(k.inputs, "c1", kBits, c1, k.laneWords);
  setSliced(k.inputs, "c2", kBits, c2, k.laneWords);
  for (int s = 0; s < kSegments; ++s) {
    std::vector<uint64_t> v = randomLanes(rng, lanes, kBits);
    setSliced(k.inputs, s == 0 ? std::string("v") : strCat("v", s), kBits, v,
              k.laneWords);
    std::vector<bool> hit(lanes);
    for (size_t l = 0; l < lanes; ++l)
      hit[l] = workloads::bitweavingReference(v[l], c1[l], c2[l], kBits);
    k.expected.push_back(packBits(hit, k.laneWords));
  }
}

void buildSobel(Kernel& k, Rng& rng) {
  workloads::SobelSpec spec;
  spec.width = 16;
  const size_t lanes = 64 * static_cast<size_t>(k.laneWords);
  std::vector<std::vector<uint64_t>> pixels(3 * (spec.width + 2));
  auto at = [&](int r, int c) -> std::vector<uint64_t>& {
    return pixels[static_cast<size_t>(r * (spec.width + 2) + c)];
  };
  for (int r = 0; r < 3; ++r)
    for (int c = 0; c < spec.width + 2; ++c) {
      at(r, c) = randomLanes(rng, lanes, spec.pixelBits);
      setSliced(k.inputs, workloads::sobelPixelName(r, c), spec.pixelBits,
                at(r, c), k.laneWords);
    }
  for (int w = 0; w < spec.width; ++w) {
    std::vector<bool> edge(lanes);
    for (size_t l = 0; l < lanes; ++l) {
      const uint64_t neighbors[8] = {at(0, w)[l],     at(0, w + 1)[l],
                                     at(0, w + 2)[l], at(1, w)[l],
                                     at(1, w + 2)[l], at(2, w)[l],
                                     at(2, w + 1)[l], at(2, w + 2)[l]};
      edge[l] = workloads::sobelReference(neighbors, spec);
    }
    k.expected.push_back(packBits(edge, k.laneWords));
  }
}

void buildAes(Kernel& k, Rng& rng) {
  const size_t lanes = 64 * static_cast<size_t>(k.laneWords);
  std::array<uint8_t, 16> key{};
  for (auto& b : key) b = static_cast<uint8_t>(rng());
  for (const auto& [name, word] : workloads::packRoundKeys(key, 10))
    k.inputs[name] = std::vector<uint64_t>(static_cast<size_t>(k.laneWords),
                                           word);
  std::vector<std::array<uint8_t, 16>> plain(lanes), cipher(lanes);
  for (size_t l = 0; l < lanes; ++l) {
    for (auto& b : plain[l]) b = static_cast<uint8_t>(rng());
    cipher[l] = workloads::aes::encryptBlock(plain[l], key);
  }
  for (int bit = 0; bit < 128; ++bit) {
    std::vector<bool> pt(lanes), ct(lanes);
    for (size_t l = 0; l < lanes; ++l) {
      pt[l] = (plain[l][static_cast<size_t>(bit / 8)] >> (bit % 8)) & 1;
      ct[l] = (cipher[l][static_cast<size_t>(bit / 8)] >> (bit % 8)) & 1;
    }
    k.inputs[strCat("pt.", bit)] = packBits(pt, k.laneWords);
    k.expected.push_back(packBits(ct, k.laneWords));
  }
}

/// Paper kernel with domain-reference outputs at `laneWords`.
Kernel paperKernel(const std::string& name, int laneWords, uint64_t seed) {
  Kernel k;
  k.name = name;
  k.graph = bench::makeWorkload(name);
  k.laneWords = laneWords;
  Rng rng(seed);
  if (name == "Bitweaving") buildBitweaving(k, rng);
  else if (name == "Sobel") buildSobel(k, rng);
  else buildAes(k, rng);
  return k;
}

/// Source-text kernel whose expected outputs come from the lane-wise
/// BitVector model evaluated on the unoptimized source DAG.
Kernel textKernel(const std::string& name, std::string text,
                  bool kernelLanguage, uint64_t seed) {
  Kernel k;
  k.name = name;
  k.text = std::move(text);
  k.kernelLanguage = kernelLanguage;
  if (kernelLanguage) k.tokens = static_cast<long>(frontend::tokenize(k.text).size());
  ir::Graph source = kernelLanguage ? frontend::compileKernel(k.text)
                                    : ir::graphFromText(k.text);
  Rng rng(seed);
  ir::InputValues lanes;
  for (ir::NodeId id : source.inputNodes()) {
    std::vector<uint64_t> words{rng()};
    lanes[source.node(id).name] = BitVector::fromWords(words.data(), 64);
    k.inputs[source.node(id).name] = std::move(words);
  }
  for (const BitVector& out : ir::evaluateOutputs(source, lanes))
    k.expected.push_back({out.word(0)});
  return k;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error(strCat("cannot read ", path));
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

isa::TargetSpec paperTarget(device::Technology tech, int dim, int mra) {
  isa::TargetSpec target = isa::TargetSpec::square(
      dim, device::TechnologyParams::forTechnology(tech), mra);
  target.geometry.dataWidthBits = bench::kBulkBits;
  return target;
}

// ---------------------------------------------------------------------
// Workload definitions. Why each exists is in perfbench/README.md.

void buildPaperSweep(Workload& w, uint64_t seed) {
  w.nominalRoundSeconds = 18;
  auto t0 = Clock::now();
  for (const char* name : bench::kWorkloads)
    w.kernels.push_back(paperKernel(name, 64, deriveSeed(seed, w.kernels.size())));
  w.buildMs = secondsSince(t0) * 1e3;
  const auto reram = device::Technology::ReRam;
  // Table 2's ReRAM grid (both mappers x 512^2/1024^2 x MRA 2/4) for
  // Bitweaving and Sobel. AES-128 costs ten times as much per config, so
  // it keeps three points that still cover both mappers, both sizes and
  // MRA 4: naive at 512^2, optimized at 1024^2, naive at 1024^2 MRA 4.
  struct Point {
    mapping::Strategy strategy;
    int dim;
    int mra;
  };
  std::vector<Point> full;
  for (auto strategy : {mapping::Strategy::Naive, mapping::Strategy::Optimized})
    for (int dim : {512, 1024})
      for (int mra : {2, 4}) full.push_back({strategy, dim, mra});
  const std::vector<Point> aes = {{mapping::Strategy::Naive, 512, 2},
                                  {mapping::Strategy::Optimized, 1024, 2},
                                  {mapping::Strategy::Naive, 1024, 4}};
  for (const Kernel& k : w.kernels)
    for (const Point& p : k.name == "AES" ? aes : full) {
      Item item;
      item.kernel = &k;
      item.tech = technologyName(reram);
      item.strategy = p.strategy;
      item.dim = p.dim;
      item.mra = p.mra;
      item.target = paperTarget(reram, p.dim, p.mra);
      item.crossCheck = true;
      w.items.push_back(item);
    }
  // The BENCH_7 equal-silicon Bitweaving pair: one 192^2 array against a
  // 2x2 mesh of 96^2 arrays.
  for (auto [dim, rows] : {std::pair{192, 1}, std::pair{96, 2}}) {
    Item item;
    item.kernel = &w.kernels[0];
    item.tech = technologyName(reram);
    item.dim = dim;
    item.grid = strCat(rows, "x", rows);
    arraymodel::GridConfig grid;
    grid.rows = rows;
    grid.cols = rows;
    item.target = paperTarget(reram, dim, 2).withGrid(grid);
    item.crossCheck = true;
    w.items.push_back(item);
  }
}

void buildSmallKernels(Workload& w, uint64_t seed, const std::string& root) {
  w.nominalRoundSeconds = 1.7;
  auto t0 = Clock::now();
  const std::filesystem::path dir =
      std::filesystem::path(root) / "examples" / "kernels";
  for (const char* file :
       {"bitweaving_between.sk", "parity_check.sk", "popcount_threshold.sk"})
    w.kernels.push_back(textKernel(file, readFile((dir / file).string()), true,
                                   deriveSeed(seed, w.kernels.size())));
  // Random DAGs at every 16 ops from 16 to 256: sizes are fixed so that
  // only the shapes vary with the seed.
  for (int ops = 16; ops <= 256; ops += 16) {
    uint64_t s = deriveSeed(seed, 1000 + static_cast<uint64_t>(ops));
    w.kernels.push_back(textKernel(strCat("dag", ops),
                                   ir::graphToText(randomKernel(s, ops)),
                                   false, s));
  }
  w.buildMs = secondsSince(t0) * 1e3;
  const auto reram = device::Technology::ReRam;
  for (int dim : {256, 512, 1024})
    for (const Kernel& k : w.kernels) {
      Item item;
      item.kernel = &k;
      item.tech = technologyName(reram);
      item.dim = dim;
      item.target = isa::TargetSpec::square(
          dim, device::TechnologyParams::forTechnology(reram), 2);
      w.items.push_back(item);
    }
}

void buildFaultGuarded(Workload& w, uint64_t seed) {
  w.nominalRoundSeconds = 3;
  auto t0 = Clock::now();
  for (const char* name : {"Bitweaving", "Sobel"})
    w.kernels.push_back(paperKernel(name, 40, deriveSeed(seed, w.kernels.size())));
  w.buildMs = secondsSince(t0) * 1e3;
  constexpr int kDim = 512;
  for (double density : {0.01, 0.02}) {
    // One map per density: both technologies and kernels run on the same
    // physical array, as on one chip.
    isa::TargetSpec shape = paperTarget(device::Technology::ReRam, kDim, 2);
    device::FaultMapOptions fo;
    fo.seed = deriveSeed(seed, static_cast<uint64_t>(density * 1000));
    fo.stuckDensity = density;
    fo.weakDensity = density * 0.5;
    auto g0 = Clock::now();
    w.faultMaps.push_back(device::FaultMap::generate(
        shape.numArrays, shape.rows(), shape.cols(), fo));
    w.faultMapMs.push_back(secondsSince(g0) * 1e3);
    w.faultyCells += w.faultMaps.back().stuckCellCount() +
                     w.faultMaps.back().weakCellCount();
    for (const Kernel& k : w.kernels)
      for (auto tech : {device::Technology::ReRam, device::Technology::SttMram}) {
        Item item;
        item.kernel = &k;
        item.tech = technologyName(tech);
        item.dim = kDim;
        item.target = paperTarget(tech, kDim, 2);
        item.faultMap = &w.faultMaps.back();
        item.spareRows = 16;
        item.guarded = true;
        item.mcSeed = deriveSeed(seed, 7000 + w.items.size());
        w.items.push_back(item);
      }
  }
}

/// Items point into the workload's kernels and fault maps, so it lives
/// on the heap and never moves.
std::unique_ptr<Workload> buildWorkload(const RunOptions& options) {
  auto w = std::make_unique<Workload>();
  if (options.workload == "paper-sweep") buildPaperSweep(*w, options.seed);
  else if (options.workload == "small-kernels")
    buildSmallKernels(*w, options.seed, options.root);
  else buildFaultGuarded(*w, options.seed);
  return w;
}

// ---------------------------------------------------------------------
// One kernel through the pipeline

struct Outcome {
  bool ok = false;
  double compileUs = 0;
  double simUs = 0;
  double totalUs = 0;
  sim::SimResult sim;
  mapping::Program program;
  long lanes = 0;
  // Layer counts (traced runs).
  long nodesRemoved = 0;
  long nodesMerged = 0;
  long clusters = 0;
  long cutEdges = 0;
  long violations = 0;
};

mapping::CompileOptions compileOptions(const Item& item) {
  mapping::CompileOptions copts;
  copts.strategy = item.strategy;
  copts.verify = true;
  copts.faults.map = item.faultMap;
  copts.faults.spareRows = item.spareRows;
  return copts;
}

sim::SimOptions simOptions(const Item& item) {
  sim::SimOptions sopts;
  sopts.laneWords = item.kernel->laneWords;
  sopts.wideInputs = item.kernel->inputs;
  // mapping::compile already verified the program statically.
  sopts.staticVerify = false;
  sopts.faultMap = item.faultMap;
  sopts.guardedExecution = item.guarded;
  sopts.injectFaults = item.guarded;
  sopts.faultSeed = item.mcSeed;
  return sopts;
}

/// The DAG the item compiles: parsed and optimized source text, or the
/// prebuilt paper kernel; node substitution when MRA > 2.
ir::Graph frontEnd(const Item& item, SpanRecorder& rec, uint64_t id,
                   Outcome& out) {
  const Kernel& k = *item.kernel;
  ir::Graph g;
  if (!k.text.empty()) {
    {
      SpanRecorder::Scope s(rec, k.kernelLanguage ? "frontend.compile_kernel"
                                                  : "ir.parse_dag",
                            id);
      g = k.kernelLanguage ? frontend::compileKernel(k.text)
                           : ir::graphFromText(k.text);
    }
    size_t before = g.numNodes();
    {
      SpanRecorder::Scope s(rec, "transforms.optimize", id);
      g = transforms::optimize(g);
    }
    out.nodesRemoved = static_cast<long>(before) - static_cast<long>(g.numNodes());
  } else {
    g = k.graph;
  }
  if (item.mra > 2) {
    SpanRecorder::Scope s(rec, "transforms.substitute", id);
    transforms::SubstitutionOptions sopt;
    sopt.maxOperands = item.mra;
    sopt.order = item.strategy == mapping::Strategy::Optimized
                     ? transforms::MergeOrder::ByAffinity
                     : transforms::MergeOrder::ByPriority;
    auto sub = transforms::substituteNodes(g, sopt);
    out.nodesMerged = static_cast<long>(sub.stats.applied);
    g = std::move(sub.graph);
  }
  return g;
}

/// mapping::compile split into its layers, with compile()'s option
/// pairing (merging and lazy write-back for the optimized mapper).
mapping::Program compileByLayer(const ir::Graph& g, const Item& item,
                                SpanRecorder& rec, uint64_t id, Outcome& out) {
  const mapping::CompileOptions copts = compileOptions(item);
  const bool optimized = copts.strategy == mapping::Strategy::Optimized;
  mapping::PlacementPlan plan;
  {
    SpanRecorder::Scope s(rec, "mapping.map", id);
    if (optimized) {
      mapping::OptMapping m =
          mapping::mapOptimized(g, item.target, copts.optimizer, copts.faults);
      plan = std::move(m.plan);
      out.clusters = static_cast<long>(m.clustering.clusters.size());
      out.cutEdges = m.clustering.crossClusterEdges + m.partition.cutEdges;
    } else {
      plan = mapping::mapNaive(g, item.target, copts.faults);
    }
  }
  mapping::CodegenOptions cg;
  cg.mergeInstructions = optimized;
  cg.eagerWriteback = !optimized;
  cg.reuseMovedCopies = optimized;
  cg.waveOrder = copts.waveOrder;
  cg.faults = copts.faults;
  mapping::Program program;
  {
    SpanRecorder::Scope s(rec, "mapping.codegen", id);
    program = mapping::generateCode(g, item.target, plan, cg);
  }
  {
    SpanRecorder::Scope s(rec, "verify.check", id);
    verify::VerifyOptions vopts;
    vopts.faultMap = copts.faults.map;
    vopts.spareRows = copts.faults.spareRows;
    try {
      verify::checkProgram(g, item.target, program, vopts);
    } catch (const VerificationError&) {
      ++out.violations;
      throw;
    }
  }
  return program;
}

bool samePrograms(const mapping::Program& a, const mapping::Program& b) {
  return isa::toAssembly(a.instructions) == isa::toAssembly(b.instructions) &&
         a.hostWriteValues == b.hostWriteValues &&
         a.outputCells == b.outputCells;
}

/// Compares the final DAG's outputs on the item's inputs against the
/// kernel's reference. The simulator separately checks its output cells
/// against the same DAG evaluation.
bool outputsMatch(const ir::Graph& g, const Kernel& k) {
  std::vector<uint64_t> values =
      ir::evaluateAllWordsPacked(g, k.inputs, k.laneWords);
  if (g.outputs().size() != k.expected.size()) return false;
  const auto w = static_cast<size_t>(k.laneWords);
  for (size_t j = 0; j < k.expected.size(); ++j)
    for (size_t word = 0; word < w; ++word)
      if (values[static_cast<size_t>(g.outputs()[j]) * w + word] !=
          k.expected[j][word])
        return false;
  return true;
}

/// Corrupted lanes a guarded item may leave. Guarded execution lets
/// ~P_DF^2 per lane-op through, with P_DF below the simulator's 1e-3
/// degrade threshold, and left no lane corrupted on any seed tried; a
/// broken spare-row repair or guard path corrupts most lanes that read a
/// faulty cell.
constexpr double kMaxCorruptLaneFrac = 0.01;

Outcome runItem(const Item& item, SpanRecorder& rec, uint64_t id,
                RunResult& result) {
  Outcome out;
  const Kernel& k = *item.kernel;
  auto t0 = Clock::now();
  SpanRecorder::Scope kernelSpan(rec, "kernel", id);
  try {
    ir::Graph g;
    {
      SpanRecorder::Scope s(rec, "compile", id);
      g = frontEnd(item, rec, id, out);
      if (rec.enabled())
        out.program = compileByLayer(g, item, rec, id, out);
      else
        out.program = mapping::compile(g, item.target, compileOptions(item)).program;
    }
    auto t1 = Clock::now();
    {
      SpanRecorder::Scope s(rec, "sim.simulate", id);
      out.sim = sim::simulate(g, item.target, out.program, simOptions(item));
    }
    auto t2 = Clock::now();
    bool match;
    {
      SpanRecorder::Scope s(rec, "check", id);
      match = outputsMatch(g, k);
    }
    auto t3 = Clock::now();
    out.compileUs = std::chrono::duration<double, std::micro>(t1 - t0).count();
    out.simUs = std::chrono::duration<double, std::micro>(t2 - t1).count();
    out.totalUs = std::chrono::duration<double, std::micro>(t3 - t0).count();
    out.lanes = 64L * k.laneWords;
    if (!match) {
      result.fail(strCat(item.label(), ": outputs differ from the reference"));
    } else if (!item.guarded && !out.sim.verified) {
      result.fail(strCat(item.label(), ": simulated outputs differ from the DAG"));
    } else if (static_cast<double>(out.sim.corruptedLanes()) >
               kMaxCorruptLaneFrac * static_cast<double>(out.lanes)) {
      result.fail(strCat(item.label(), ": ", out.sim.corruptedLanes(), " of ",
                         out.lanes, " simulated lanes corrupted"));
    } else {
      out.ok = true;
    }
  } catch (const std::exception& e) {
    result.fail(strCat(item.label(), ": ", e.what()));
  }
  return out;
}

void printModelLine(const Item& item, const Outcome& out) {
  bench::Json j = bench::Json::object();
  j.set("workload", item.kernel->name)
      .set("tech", item.tech)
      .set("array_dim", item.dim)
      .set("strategy", item.strategy == mapping::Strategy::Naive ? "naive" : "opt")
      .set("mra", item.mra)
      .set("grid", item.grid)
      .set("latency_ns", out.sim.latencyNs)
      .set("energy_pj", out.sim.energyPj)
      .set("p_app", out.sim.pApp)
      .set("instructions", static_cast<long>(out.program.instructions.size()));
  std::string line = j.dump();
  line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
  std::cout << "MODEL " << line << "\n";
}

double medianMs(const std::map<std::string, std::vector<double>>& self,
                const std::string& name) {
  auto it = self.find(name);
  return it == self.end() ? 0 : median(it->second) / 1e3;
}

double totalUs(const std::map<std::string, std::vector<double>>& self,
               const std::string& name) {
  auto it = self.find(name);
  double sum = 0;
  if (it != self.end())
    for (double v : it->second) sum += v;
  return sum;
}

}  // namespace

RunResult runOffline(const RunOptions& options) {
  RunResult result;

  // Set-up runs before every round, and again after the last until it has
  // run kMinSetUps times; setup_s is the median. Spread over the run, the
  // repetitions do not all meet the same stretch of host interference.
  // Every build is identical; the rounds use the latest.
  constexpr size_t kMinSetUps = 3;
  std::vector<double> setupSeconds;
  std::unique_ptr<Workload> built;
  auto setUp = [&] {
    built.reset();
    auto t0 = Clock::now();
    built = buildWorkload(options);
    setupSeconds.push_back(secondsSince(t0));
  };
  setUp();

  SpanRecorder rec(options.trace);
  const size_t items = built->items.size();
  // Pooled samples (tails) and per-item samples over rounds.
  std::vector<double> compileMs, requestUs;
  std::vector<std::vector<double>> itemCompileUs(items), itemSimUs(items),
      itemTotalUs(items);
  long kernelsDone = 0;
  std::vector<Outcome> first(items);
  long facadeMismatches = 0;
  double untimedSeconds = 0;
  double violations = 0;
  uint64_t nextId = 1;
  int rounds = 0;

  const int plannedRounds = std::max(
      1, static_cast<int>(std::ceil(options.seconds / built->nominalRoundSeconds)));
  auto start = Clock::now();
  while (rounds < plannedRounds && result.correct) {
    if (rounds > 0) {
      auto s0 = Clock::now();
      setUp();
      untimedSeconds += secondsSince(s0);
    }
    for (size_t i = 0; i < items; ++i) {
      const Item& item = built->items[i];
      ++result.attempted;
      Outcome out = runItem(item, rec, nextId++, result);
      if (rounds == 0) violations += static_cast<double>(out.violations);
      if (!out.ok) continue;
      ++kernelsDone;
      compileMs.push_back(out.compileUs / 1e3);
      requestUs.push_back(out.totalUs);
      itemCompileUs[i].push_back(out.compileUs);
      itemSimUs[i].push_back(out.simUs);
      itemTotalUs[i].push_back(out.totalUs);
      if (rounds > 0) continue;
      std::cout << "  " << item.label() << ": compile " << out.compileUs / 1e3
                << " ms, simulate " << out.simUs / 1e3 << " ms, "
                << out.program.instructions.size() << " insts\n";
      if (rec.enabled()) {
        // Untimed: the facade must produce the very same Program.
        auto f0 = Clock::now();
        ir::Graph g;
        SpanRecorder off(false);
        Outcome scratch;
        g = frontEnd(item, off, 0, scratch);
        mapping::Program facade =
            mapping::compile(g, item.target, compileOptions(item)).program;
        if (!samePrograms(facade, out.program)) {
          ++facadeMismatches;
          result.fail(strCat(item.label(),
                             ": layer-by-layer Program differs from mapping::compile"));
        }
        untimedSeconds += secondsSince(f0);
      }
      if (item.crossCheck) printModelLine(item, out);
      first[i] = std::move(out);
    }
    ++rounds;
  }
  const double elapsed = secondsSince(start) - untimedSeconds;
  while (setupSeconds.size() < kMinSetUps) setUp();
  const Workload& w = *built;

  // Per item, the fastest round. Host interference only adds time and
  // comes in stretches of seconds that can cover most of a run, so the
  // best round estimates the item's cost steadily; a slower program is
  // slower in every round.
  std::vector<double> itemCompileMs, itemRequestUs;
  double itemSeconds = 0, itemSimSeconds = 0, simInsts = 0;
  for (size_t i = 0; i < items; ++i) {
    if (!first[i].ok) continue;
    itemCompileMs.push_back(std::ranges::min(itemCompileUs[i]) / 1e3);
    itemRequestUs.push_back(std::ranges::min(itemTotalUs[i]));
    itemSeconds += itemRequestUs.back() / 1e6;
    itemSimSeconds += std::ranges::min(itemSimUs[i]) / 1e6;
    simInsts += static_cast<double>(first[i].sim.instructionCount);
  }
  const double kernelsPerS =
      itemSeconds > 0 ? static_cast<double>(itemRequestUs.size()) / itemSeconds : 0;

  // Modeled outputs of the workload's programs (first round; every later
  // round repeats them exactly).
  std::vector<double> lat, energy, papp;
  double insts = 0, corrupt = 0, lanes = 0, guarded = 0, columnOps = 0;
  double retried = 0, degraded = 0, injected = 0, stall = 0, latencyNs = 0;
  double merged = 0, movement = 0, spills = 0, spares = 0, removed = 0;
  double nodesMerged = 0, clusters = 0, cutEdges = 0;
  for (const Outcome& o : first) {
    if (!o.ok) continue;
    lat.push_back(o.sim.latencyUs());
    energy.push_back(o.sim.energyUj());
    if (o.sim.pApp > 0) papp.push_back(o.sim.pApp);
    insts += static_cast<double>(o.program.instructions.size());
    corrupt += static_cast<double>(o.sim.corruptedLanes());
    lanes += static_cast<double>(o.lanes);
    guarded += static_cast<double>(o.sim.guardedOps);
    columnOps += static_cast<double>(o.sim.cimColumnOps);
    retried += static_cast<double>(o.sim.retriedOps);
    degraded += static_cast<double>(o.sim.degradedOps);
    injected += static_cast<double>(o.sim.injectedFaults);
    stall += o.sim.stallNs;
    latencyNs += o.sim.latencyNs;
    const mapping::CodegenStats& s = o.program.stats;
    merged += static_cast<double>(s.mergedInstructions);
    movement += static_cast<double>(s.plainReads + s.shifts + s.moves + s.xfers);
    spills += static_cast<double>(s.spillWrites);
    spares += static_cast<double>(s.spareRowAllocations);
    removed += static_cast<double>(o.nodesRemoved);
    nodesMerged += static_cast<double>(o.nodesMerged);
    clusters += static_cast<double>(o.clusters);
    cutEdges += static_cast<double>(o.cutEdges);
  }

  Tail compileTail = tailPercentile(compileMs);
  Tail requestTail = tailPercentile(requestUs);
  std::cout << "rounds " << rounds << ", kernels " << kernelsDone << " in "
            << elapsed << " s; compile tail " << describe(compileTail)
            << "; request tail " << describe(requestTail) << "\n";
  const double failedFrac = result.attempted
                                ? static_cast<double>(result.failed) /
                                      static_cast<double>(result.attempted)
                                : 0;
  const double corruptFrac = lanes > 0 ? corrupt / lanes : 0;
  const double guardedShare = columnOps > 0 ? guarded / columnOps : 0;
  std::cout << "failed_frac " << failedFrac << " corrupt_lane_frac "
            << corruptFrac << " guarded column-op share " << guardedShare
            << "\n";

  if (!options.trace) {
    result.set("setup_s", median(setupSeconds), "s");
    result.set("compile_ms_p50", median(itemCompileMs), "ms");
    result.set("compile_ms_tail", compileTail.value, "ms");
    result.set("sim_minst_per_s",
               itemSimSeconds > 0 ? simInsts / itemSimSeconds / 1e6 : 0, "Minst/s");
    result.set("kernels_per_s", kernelsPerS, "1/s");
    result.set("request_us_p50", median(itemRequestUs), "us");
    result.set("request_us_tail", requestTail.value, "us");
    result.set("requests_per_s", kernelsPerS, "1/s");
    result.set("peak_rss_mb", peakRssMb(), "MB");
    if (!lat.empty()) {
      result.set("model_latency_us", geomean(lat), "sim_us");
      result.set("model_energy_uj", geomean(energy), "sim_uJ");
      // Programs without a scouting column-op have P_app = 0 and are left
      // out of the geometric mean.
      result.set("model_p_app", geomean(papp), "prob");
    }
    result.set("program_insts", insts, "count");
    return result;
  }

  // Traced run: per-layer self times from the benchmark-side spans.
  auto self = selfTimesByName(rec.spans());
  std::cout << "traced kernels_per_s " << kernelsPerS << "\n";
  std::cout << "self time per span (total ms, calls):\n";
  for (const auto& [name, samples] : self)
    std::cout << "  " << name << " " << totalUs(self, name) / 1e3 << " "
              << samples.size() << "\n";
  const double compileTotal =
      totalUs(self, "compile") + totalUs(self, "frontend.compile_kernel") +
      totalUs(self, "ir.parse_dag") + totalUs(self, "transforms.optimize") +
      totalUs(self, "transforms.substitute") + totalUs(self, "mapping.map") +
      totalUs(self, "mapping.codegen") + totalUs(self, "verify.check");

  // The canonical form is what the compile daemon keys its cache on;
  // small-kernels measures it on the same parsed sources, outside the
  // compile path.
  std::vector<double> canonicalMs;
  for (const Kernel& k : w.kernels) {
    if (k.text.empty()) continue;
    ir::Graph g = k.kernelLanguage ? frontend::compileKernel(k.text)
                                   : ir::graphFromText(k.text);
    auto c0 = Clock::now();
    ir::CanonicalForm form = ir::canonicalForm(g);
    if (form.fingerprint().empty()) continue;
    canonicalMs.push_back(secondsSince(c0) * 1e3);
  }

  double tokens = 0;
  for (const Item& item : w.items) tokens += static_cast<double>(item.kernel->tokens);
  const double frontendUs = totalUs(self, "frontend.compile_kernel");
  const double verifyUs = totalUs(self, "verify.check");
  double verifiedInsts = 0;
  for (const auto& o : first)
    verifiedInsts += static_cast<double>(o.program.instructions.size());
  verifiedInsts *= rounds;

  result.set("workloads.build_ms", w.buildMs, "ms");
  result.set("frontend.compile_kernel_ms", medianMs(self, "frontend.compile_kernel"), "ms");
  result.set("frontend.tokens_per_s",
             frontendUs > 0 ? tokens * rounds / (frontendUs / 1e6) : 0, "1/s");
  result.set("ir.parse_dag_ms", medianMs(self, "ir.parse_dag"), "ms");
  result.set("ir.canonical_form_ms", median(canonicalMs), "ms");
  result.set("transforms.optimize_ms", medianMs(self, "transforms.optimize"), "ms");
  result.set("transforms.nodes_removed", removed, "count");
  result.set("transforms.substitute_ms", medianMs(self, "transforms.substitute"), "ms");
  result.set("transforms.nodes_merged", nodesMerged, "count");
  result.set("mapping.map_ms", medianMs(self, "mapping.map"), "ms");
  result.set("mapping.clusters", clusters, "count");
  result.set("mapping.cut_edges", cutEdges, "count");
  result.set("mapping.codegen_ms", medianMs(self, "mapping.codegen"), "ms");
  result.set("mapping.insts", insts, "count");
  result.set("mapping.merged_insts", merged, "count");
  result.set("mapping.movement_insts", movement, "count");
  result.set("mapping.spill_writes", spills, "count");
  result.set("mapping.spare_row_allocs", spares, "count");
  result.set("mapping.codegen_share",
             compileTotal > 0 ? totalUs(self, "mapping.codegen") / compileTotal : 0,
             "frac");
  result.set("verify.check_ms", medianMs(self, "verify.check"), "ms");
  result.set("verify.insts_per_ms", verifyUs > 0 ? verifiedInsts / (verifyUs / 1e3) : 0,
             "1/ms");
  result.set("verify.violations", violations, "count");
  result.set("sim.simulate_ms", medianMs(self, "sim.simulate"), "ms");
  result.set("sim.insts", simInsts, "count");
  result.set("sim.stall_frac", latencyNs > 0 ? stall / latencyNs : 0, "frac");
  result.set("sim.guarded_ops", guarded, "count");
  result.set("sim.guarded_share", guardedShare, "frac");
  result.set("sim.retries_per_guarded_op", guarded > 0 ? retried / guarded : 0, "ratio");
  result.set("sim.degraded_ops", degraded, "count");
  result.set("sim.injected_faults", injected, "count");
  result.set("device.faultmap_generate_ms", median(w.faultMapMs), "ms");
  result.set("device.faulty_cells", static_cast<double>(w.faultyCells), "count");
  result.set("failed_frac", failedFrac, "frac");
  result.set("corrupt_lane_frac", corruptFrac, "frac");
  std::cout << "facade mismatches " << facadeMismatches << "\n";
  return result;
}

}  // namespace perfbench
