// Unit tests for the mapping layer: the layout allocator, the clustering
// engine (Algorithm 2 cases), both mappers' placement plans, and structural
// invariants of generated programs.
#include <gtest/gtest.h>

#include <set>

#include "ir/analysis.h"
#include "mapping/clustering.h"
#include "mapping/compiler.h"
#include "transforms/passes.h"
#include "transforms/substitution.h"
#include "sim/simulator.h"
#include "verify/verifier.h"
#include "workloads/bitweaving.h"
#include "workloads/random_dag.h"
#include "workloads/sobel.h"

namespace sherlock::mapping {
namespace {

using ir::NodeId;
using ir::OpKind;

isa::TargetSpec smallTarget(int n = 64, int mra = 2) {
  return isa::TargetSpec::square(n, device::TechnologyParams::reRam(), mra);
}

// ------------------------------------------------------------- Layout

TEST(Layout, AllocatesDenseRows) {
  Layout l(smallTarget(16));
  auto c0 = l.allocate(1, {0, 3});
  auto c1 = l.allocate(2, {0, 3});
  EXPECT_EQ(c0.row, 0);
  EXPECT_EQ(c1.row, 1);
  EXPECT_EQ(l.freeCells({0, 3}), 14);
  EXPECT_EQ(l.liveCells(), 2);
}

TEST(Layout, ReleaseRecyclesLowestRowFirst) {
  Layout l(smallTarget(16));
  l.allocate(1, {0, 0});
  l.allocate(2, {0, 0});
  l.allocate(3, {0, 0});
  l.release(2);
  auto c = l.allocate(4, {0, 0});
  EXPECT_EQ(c.row, 1);  // the freed row
  EXPECT_EQ(l.peakLiveCells(), 3);
}

TEST(Layout, FullColumnThrows) {
  Layout l(smallTarget(16));
  for (int i = 0; i < 16; ++i) l.allocate(i, {0, 0});
  EXPECT_THROW(l.allocate(99, {0, 0}), MappingError);
}

TEST(Layout, ReplicasTrackedPerColumn) {
  Layout l(smallTarget(16));
  l.allocate(7, {0, 0});
  l.allocate(7, {0, 5});
  EXPECT_EQ(l.placementCount(7), 2);
  EXPECT_TRUE(l.placementIn(7, {0, 0}).has_value());
  EXPECT_TRUE(l.placementIn(7, {0, 5}).has_value());
  EXPECT_FALSE(l.placementIn(7, {0, 1}).has_value());
  l.releaseCellIn(7, {0, 0});
  EXPECT_EQ(l.placementCount(7), 1);
  EXPECT_FALSE(l.placementIn(7, {0, 0}).has_value());
  auto in5 = l.valuesIn({0, 5});
  EXPECT_EQ(in5, std::vector<NodeId>{7});
}

TEST(Layout, BoundsChecked) {
  Layout l(smallTarget(16));
  EXPECT_THROW(l.allocate(1, {99, 0}), Error);  // bad array
  EXPECT_THROW(l.allocate(1, {0, 99}), Error);  // bad column
}

// ---------------------------------------------------------- Clustering

ir::Graph chain(int len) {
  ir::Graph g;
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId acc = g.addOp(OpKind::And, {a, b});
  for (int i = 1; i < len; ++i) acc = g.addOp(OpKind::And, {acc, a});
  g.markOutput(acc);
  return g;
}

TEST(Clustering, ChainFormsOneCluster) {
  ir::Graph g = chain(10);
  ClusteringOptions opt;
  opt.columnCapacity = 64;
  auto res = findClusters(g, opt);
  EXPECT_EQ(res.clusters.size(), 1u);
  EXPECT_EQ(res.crossClusterEdges, 0);
}

TEST(Clustering, CapacitySplitsChain) {
  ir::Graph g = chain(30);
  ClusteringOptions opt;
  opt.columnCapacity = 10;
  auto res = findClusters(g, opt);
  EXPECT_GT(res.clusters.size(), 1u);
  for (const Cluster& c : res.clusters)
    EXPECT_LE(c.cellCount(), opt.columnCapacity);
}

TEST(Clustering, IndependentTreesSeparate) {
  // Two disjoint trees must never share a cluster (no dependencies).
  ir::Graph g;
  NodeId a = g.addInput("a"), b = g.addInput("b");
  NodeId c = g.addInput("c"), d = g.addInput("d");
  NodeId t1 = g.addOp(OpKind::And, {a, b});
  NodeId t2 = g.addOp(OpKind::Or, {c, d});
  NodeId t1b = g.addOp(OpKind::Xor, {t1, a});
  NodeId t2b = g.addOp(OpKind::Xor, {t2, c});
  g.markOutput(t1b);
  g.markOutput(t2b);
  ClusteringOptions opt;
  opt.columnCapacity = 64;
  auto res = findClusters(g, opt);
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(t1)],
            res.clusterOf[static_cast<size_t>(t1b)]);
  EXPECT_EQ(res.clusterOf[static_cast<size_t>(t2)],
            res.clusterOf[static_cast<size_t>(t2b)]);
  EXPECT_EQ(res.crossClusterEdges, 0);
}

TEST(Clustering, MergeReachesTargetCount) {
  ir::Graph g = workloads::buildSobel({});
  ClusteringOptions opt;
  opt.columnCapacity = 400;
  opt.targetClusters = 3;
  auto res = findClusters(g, opt);
  EXPECT_LE(res.clusters.size(), 6u);  // best effort toward 3
  for (const Cluster& c : res.clusters)
    EXPECT_LE(c.cellCount(), opt.columnCapacity);
}

TEST(Clustering, EveryOpAssignedExactlyOnce) {
  ir::Graph g = workloads::buildBitweaving({12});
  ClusteringOptions opt;
  opt.columnCapacity = 40;
  auto res = findClusters(g, opt);
  std::set<NodeId> seen;
  for (size_t ci = 0; ci < res.clusters.size(); ++ci)
    for (NodeId n : res.clusters[ci].nodes) {
      EXPECT_TRUE(seen.insert(n).second) << "node " << n << " duplicated";
      EXPECT_EQ(res.clusterOf[static_cast<size_t>(n)],
                static_cast<int>(ci));
    }
  EXPECT_EQ(seen.size(), g.opCount());
}

TEST(Clustering, LowerCrossEdgesThanRoundRobin) {
  // The whole point of Algorithm 2: fewer crossing dependencies than an
  // arbitrary (round-robin) partition of the same granularity.
  ir::Graph g = workloads::buildSobel({});
  ClusteringOptions opt;
  opt.columnCapacity = 100;
  auto res = findClusters(g, opt);

  std::vector<int> roundRobin(g.numNodes(), -1);
  int k = static_cast<int>(res.clusters.size());
  int i = 0;
  for (NodeId op : g.opNodes()) roundRobin[static_cast<size_t>(op)] = i++ % k;
  EXPECT_LT(res.crossClusterEdges, countCrossClusterEdges(g, roundRobin));
}

// ----------------------------------------------------------- Mappers

TEST(NaiveMapper, FillsColumnsInOrder) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(32);  // 32-row columns force several columns
  PlacementPlan plan = mapNaive(g, target);
  EXPECT_GT(plan.usedColumns, 1);
  // Every op has a valid location; leaf homes are unique.
  for (NodeId op : g.opNodes()) {
    const ColumnRef& c = plan.opLocation[static_cast<size_t>(op)];
    EXPECT_GE(c.col, 0);
    EXPECT_LT(c.col, target.cols());
  }
  for (NodeId leaf : g.inputNodes())
    EXPECT_EQ(plan.leafColumns[static_cast<size_t>(leaf)].size(), 1u);
}

TEST(NaiveMapper, ThrowsWhenTargetTooSmall) {
  ir::Graph g = workloads::buildSobel({});
  isa::TargetSpec tiny = smallTarget(8);
  tiny.numArrays = 1;
  EXPECT_THROW(mapNaive(g, tiny), MappingError);
}

TEST(OptMapper, LeavesPreloadedInEveryConsumingColumn) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(32);
  OptMapping m = mapOptimized(g, target);
  for (NodeId leaf : g.inputNodes()) {
    std::set<ColumnRef> consumerCols;
    for (NodeId user : g.node(leaf).users)
      consumerCols.insert(m.plan.opLocation[static_cast<size_t>(user)]);
    std::set<ColumnRef> preloaded(
        m.plan.leafColumns[static_cast<size_t>(leaf)].begin(),
        m.plan.leafColumns[static_cast<size_t>(leaf)].end());
    EXPECT_EQ(preloaded, consumerCols) << "leaf " << leaf;
  }
}

TEST(OptMapper, OpsExecuteInTheirClusterColumn) {
  ir::Graph g = workloads::buildSobel({});
  auto target = smallTarget(128);
  OptMapping m = mapOptimized(g, target);
  for (size_t ci = 0; ci < m.clustering.clusters.size(); ++ci)
    for (NodeId n : m.clustering.clusters[ci].nodes) {
      ColumnRef expected{static_cast<int>(ci) / target.cols(),
                         static_cast<int>(ci) % target.cols()};
      EXPECT_EQ(m.plan.opLocation[static_cast<size_t>(n)], expected);
    }
}

// ------------------------------------------------- Program invariants

TEST(Codegen, ProgramInstructionsValidate) {
  ir::Graph g = workloads::buildBitweaving({16});
  auto target = smallTarget(64);
  for (auto strategy : {Strategy::Naive, Strategy::Optimized}) {
    CompileOptions opts;
    opts.strategy = strategy;
    auto compiled = compile(g, target, opts);
    for (const auto& inst : compiled.program.instructions) {
      auto violation = verify::checkInstructionRules(inst, target);
      EXPECT_FALSE(violation.has_value()) << violation->toString();
    }
    EXPECT_EQ(compiled.program.outputCells.size(), g.outputs().size());
  }
}

TEST(Codegen, MraLimitRespected) {
  ir::Graph g = workloads::buildRandomDag({.inputs = 8,
                                           .ops = 120,
                                           .maxArity = 4,
                                           .notProbability = 0.05,
                                           .locality = 1.0,
                                           .useXor = true,
                                           .seed = 5});
  auto target = smallTarget(64, 4);
  auto compiled = compile(g, target);
  for (const auto& inst : compiled.program.instructions)
    if (inst.kind == isa::InstKind::Read)
      EXPECT_LE(inst.rows.size(), 4u);
}

TEST(Codegen, OneCimReadPerOpWithoutMerging) {
  ir::Graph g = workloads::buildBitweaving({8});
  auto target = smallTarget(64);
  CompileOptions opts;
  opts.strategy = Strategy::Naive;  // merging off by default
  auto compiled = compile(g, target, opts);
  long cimColumnOps = 0;
  for (const auto& inst : compiled.program.instructions)
    cimColumnOps += static_cast<long>(inst.colOps.size());
  EXPECT_EQ(cimColumnOps, static_cast<long>(g.opCount()));
}

TEST(Codegen, MergingReducesInstructionCount) {
  ir::Graph g = transforms::canonicalize(workloads::buildSobel({}));
  auto target = smallTarget(128);
  CompileOptions on, off;
  on.strategy = off.strategy = Strategy::Optimized;
  on.mergeInstructions = true;
  off.mergeInstructions = false;
  auto pOn = compile(g, target, on);
  auto pOff = compile(g, target, off);
  EXPECT_LT(pOn.program.instructions.size(),
            pOff.program.instructions.size());
  EXPECT_GT(pOn.program.stats.mergedInstructions, 0);
}

TEST(Codegen, OptOutperformsNaive) {
  // The headline claim at program level: on an instance large enough to
  // span several columns, the optimized mapping produces a program with
  // fewer instructions, fewer spill writes and lower simulated latency.
  workloads::SobelSpec spec;
  spec.width = 8;
  ir::Graph g = transforms::canonicalize(workloads::buildSobel(spec));
  auto target = smallTarget(256);
  CompileOptions naive, opt;
  naive.strategy = Strategy::Naive;
  opt.strategy = Strategy::Optimized;
  auto pn = compile(g, target, naive);
  auto po = compile(g, target, opt);
  EXPECT_LT(po.program.instructions.size(), pn.program.instructions.size());
  EXPECT_LT(po.program.stats.spillWrites, pn.program.stats.spillWrites);
  auto rn = sim::simulate(g, target, pn.program);
  auto ro = sim::simulate(g, target, po.program);
  EXPECT_TRUE(rn.verified);
  EXPECT_TRUE(ro.verified);
  EXPECT_LT(ro.latencyNs, rn.latencyNs);
}

TEST(Codegen, HostWritesCoverAllConsumedLeaves) {
  ir::Graph g = workloads::buildBitweaving({12});
  auto target = smallTarget(64);
  auto compiled = compile(g, target);
  std::set<NodeId> loaded;
  for (const auto& [idx, values] : compiled.program.hostWriteValues) {
    EXPECT_LT(idx, compiled.program.instructions.size());
    EXPECT_EQ(values.size(),
              compiled.program.instructions[idx].columns.size());
    for (NodeId v : values) loaded.insert(v);
  }
  for (NodeId leaf : g.inputNodes())
    if (!g.node(leaf).users.empty())
      EXPECT_TRUE(loaded.contains(leaf)) << "leaf " << leaf;
}

}  // namespace
}  // namespace sherlock::mapping

#include "mapping/program_analysis.h"

namespace sherlock::mapping {
namespace {

TEST(ProgramAnalysis, CountsMatchStream) {
  ir::Graph g =
      transforms::canonicalize(workloads::buildBitweaving({12}));
  auto target = smallTarget(64);
  auto compiled = compile(g, target);
  auto a = analyzeProgram(compiled.program);
  EXPECT_EQ(a.instructions,
            static_cast<long>(compiled.program.instructions.size()));
  EXPECT_EQ(a.reads, a.cimReads + a.plainReads);
  long colOps = 0;
  for (const auto& [name, count] : a.opMix) colOps += count;
  EXPECT_EQ(colOps, static_cast<long>(g.opCount()));
  EXPECT_EQ(a.chainedOperands, compiled.program.stats.chainedOperands);
  EXPECT_GE(a.meanColumnsPerAccess(), 1.0);
  // The report renders all sections.
  std::string report = a.toString();
  EXPECT_NE(report.find("instructions:"), std::string::npos);
  EXPECT_NE(report.find("op mix:"), std::string::npos);
}

TEST(ProgramAnalysis, MraHistogramReflectsSubstitution) {
  ir::Graph g =
      transforms::canonicalize(workloads::buildBitweaving({12}));
  transforms::SubstitutionOptions sopt;
  sopt.maxOperands = 4;
  auto merged = transforms::substituteNodes(g, sopt);
  auto target = smallTarget(64, 4);
  auto compiled = compile(merged.graph, target);
  auto a = analyzeProgram(compiled.program);
  bool hasWide = false;
  for (size_t k = 3; k < a.activatedRowsHistogram.size(); ++k)
    if (a.activatedRowsHistogram[k] > 0) hasWide = true;
  EXPECT_TRUE(hasWide);
}

}  // namespace
}  // namespace sherlock::mapping
