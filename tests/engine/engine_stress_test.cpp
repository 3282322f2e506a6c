// Stress tests: larger graphs, repeated runs.
#include <gtest/gtest.h>

#include "algos/widest_path.hpp"
#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesNear;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

class EngineStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 12;  // ~4k vertices, ~45k edges: largest graph in the suite
    o.edge_factor = 12;
    o.max_weight = 50.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 8);
  }
  TempDir dir_;
  TestDataset t_;
};

TEST_F(EngineStressTest, CcLabelsBitIdenticalAcrossRepeatedParallelRuns) {
  // Repeated runs with the prefetch loader active must land on identical
  // labels run after run.
  TempDir dir2;
  TestDataset sym = MakeDataset(Symmetrize(t_.graph), dir2.Sub("sym"), 8);
  std::vector<VertexId> first;
  for (int run = 0; run < 3; ++run) {
    core::GraphSDEngine engine(*sym.dataset, {});
    algos::ConnectedComponents cc;
    (void)ValueOrDie(engine.Run(cc));
    std::vector<VertexId> labels(sym.graph.num_vertices());
    for (VertexId v = 0; v < sym.graph.num_vertices(); ++v) {
      labels[v] = algos::ConnectedComponents::LabelOf(*engine.state(), v);
    }
    if (run == 0) {
      first = labels;
    } else {
      ASSERT_EQ(labels, first) << "run " << run;
    }
  }
}

TEST_F(EngineStressTest, WidestPathAtScale) {
  const auto reference = ReferenceWidestPath(t_.graph, 0);
  core::GraphSDEngine engine(*t_.dataset, {});
  algos::WidestPath widest(0);
  (void)ValueOrDie(engine.Run(widest));
  ExpectValuesNear(Values(widest, *engine.state()), reference, 1e-9);
}

TEST_F(EngineStressTest, ModeledIoIsDeterministicAcrossRuns) {
  // The virtual clock depends only on the request sequence, which is
  // deterministic for a fixed dataset and options — even with the prefetch
  // loader thread, since loads are issued in plan order.
  double first = -1;
  for (int run = 0; run < 2; ++run) {
    core::GraphSDEngine engine(*t_.dataset, {});
    algos::PageRank pr(4);
    const auto report = ValueOrDie(engine.Run(pr));
    if (first < 0) {
      first = report.io_seconds;
    } else {
      EXPECT_DOUBLE_EQ(report.io_seconds, first);
    }
  }
}

TEST_F(EngineStressTest, ManySequentialRunsDoNotLeakState) {
  // Alternate algorithms on one dataset; each run must be self-contained
  // (fresh values file, fresh frontiers, fresh buffer).
  const auto sssp_reference = ReferenceSssp(t_.graph, 3);
  const auto bfs_reference = ReferenceBfs(t_.graph, 3);
  for (int round = 0; round < 3; ++round) {
    core::GraphSDEngine engine(*t_.dataset, {});
    algos::Sssp sssp(3);
    (void)ValueOrDie(engine.Run(sssp));
    ExpectValuesNear(Values(sssp, *engine.state()), sssp_reference, 1e-9);

    core::GraphSDEngine engine2(*t_.dataset, {});
    algos::Bfs bfs(3);
    (void)ValueOrDie(engine2.Run(bfs));
    for (VertexId v = 0; v < t_.graph.num_vertices(); ++v) {
      const std::uint64_t want = bfs_reference[v] == kUnreachedLevel
                                     ? UINT64_MAX
                                     : bfs_reference[v];
      ASSERT_EQ(algos::Bfs::LevelOf(*engine2.state(), v), want);
    }
  }
}

}  // namespace
}  // namespace graphsd
