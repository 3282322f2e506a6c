// Personalized PageRank: seeded residual pushing on the engine.
#include <numeric>

#include <gtest/gtest.h>

#include "algos/personalized_pagerank.hpp"
#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesNear;
using testing::kGraphCases;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

TEST(ReferencePpr, MassConservedOnRing) {
  // A ring has no dangling vertices: pushed mass only leaks below epsilon,
  // and ValueOf folds that back, so the total is exactly 1.
  const EdgeList g = GenerateRing(16);
  const auto ppr = ReferencePersonalizedPageRank(g, 3, 1e-14);
  EXPECT_NEAR(std::accumulate(ppr.begin(), ppr.end(), 0.0), 1.0, 1e-9);
}

TEST(ReferencePpr, SourceHoldsTheLargestMass) {
  RmatOptions o;
  o.scale = 8;
  o.edge_factor = 6;
  const EdgeList g = GenerateRmat(o);
  const auto ppr = ReferencePersonalizedPageRank(g, 7, 1e-12);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(ppr[v], ppr[7] + 1e-12);
  }
  EXPECT_GE(ppr[7], 0.15);  // at least the restart mass
}

TEST(ReferencePpr, MassDecaysWithDistance) {
  const EdgeList g = GeneratePath(20);
  const auto ppr = ReferencePersonalizedPageRank(g, 0, 1e-15);
  for (VertexId v = 0; v + 1 < 20; ++v) {
    EXPECT_GT(ppr[v], ppr[v + 1]);
  }
}

class PprEngine : public ::testing::TestWithParam<int> {};

TEST_P(PprEngine, MatchesReferenceOnAllFamilies) {
  const auto& graph_case = kGraphCases[GetParam()];
  TempDir dir;
  TestDataset t = MakeDataset(graph_case.make(), dir.Sub("ds"), 4);
  const auto reference = ReferencePersonalizedPageRank(t.graph, 0, 1e-10);
  core::GraphSDEngine engine(*t.dataset, {});
  algos::PersonalizedPageRank ppr(0, 1e-10);
  (void)ValueOrDie(engine.Run(ppr));
  // Push order differs between engine and reference; both leak at most
  // epsilon per vertex below the threshold.
  ExpectValuesNear(Values(ppr, *engine.state()), reference,
                   1e-10 * t.graph.num_vertices());
}

TEST_P(PprEngine, AllConfigurationsAgree) {
  const auto& graph_case = kGraphCases[GetParam()];
  TempDir dir;
  TestDataset t = MakeDataset(graph_case.make(), dir.Sub("ds"), 4);
  const auto reference = ReferencePersonalizedPageRank(t.graph, 0, 1e-10);
  for (const bool on_demand : {false, true}) {
    core::EngineOptions options;
    options.force_on_demand = on_demand;
    core::GraphSDEngine engine(*t.dataset, options);
    algos::PersonalizedPageRank ppr(0, 1e-10);
    (void)ValueOrDie(engine.Run(ppr));
    SCOPED_TRACE(on_demand);
    ExpectValuesNear(Values(ppr, *engine.state()), reference,
                     1e-10 * t.graph.num_vertices());
  }
}

INSTANTIATE_TEST_SUITE_P(Families, PprEngine, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kGraphCases[info.param].name;
                         });

// PPR's single-seed activity is the most on-demand-friendly workload in
// the library: the scheduler must run at least some SCIU rounds.
TEST(PprScheduling, UsesOnDemandRounds) {
  TempDir dir;
  RmatOptions o;
  o.scale = 11;
  o.edge_factor = 8;
  TestDataset t = MakeDataset(GenerateRmat(o), dir.Sub("ds"), 6);
  core::GraphSDEngine engine(*t.dataset, {});
  algos::PersonalizedPageRank ppr(42, 1e-6);
  const auto report = ValueOrDie(engine.Run(ppr));
  bool saw_sciu = false;
  for (const auto& round : report.per_round) {
    if (round.model == core::RoundModel::kSciu) saw_sciu = true;
  }
  EXPECT_TRUE(saw_sciu);
  // ...and, under the paper's configuration, it must be much cheaper than
  // the always-full ablation (resident state would add semi rounds to it).
  core::GraphSDEngine paper_engine(*t.dataset, core::PaperEngineOptions());
  algos::PersonalizedPageRank ppr2(42, 1e-6);
  const auto paper_report = ValueOrDie(paper_engine.Run(ppr2));
  core::EngineOptions full = core::PaperEngineOptions();
  full.enable_selective = false;
  core::GraphSDEngine full_engine(*t.dataset, full);
  algos::PersonalizedPageRank ppr3(42, 1e-6);
  const auto full_report = ValueOrDie(full_engine.Run(ppr3));
  EXPECT_LT(paper_report.io_seconds, full_report.io_seconds);
}

}  // namespace
}  // namespace graphsd
