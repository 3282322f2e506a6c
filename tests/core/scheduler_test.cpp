#include "core/scheduler.hpp"

#include <gtest/gtest.h>

#include "core/skip_summary.hpp"
#include "graph/generators.hpp"
#include "testing_util.hpp"

namespace graphsd::core {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

class SchedulerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    device_ = io::MakeSimulatedDevice();
    RmatOptions options;
    options.scale = 10;
    options.edge_factor = 8;
    graph_ = GenerateRmat(options);
    BuildTestGrid(graph_, *device_, dir_.Sub("ds"), 4);
    dataset_ = std::make_unique<partition::GridDataset>(
        ValueOrDie(partition::GridDataset::Open(*device_, dir_.Sub("ds"))));
  }

  TempDir dir_;
  std::unique_ptr<io::Device> device_;
  EdgeList graph_;
  std::unique_ptr<partition::GridDataset> dataset_;
};

TEST_F(SchedulerTest, FullFrontierSelectsFullModel) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Hdd());
  Frontier active(dataset_->num_vertices());
  active.ActivateAll();
  const SchedulerDecision d = scheduler.Evaluate(active, 8, false);
  EXPECT_FALSE(d.on_demand);
  EXPECT_EQ(d.active_vertices, dataset_->num_vertices());
  EXPECT_EQ(d.active_edges, dataset_->num_edges());
  EXPECT_GT(d.cost_on_demand, 0.0);
  EXPECT_GT(d.cost_full, 0.0);
}

TEST_F(SchedulerTest, TinyFrontierSelectsOnDemand) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::ScaledHdd());
  Frontier active(dataset_->num_vertices());
  active.Activate(1);
  const SchedulerDecision d = scheduler.Evaluate(active, 8, false);
  EXPECT_TRUE(d.on_demand);
  EXPECT_LT(d.cost_on_demand, d.cost_full);
  EXPECT_EQ(d.active_vertices, 1u);
  EXPECT_EQ(d.active_edges, dataset_->out_degrees()[1]);
}

TEST_F(SchedulerTest, EmptyFrontierOnDemandIsNearlyFree) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::ScaledHdd());
  Frontier active(dataset_->num_vertices());
  const SchedulerDecision d = scheduler.Evaluate(active, 8, false);
  EXPECT_TRUE(d.on_demand);
  EXPECT_EQ(d.active_edges, 0u);
  EXPECT_EQ(d.rand_bytes + d.seq_bytes, 0u);
}

TEST_F(SchedulerTest, FullCostIsFrontierIndependent) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Hdd());
  Frontier small(dataset_->num_vertices());
  small.Activate(0);
  Frontier large(dataset_->num_vertices());
  large.ActivateAll();
  const auto d1 = scheduler.Evaluate(small, 8, false);
  const auto d2 = scheduler.Evaluate(large, 8, false);
  EXPECT_DOUBLE_EQ(d1.cost_full, d2.cost_full);
}

TEST_F(SchedulerTest, OnDemandCostGrowsWithFrontier) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Hdd());
  double prev = 0;
  // Spacing stays >= 8 so each active vertex remains its own run; at
  // spacing 1 the frontier would collapse into a single sequential run and
  // the cost would legitimately drop.
  for (std::uint64_t count : {1u, 16u, 64u, 128u}) {
    Frontier active(dataset_->num_vertices());
    for (std::uint64_t k = 0; k < count; ++k) {
      active.Activate(static_cast<VertexId>(
          k * (dataset_->num_vertices() / count)));
    }
    const auto d = scheduler.Evaluate(active, 8, false);
    EXPECT_GE(d.cost_on_demand, prev);
    prev = d.cost_on_demand;
  }
}

TEST_F(SchedulerTest, WeightedEdgesRaiseFullCost) {
  // Build a weighted dataset.
  TempDir dir2;
  RmatOptions options;
  options.scale = 9;
  options.max_weight = 5.0;
  const EdgeList weighted = GenerateRmat(options);
  BuildTestGrid(weighted, *device_, dir2.Sub("w"), 4);
  const auto ds =
      ValueOrDie(partition::GridDataset::Open(*device_, dir2.Sub("w")));
  StateAwareScheduler scheduler(ds, io::IoCostModel::Hdd());
  Frontier active(ds.num_vertices());
  active.ActivateAll();
  const auto with = scheduler.Evaluate(active, 8, true);
  const auto without = scheduler.Evaluate(active, 8, false);
  EXPECT_GT(with.cost_full, without.cost_full);
}

TEST_F(SchedulerTest, ContiguousActiveRunsCountAsSequential) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Hdd());
  Frontier active(dataset_->num_vertices());
  // One large contiguous run of actives.
  for (VertexId v = 0; v < 512; ++v) active.Activate(v);
  const auto d = scheduler.Evaluate(active, 8, false);
  EXPECT_LE(d.random_requests, 1u);
  EXPECT_GT(d.seq_bytes + d.rand_bytes, 0u);
}

TEST_F(SchedulerTest, ScatteredActivesCountAsRandom) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Hdd());
  Frontier active(dataset_->num_vertices());
  for (VertexId v = 0; v < dataset_->num_vertices(); v += 64) {
    active.Activate(v);
  }
  const auto d = scheduler.Evaluate(active, 8, false);
  EXPECT_GT(d.random_requests, 1u);
}

TEST_F(SchedulerTest, EvaluationOverheadIsRecordedAndSmall) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Hdd());
  Frontier active(dataset_->num_vertices());
  active.ActivateAll();
  const auto d = scheduler.Evaluate(active, 8, false);
  EXPECT_GT(d.eval_seconds, 0.0);
  EXPECT_LT(d.eval_seconds, 1.0);
}

TEST_F(SchedulerTest, SsdProfileShiftsCrossoverTowardOnDemand) {
  // With near-zero seek cost, even a fairly large scattered frontier should
  // prefer on-demand; with HDD seeks it should not.
  Frontier active(dataset_->num_vertices());
  for (VertexId v = 0; v < dataset_->num_vertices(); v += 8) {
    active.Activate(v);
  }
  StateAwareScheduler hdd(*dataset_, io::IoCostModel::Hdd());
  StateAwareScheduler ssd(*dataset_, io::IoCostModel::Ssd());
  const auto d_hdd = hdd.Evaluate(active, 8, false);
  const auto d_ssd = ssd.Evaluate(active, 8, false);
  const double hdd_ratio = d_hdd.cost_on_demand / d_hdd.cost_full;
  const double ssd_ratio = d_ssd.cost_on_demand / d_ssd.cost_full;
  EXPECT_LT(ssd_ratio, hdd_ratio);
}

TEST_F(SchedulerTest, SsdProfileFlipsADecisionTheHddProfileRefuses) {
  // The C_r <= C_s crossover re-examined under SSD economics: sweeping
  // frontier density from sparse to dense, there must exist a density where
  // the HDD profile still streams (C_r > C_s, its 8 ms seeks make scattered
  // requests ruinous) but the SSD profile — seeks two orders of magnitude
  // cheaper — already picks on-demand. (ScaledHdd would be the wrong
  // baseline here: its proxy-rescaled seeks are already SSD-sized.) The
  // fixture's dataset is too small for the flip to exist — its full scan
  // costs less than one seek chain on either profile — so build one whose
  // scan time lands between the two profiles' per-active seek costs.
  TempDir dir2;
  RmatOptions options;
  options.scale = 13;
  options.edge_factor = 16;
  const EdgeList big = GenerateRmat(options);
  BuildTestGrid(big, *device_, dir2.Sub("big"), 4);
  const auto ds =
      ValueOrDie(partition::GridDataset::Open(*device_, dir2.Sub("big")));
  StateAwareScheduler hdd(ds, io::IoCostModel::Hdd());
  StateAwareScheduler ssd(ds, io::IoCostModel::Ssd());
  bool flipped = false;
  for (VertexId stride :
       {8192u, 4096u, 2048u, 1024u, 512u, 256u, 128u, 64u, 32u, 16u}) {
    Frontier active(ds.num_vertices());
    for (VertexId v = 0; v < ds.num_vertices(); v += stride) {
      active.Activate(v);
    }
    const auto d_hdd = hdd.Evaluate(active, 8, false);
    const auto d_ssd = ssd.Evaluate(active, 8, false);
    // The SSD profile can never be the one still streaming when the HDD
    // profile has switched to on-demand.
    EXPECT_FALSE(!d_ssd.on_demand && d_hdd.on_demand) << "stride " << stride;
    if (!d_hdd.on_demand && d_ssd.on_demand) flipped = true;
  }
  EXPECT_TRUE(flipped);
}

// Semi-external costing asks only for the skip summaries that can change
// its decision. In a full frontier every row's active edges fill all of its
// sub-blocks, so no skip is possible and no summary is asked for.
TEST_F(SchedulerTest, DenseFrontierAsksForNoSkipSummaries) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Ssd());
  Frontier active(dataset_->num_vertices());
  active.ActivateAll();
  SkipSummaryStore store(dataset_->manifest());
  const SemiCostInputs semi{&store};
  const SchedulerDecision d =
      scheduler.Evaluate(active, 0, false, false, -1.0, &semi);
  EXPECT_TRUE(d.semi_unknown.empty());
  EXPECT_FALSE(d.semi);
}

// A sparse frontier asks for unknown summaries in its own row only; once
// those are recorded, the decision and C_m are the ones every summary known
// gives.
TEST_F(SchedulerTest, SparseFrontierAsksForItsRowsSummaries) {
  const auto& manifest = dataset_->manifest();
  VertexId v = 0;
  while (dataset_->out_degrees()[v] == 0) ++v;
  ASSERT_LT(v, manifest.boundaries[1]);
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::Ssd());
  Frontier active(dataset_->num_vertices());
  active.Activate(v);

  SkipSummaryStore partial(manifest);
  const SemiCostInputs semi{&partial};
  const SchedulerDecision first =
      scheduler.Evaluate(active, 0, false, false, -1.0, &semi);
  ASSERT_FALSE(first.semi_unknown.empty());
  for (const auto& [i, j] : first.semi_unknown) {
    EXPECT_EQ(i, 0u);
    partial.RecordFromOffsets(i, j, ValueOrDie(dataset_->LoadIndex(i, j)));
  }
  const SchedulerDecision second =
      scheduler.Evaluate(active, 0, false, false, -1.0, &semi);
  EXPECT_TRUE(second.semi_unknown.empty());

  SkipSummaryStore full(manifest);
  for (std::uint32_t i = 0; i < manifest.p; ++i) {
    for (std::uint32_t j = 0; j < manifest.p; ++j) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      full.RecordFromOffsets(i, j, ValueOrDie(dataset_->LoadIndex(i, j)));
    }
  }
  const SemiCostInputs all{&full};
  const SchedulerDecision known =
      scheduler.Evaluate(active, 0, false, false, -1.0, &all);
  EXPECT_TRUE(known.semi_unknown.empty());
  EXPECT_EQ(second.semi, known.semi);
  EXPECT_EQ(second.serial_cost_semi, known.serial_cost_semi);
  EXPECT_EQ(second.semi_skipped_blocks, known.semi_skipped_blocks);
}

}  // namespace
}  // namespace graphsd::core
