// Ablation behaviour: the paper's §5.4 claims, verified at test scale under
// the paper's configuration (core::PaperEngineOptions(): out-of-core vertex
// state, SCIU and full streaming as the only models), as Figure 9–12 run.
#include <algorithm>

#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;

core::ExecutionReport RunSssp(const TestDataset& t,
                              const core::EngineOptions& options) {
  core::GraphSDEngine engine(*t.dataset, options);
  algos::Sssp sssp(0);
  return ValueOrDie(engine.Run(sssp));
}

core::ExecutionReport RunPr(const TestDataset& t,
                            const core::EngineOptions& options,
                            std::uint32_t iterations) {
  core::GraphSDEngine engine(*t.dataset, options);
  algos::PageRank pr(iterations);
  return ValueOrDie(engine.Run(pr));
}

class AblationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 10;
    o.edge_factor = 8;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 6);
  }
  TempDir dir_;
  TestDataset t_;
};

// Cross-iteration halves PageRank's loading rounds (2 iterations/round).
TEST_F(AblationTest, CrossIterationHalvesPageRankRounds) {
  core::EngineOptions with = core::PaperEngineOptions();
  core::EngineOptions without = core::PaperEngineOptions();
  without.enable_cross_iteration = false;
  const auto r_with = RunPr(t_, with, 6);
  const auto r_without = RunPr(t_, without, 6);
  EXPECT_EQ(r_with.rounds, 3u);
  EXPECT_EQ(r_without.rounds, 6u);
  EXPECT_EQ(r_with.iterations, 6u);
  EXPECT_EQ(r_without.iterations, 6u);
}

// ...and reduces PageRank read traffic (each FCIU round reads at most the
// full grid + secondary half instead of two full grids).
TEST_F(AblationTest, CrossIterationReducesPageRankReadBytes) {
  core::EngineOptions with = core::PaperEngineOptions();
  core::EngineOptions without = core::PaperEngineOptions();
  without.enable_cross_iteration = false;
  without.enable_buffering = false;
  core::EngineOptions with_nobuf = core::PaperEngineOptions();
  with_nobuf.enable_buffering = false;
  const auto r_with = RunPr(t_, with_nobuf, 6);
  const auto r_without = RunPr(t_, without, 6);
  EXPECT_LT(r_with.io.TotalReadBytes(), r_without.io.TotalReadBytes());
}

// Selective processing reduces SSSP traffic versus always-full (b2).
TEST_F(AblationTest, SelectiveReducesSsspTraffic) {
  core::EngineOptions gsd = core::PaperEngineOptions();
  core::EngineOptions b2 = core::PaperEngineOptions();
  b2.enable_selective = false;
  const auto r_gsd = RunSssp(t_, gsd);
  const auto r_b2 = RunSssp(t_, b2);
  EXPECT_LT(r_gsd.io.TotalReadBytes(), r_b2.io.TotalReadBytes());
  EXPECT_LT(r_gsd.io_seconds, r_b2.io_seconds);
}

// GraphSD (both mechanisms) beats both single-mechanism ablations on
// modeled time — the Figure 9 ordering.
TEST_F(AblationTest, Figure9Ordering) {
  core::EngineOptions gsd = core::PaperEngineOptions();
  core::EngineOptions b1 = core::PaperEngineOptions();
  b1.enable_cross_iteration = false;
  core::EngineOptions b2 = core::PaperEngineOptions();
  b2.enable_selective = false;
  const auto r_gsd = RunSssp(t_, gsd);
  const auto r_b1 = RunSssp(t_, b1);
  const auto r_b2 = RunSssp(t_, b2);
  EXPECT_LE(r_gsd.io_seconds, r_b1.io_seconds * 1.001);
  EXPECT_LT(r_gsd.io_seconds, r_b2.io_seconds);
}

// The adaptive scheduler must match or beat both forced models (Fig. 10).
TEST_F(AblationTest, AdaptiveBeatsForcedModels) {
  core::EngineOptions adaptive = core::PaperEngineOptions();
  core::EngineOptions b3 = core::PaperEngineOptions();  // always full
  b3.enable_selective = false;
  core::EngineOptions b4 = core::PaperEngineOptions();  // always on-demand
  b4.force_on_demand = true;
  const auto r_adaptive = RunSssp(t_, adaptive);
  const auto r_b3 = RunSssp(t_, b3);
  const auto r_b4 = RunSssp(t_, b4);
  EXPECT_LE(r_adaptive.io_seconds,
            std::min(r_b3.io_seconds, r_b4.io_seconds) * 1.10);
}

// Buffering serves secondary sub-blocks from memory (Fig. 12 mechanism).
TEST_F(AblationTest, BufferingProducesHitsAndSavesReads) {
  core::EngineOptions with = core::PaperEngineOptions();
  with.enable_selective = false;  // force FCIU rounds so the buffer matters
  with.buffer_capacity_bytes = 1 << 26;  // roomy: every secondary fits
  core::EngineOptions without = with;
  without.enable_buffering = false;
  const auto r_with = RunPr(t_, with, 6);
  const auto r_without = RunPr(t_, without, 6);
  EXPECT_GT(r_with.buffer_hits, 0u);
  EXPECT_EQ(r_without.buffer_hits, 0u);
  EXPECT_LT(r_with.io.TotalReadBytes(), r_without.io.TotalReadBytes());
  EXPECT_GT(r_with.buffer_bytes_saved, 0u);
}

// A tiny buffer cannot help much but must not break anything.
TEST_F(AblationTest, TinyBufferDegradesGracefully) {
  core::EngineOptions tiny = core::PaperEngineOptions();
  tiny.enable_selective = false;
  tiny.buffer_capacity_bytes = 64;
  const auto report = RunPr(t_, tiny, 4);
  EXPECT_EQ(report.iterations, 4u);
}

// The scheduler's decision column must be consistent with its own cost
// estimates in every recorded round.
TEST_F(AblationTest, RecordedDecisionsMatchCostEstimates) {
  core::EngineOptions options = core::PaperEngineOptions();
  const auto report = RunSssp(t_, options);
  for (const auto& round : report.per_round) {
    if (round.model == core::RoundModel::kSkipped) continue;
    if (round.cost_full == 0 && round.cost_on_demand == 0) continue;
    if (round.model == core::RoundModel::kSciu) {
      EXPECT_LE(round.cost_on_demand, round.cost_full);
    } else {
      EXPECT_GT(round.cost_on_demand, round.cost_full);
    }
  }
}

// ...and under resident state (the default), where the semi-external model
// is a third choice: a semi round was strictly cheaper than both paper
// models, any other round's model was the cheaper of the two and no
// costlier than the semi one.
TEST_F(AblationTest, RecordedDecisionsMatchCostEstimatesResident) {
  core::EngineOptions options;
  options.overlap_io = false;  // decide on the serial costs recorded
  const auto report = RunSssp(t_, options);
  for (const auto& round : report.per_round) {
    if (round.model == core::RoundModel::kSkipped) continue;
    if (round.model == core::RoundModel::kSemi) {
      EXPECT_LT(round.cost_semi,
                std::min(round.cost_on_demand, round.cost_full));
    } else if (round.model == core::RoundModel::kSciu) {
      EXPECT_LE(round.cost_on_demand, round.cost_full);
      EXPECT_LE(round.cost_on_demand, round.cost_semi);
    } else {
      EXPECT_GT(round.cost_on_demand, round.cost_full);
      EXPECT_LE(round.cost_full, round.cost_semi);
    }
  }
}

// Scheduler overhead is tiny compared to the I/O it saves (Fig. 11 shape).
TEST_F(AblationTest, SchedulerOverheadIsNegligible) {
  core::EngineOptions adaptive = core::PaperEngineOptions();
  core::EngineOptions b3 = core::PaperEngineOptions();
  b3.enable_selective = false;
  const auto r_adaptive = RunSssp(t_, adaptive);
  const auto r_b3 = RunSssp(t_, b3);
  const double saved = r_b3.io_seconds - r_adaptive.io_seconds;
  EXPECT_GT(saved, 0.0);
  EXPECT_LT(r_adaptive.scheduler_seconds, saved / 10);
}

}  // namespace
}  // namespace graphsd
