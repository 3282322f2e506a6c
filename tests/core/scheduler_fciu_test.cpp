// The FCIU-aware full-cost estimate and the per-run request model
// (DESIGN.md §5.9).
#include <gtest/gtest.h>

#include "algos/sssp.hpp"
#include "core/engine.hpp"
#include "core/scheduler.hpp"
#include "graph/generators.hpp"
#include "testing_util.hpp"

namespace graphsd::core {
namespace {

using graphsd::testing::BuildTestGrid;
using graphsd::testing::TempDir;
using graphsd::testing::ValueOrDie;

class SchedulerFciuTest : public ::testing::Test {
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

// Per iteration, an FCIU round (1 + secondary-fraction scans over two
// iterations) is cheaper than a plain full iteration whenever the
// secondary fraction is below 1 — which the 2-D grid guarantees.
TEST_F(SchedulerFciuTest, FciuFullCostBelowPlainFullCost) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::ScaledHdd());
  Frontier active(dataset_->num_vertices());
  active.ActivateAll();
  const auto plain = scheduler.Evaluate(active, 8, false, false);
  const auto fciu = scheduler.Evaluate(active, 8, false, true);
  EXPECT_LT(fciu.cost_full, plain.cost_full);
  EXPECT_GT(fciu.cost_full, plain.cost_full / 2);  // secondary reload > 0
  // C_r is unaffected by the flag.
  EXPECT_DOUBLE_EQ(fciu.cost_on_demand, plain.cost_on_demand);
}

// The FCIU amortization can flip a borderline decision toward full I/O.
TEST_F(SchedulerFciuTest, AmortizationShiftsCrossover) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::ScaledHdd());
  // Grow the frontier until the plain rule picks on-demand but the FCIU
  // rule picks full; such a band must exist between the two thresholds.
  bool found_band = false;
  for (std::uint64_t count = 1; count <= dataset_->num_vertices();
       count *= 2) {
    Frontier active(dataset_->num_vertices());
    for (std::uint64_t k = 0; k < count; ++k) {
      active.Activate(static_cast<VertexId>(
          (k * 2654435761u) % dataset_->num_vertices()));
    }
    const auto plain = scheduler.Evaluate(active, 8, false, false);
    const auto fciu = scheduler.Evaluate(active, 8, false, true);
    if (plain.on_demand && !fciu.on_demand) found_band = true;
    // Never the other way around: FCIU only lowers C_s.
    EXPECT_FALSE(!plain.on_demand && fciu.on_demand);
  }
  EXPECT_TRUE(found_band);
}

// A single heavy hub (one run, many edges) must be estimated as few
// requests — its edge list streams — while the same edges scattered over
// many vertices cost many requests.
TEST_F(SchedulerFciuTest, RequestModelDistinguishesHubFromScatter) {
  StateAwareScheduler scheduler(*dataset_, io::IoCostModel::ScaledHdd());
  const auto& degrees = dataset_->out_degrees();
  VertexId hub = 0;
  for (VertexId v = 1; v < dataset_->num_vertices(); ++v) {
    if (degrees[v] > degrees[hub]) hub = v;
  }
  Frontier hub_only(dataset_->num_vertices());
  hub_only.Activate(hub);
  const auto hub_decision = scheduler.Evaluate(hub_only, 8, false);

  // Scatter edges across many isolated vertices: many runs, each its own
  // set of requests. The hub is a single run regardless of its edge count.
  Frontier scattered(dataset_->num_vertices());
  std::uint64_t scattered_edges = 0;
  for (VertexId v = 0; v < dataset_->num_vertices(); v += 16) {
    if (degrees[v] == 0) continue;
    scattered.Activate(v);
    scattered_edges += degrees[v];
  }
  ASSERT_GT(scattered_edges, degrees[hub]);
  const auto scatter_decision = scheduler.Evaluate(scattered, 8, false);
  EXPECT_EQ(hub_decision.random_requests, 1u);
  EXPECT_GT(scatter_decision.random_requests,
            10 * hub_decision.random_requests);
  EXPECT_GT(scatter_decision.cost_on_demand, hub_decision.cost_on_demand);
}

// Estimate tracks reality: force an on-demand run and compare the
// scheduler's C_r with the modeled I/O the round actually incurred.
TEST_F(SchedulerFciuTest, OnDemandEstimateTracksActualCost) {
  // Use the engine itself: run SSSP with forced on-demand and check each
  // recorded round's estimate against its actual modeled io time.
  auto sim = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
  TempDir dir2;
  RmatOptions options;
  options.scale = 10;
  options.edge_factor = 8;
  options.max_weight = 10.0;
  const EdgeList weighted = GenerateRmat(options);
  BuildTestGrid(weighted, *sim, dir2.Sub("w"), 4);
  const auto ds = ValueOrDie(partition::GridDataset::Open(*sim, dir2.Sub("w")));

  // The paper's C_r, |V|·N values terms included (out-of-core state).
  core::EngineOptions engine_options = core::PaperEngineOptions();
  engine_options.force_on_demand = true;
  GraphSDEngine engine(ds, engine_options);
  algos::Sssp sssp(0);
  const auto report = ValueOrDie(engine.Run(sssp));
  int scored = 0;
  for (const auto& round : report.per_round) {
    if (round.model != RoundModel::kSciu || round.io_seconds < 1e-4) continue;
    ++scored;
    const double ratio = round.cost_on_demand / round.io_seconds;
    EXPECT_GT(ratio, 0.4) << "round at iteration " << round.first_iteration;
    EXPECT_LT(ratio, 4.0) << "round at iteration " << round.first_iteration;
  }
  EXPECT_GT(scored, 0);
}

}  // namespace
}  // namespace graphsd::core
