// The Lumos-specific modeling knobs: propagation materialization I/O and
// the layout independence of the baseline.
#include <gtest/gtest.h>

#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::ExpectValuesNear;
using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

class LumosModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 9;
    o.edge_factor = 8;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 4);
  }
  TempDir dir_;
  TestDataset t_;
};

// Propagation materialization adds exactly |V|·N write + read per
// cross-iteration round and nothing else.
TEST_F(LumosModelTest, PropagationIoChargedPerFciuRound) {
  core::EngineOptions base = core::PaperEngineOptions();  // as Lumos runs
  base.enable_selective = false;
  base.enable_buffering = false;
  core::EngineOptions lumosish = base;
  lumosish.model_lumos_propagation = true;

  algos::PageRank pr(6);  // 3 FCIU rounds
  core::GraphSDEngine plain_engine(*t_.dataset, base);
  const auto plain = ValueOrDie(plain_engine.Run(pr));
  core::GraphSDEngine prop_engine(*t_.dataset, lumosish);
  const auto prop = ValueOrDie(prop_engine.Run(pr));

  const std::uint64_t values_bytes =
      static_cast<std::uint64_t>(t_.dataset->num_vertices()) * 8;
  EXPECT_EQ(prop.io.TotalWriteBytes() - plain.io.TotalWriteBytes(),
            3 * values_bytes);
  EXPECT_EQ(prop.io.TotalReadBytes() - plain.io.TotalReadBytes(),
            3 * values_bytes);
  EXPECT_GT(prop.io_seconds, plain.io_seconds);
}

// Plain rounds (no cross-iteration) charge no propagation I/O even when
// the flag is set.
TEST_F(LumosModelTest, NoChargeOnPlainRounds) {
  core::EngineOptions options = core::PaperEngineOptions();  // as Lumos runs
  options.enable_selective = false;
  options.enable_buffering = false;
  options.enable_cross_iteration = false;  // plain rounds only
  options.model_lumos_propagation = true;
  core::EngineOptions reference = options;
  reference.model_lumos_propagation = false;

  algos::PageRank pr(4);
  core::GraphSDEngine a(*t_.dataset, options);
  core::GraphSDEngine b(*t_.dataset, reference);
  const auto with_flag = ValueOrDie(a.Run(pr));
  const auto without = ValueOrDie(b.Run(pr));
  EXPECT_EQ(with_flag.io.TotalBytes(), without.io.TotalBytes());
}

// Propagation I/O is pure accounting: results are unchanged.
TEST_F(LumosModelTest, ResultsUnaffectedByPropagationModeling) {
  const auto reference = ReferenceSssp(t_.graph, 0);
  baselines::LumosEngine engine(*t_.dataset);
  algos::Sssp sssp(0);
  (void)ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
}

// The Lumos baseline runs identically on its own (unsorted, index-free)
// layout — the engine never touches the index under always-full I/O.
TEST_F(LumosModelTest, RunsOnItsOwnUnsortedLayout) {
  TempDir dir2;
  auto device = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
  partition::GridBuildOptions build;
  build.num_intervals = 4;
  build.sort_sub_blocks = false;
  build.build_index = false;
  (void)ValueOrDie(partition::BuildGrid(t_.graph, *device, dir2.Sub("lumos"),
                                        build));
  const auto ds =
      ValueOrDie(partition::GridDataset::Open(*device, dir2.Sub("lumos")));
  const auto reference = ReferenceSssp(t_.graph, 0);
  baselines::LumosEngine engine(ds);
  algos::Sssp sssp(0);
  (void)ValueOrDie(engine.Run(sssp));
  ExpectValuesNear(Values(sssp, *engine.state()), reference, 1e-9);
}

// Sorted vs unsorted layout must not change Lumos's edge traffic (it
// streams whole sub-blocks either way).
TEST_F(LumosModelTest, SortedAndUnsortedLayoutsCostTheSame) {
  TempDir dir2;
  auto device = io::MakeSimulatedDevice(io::IoCostModel::ScaledHdd());
  partition::GridBuildOptions build;
  build.num_intervals = 4;
  build.sort_sub_blocks = false;
  build.build_index = false;
  (void)ValueOrDie(partition::BuildGrid(t_.graph, *device, dir2.Sub("lumos"),
                                        build));
  const auto unsorted_ds =
      ValueOrDie(partition::GridDataset::Open(*device, dir2.Sub("lumos")));

  algos::PageRank pr(4);
  baselines::LumosEngine on_unsorted(unsorted_ds);
  const auto unsorted_report = ValueOrDie(on_unsorted.Run(pr));
  baselines::LumosEngine on_sorted(*t_.dataset);
  algos::PageRank pr2(4);
  const auto sorted_report = ValueOrDie(on_sorted.Run(pr2));
  EXPECT_EQ(unsorted_report.io.TotalReadBytes(),
            sorted_report.io.TotalReadBytes());
}

}  // namespace
}  // namespace graphsd
