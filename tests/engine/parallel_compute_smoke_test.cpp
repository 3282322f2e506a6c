// TSan smoke for the sharded parallel compute path: each executor — SCIU
// (on-demand), FCIU (full streaming) and semi-external — runs with eight
// worker threads and eight destination shards, driving the sharded apply,
// the loader-side frame decode and the checksum preverify concurrently, and
// must reproduce the single-threaded run bitwise. The programs combine with
// plain read-modify-writes (core/slot.hpp), so this is the check that
// shards really own disjoint destinations: SSSP (min push), PageRank-Delta
// (sum push) and PageRank (gather). The dataset is sized so that at least
// one sub-block exceeds the parallel grain — below it the sharded apply
// takes its serial fallback and nothing would run concurrently. Registered
// in tests/CMakeLists.txt as tsan_parallel_compute_smoke so the
// thread-sanitized CI tier covers the compute fan-out without paying for
// the full suite.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/exec_context.hpp"
#include "engine_test_util.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

constexpr std::uint32_t kIntervals = 4;
constexpr std::size_t kShards = 8;

class ParallelComputeSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 12;
    o.edge_factor = 24;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), kIntervals,
                     "varint-delta");
    const auto& manifest = t_.dataset->manifest();
    std::uint64_t largest = 0;
    for (std::uint32_t i = 0; i < kIntervals; ++i) {
      for (std::uint32_t j = 0; j < kIntervals; ++j) {
        largest = std::max(largest, manifest.EdgesIn(i, j));
      }
    }
    ASSERT_GT(largest, core::ExecContext{}.parallel_grain)
        << "no sub-block reaches the parallel grain: every sharded apply "
           "would take the serial fallback";
  }

  // Runs a fresh program from `make` with `threads` workers and as many
  // destination shards, the round model pinned to `forced`.
  template <typename MakeProgram>
  std::vector<double> RunWith(MakeProgram make, core::RoundModelChoice forced,
                              std::size_t threads) {
    core::EngineOptions options;
    options.num_threads = threads;
    options.compute_threads = threads;
    options.semi_external = forced == core::RoundModelChoice::kSemi;
    options.model_override = [forced](std::uint32_t) { return forced; };
    core::GraphSDEngine engine(*t_.dataset, options);
    auto program = make();
    (void)ValueOrDie(engine.Run(program));
    return Values(program, *engine.state());
  }

  template <typename MakeProgram>
  void ExpectShardedBitIdentical(MakeProgram make,
                                 core::RoundModelChoice forced) {
    const std::vector<double> serial = RunWith(make, forced, 1);
    const std::vector<double> sharded = RunWith(make, forced, kShards);
    ASSERT_EQ(sharded.size(), serial.size());
    for (std::size_t v = 0; v < sharded.size(); ++v) {
      ASSERT_EQ(sharded[v], serial[v]) << "vertex " << v;
    }
  }

  static algos::Sssp MakeSssp() { return algos::Sssp(0); }
  static algos::PageRankDelta MakePageRankDelta() {
    return algos::PageRankDelta(1e-2, 0.85, 8, /*relative_epsilon=*/true);
  }
  static algos::PageRank MakePageRank() { return algos::PageRank(4); }

  TempDir dir_;
  TestDataset t_;
};

TEST_F(ParallelComputeSmoke, SciuEightShardsBitIdentical) {
  ExpectShardedBitIdentical(MakeSssp, core::RoundModelChoice::kOnDemand);
  ExpectShardedBitIdentical(MakePageRankDelta,
                            core::RoundModelChoice::kOnDemand);
}

TEST_F(ParallelComputeSmoke, FciuEightShardsBitIdentical) {
  ExpectShardedBitIdentical(MakeSssp, core::RoundModelChoice::kFull);
  ExpectShardedBitIdentical(MakePageRankDelta, core::RoundModelChoice::kFull);
}

TEST_F(ParallelComputeSmoke, SemiEightShardsBitIdentical) {
  ExpectShardedBitIdentical(MakeSssp, core::RoundModelChoice::kSemi);
  ExpectShardedBitIdentical(MakePageRankDelta, core::RoundModelChoice::kSemi);
}

TEST_F(ParallelComputeSmoke, GatherEightShardsBitIdentical) {
  ExpectShardedBitIdentical(MakePageRank, core::RoundModelChoice::kAuto);
}

}  // namespace
}  // namespace graphsd
