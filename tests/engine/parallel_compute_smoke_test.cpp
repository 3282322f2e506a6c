// TSan smoke for the work that runs beside the engine thread: with a
// prefetch pipeline, FCIU, semi-external and SCIU's compressed passes read
// on the loader thread and decode GSDF frames on the decode pool while the
// engine thread applies earlier units. Each executor — SCIU (on-demand),
// FCIU (full streaming), semi-external and the gather path — runs on a
// varint-delta dataset with prefetch depth 4 and must reproduce the
// synchronous (depth 0) run bitwise: SSSP (min push), PageRank-Delta (sum
// push) and PageRank (gather). Depth 4 runs once with the pipeline the
// engine sizes for this host and once through a shared pipeline whose
// decode pool is pinned to three threads, so the pool is exercised on any
// host. Registered in tests/CMakeLists.txt as tsan_parallel_compute_smoke
// so the thread-sanitized CI tier covers the hand-off without paying for
// the full suite.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "engine_test_util.hpp"
#include "io/prefetch.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::Values;
using testing::ValueOrDie;

constexpr std::uint32_t kIntervals = 4;
constexpr std::size_t kPrefetchDepth = 4;
constexpr std::size_t kDecodeThreads = 3;

class ParallelComputeSmoke : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 12;
    o.edge_factor = 24;
    o.max_weight = 10.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), kIntervals,
                     "varint-delta");
  }

  // Runs a fresh program from `make` at prefetch depth `depth`, the round
  // model pinned to `forced`.
  template <typename MakeProgram>
  std::vector<double> RunWith(MakeProgram make, core::RoundModelChoice forced,
                              std::size_t depth,
                              io::PrefetchPipeline* shared = nullptr) {
    core::EngineOptions options;
    options.prefetch_depth = depth;
    options.shared_prefetch = shared;
    options.semi_external = forced == core::RoundModelChoice::kSemi;
    options.model_override = [forced](std::uint32_t) { return forced; };
    core::GraphSDEngine engine(*t_.dataset, options);
    auto program = make();
    (void)ValueOrDie(engine.Run(program));
    return Values(program, *engine.state());
  }

  template <typename MakeProgram>
  void ExpectPrefetchedBitIdentical(MakeProgram make,
                                    core::RoundModelChoice forced) {
    const std::vector<double> sync = RunWith(make, forced, 0);
    io::PrefetchPipeline pinned(kPrefetchDepth, kDecodeThreads);
    io::PrefetchPipeline* const pipelines[] = {nullptr, &pinned};
    for (io::PrefetchPipeline* shared : pipelines) {
      const std::vector<double> prefetched =
          RunWith(make, forced, kPrefetchDepth, shared);
      ASSERT_EQ(prefetched.size(), sync.size());
      for (std::size_t v = 0; v < prefetched.size(); ++v) {
        ASSERT_EQ(prefetched[v], sync[v])
            << "vertex " << v << (shared != nullptr ? " (pinned pool)" : "");
      }
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

TEST_F(ParallelComputeSmoke, SciuPrefetchedBitIdentical) {
  ExpectPrefetchedBitIdentical(MakeSssp, core::RoundModelChoice::kOnDemand);
  ExpectPrefetchedBitIdentical(MakePageRankDelta,
                               core::RoundModelChoice::kOnDemand);
}

TEST_F(ParallelComputeSmoke, FciuPrefetchedBitIdentical) {
  ExpectPrefetchedBitIdentical(MakeSssp, core::RoundModelChoice::kFull);
  ExpectPrefetchedBitIdentical(MakePageRankDelta,
                               core::RoundModelChoice::kFull);
}

TEST_F(ParallelComputeSmoke, SemiPrefetchedBitIdentical) {
  ExpectPrefetchedBitIdentical(MakeSssp, core::RoundModelChoice::kSemi);
  ExpectPrefetchedBitIdentical(MakePageRankDelta,
                               core::RoundModelChoice::kSemi);
}

TEST_F(ParallelComputeSmoke, GatherPrefetchedBitIdentical) {
  ExpectPrefetchedBitIdentical(MakePageRank, core::RoundModelChoice::kAuto);
}

}  // namespace
}  // namespace graphsd
