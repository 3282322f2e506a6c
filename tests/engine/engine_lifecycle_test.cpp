// Run-lifecycle acceptance tests (DESIGN.md §12): cooperative cancellation
// always lands on a committed iteration boundary, checkpoints resume
// bit-identically, damaged slots fall back or surface kCorruptData, and
// mismatched resume preconditions are refused — never silently executed.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "engine_test_util.hpp"
#include "io/file.hpp"
#include "util/cancellation.hpp"

namespace graphsd {
namespace {

using testing::MakeDataset;
using testing::TempDir;
using testing::TestDataset;
using testing::ValueOrDie;
using testing::Values;

class EngineLifecycleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RmatOptions o;
    o.scale = 7;
    o.edge_factor = 6;
    o.max_weight = 5.0;
    t_ = MakeDataset(GenerateRmat(o), dir_.Sub("ds"), 3);
  }

  /// Deterministic lifecycle options: serial accounting, so
  /// killed + resumed replays the uninterrupted run bit-for-bit.
  core::EngineOptions Opts() const {
    core::EngineOptions options;
    options.overlap_io = false;
    return options;
  }

  std::string CheckpointDir() const { return dir_.Sub("ck"); }

  static void ExpectBitwiseEqual(const std::vector<double>& got,
                                 const std::vector<double>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t v = 0; v < got.size(); ++v) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[v]),
                std::bit_cast<std::uint64_t>(want[v]))
          << "vertex " << v;
    }
  }

  TempDir dir_;
  TestDataset t_;
};

TEST_F(EngineLifecycleTest, KillAtBoundaryThenResumeIsBitIdentical) {
  for (const bool resident : {false, true}) {
    SCOPED_TRACE(resident ? "resident" : "paper");
    core::EngineOptions options = Opts();
    options.semi_external = resident;
    // Uninterrupted baseline, recording its committed boundaries.
    std::vector<std::uint32_t> boundaries;
    core::EngineOptions base_options = options;
    base_options.frontier_probe = [&boundaries](std::uint32_t next_iteration,
                                                const core::Frontier&) {
      boundaries.push_back(next_iteration);
    };
    core::GraphSDEngine baseline(*t_.dataset, base_options);
    algos::Bfs bfs_base(0);
    const auto base_report = ValueOrDie(baseline.Run(bfs_base));
    const std::vector<double> expect = Values(bfs_base, *baseline.state());
    ASSERT_GT(base_report.iterations, 3u);
    // A round covers one or two iterations: the kill lands on the first
    // boundary at or past 2 — exactly 2 under the paper's schedule.
    const std::uint32_t kill_boundary =
        *std::find_if(boundaries.begin(), boundaries.end(),
                      [](std::uint32_t b) { return b >= 2; });
    if (!resident) {
      EXPECT_EQ(kill_boundary, 2u);
    }

    // Killed run: the frontier probe trips the token entering iteration 2;
    // prefetch depth 4 keeps in-flight I/O live across the cancellation so
    // the drain path is exercised too.
    CancellationToken token;
    core::EngineOptions killed_options = options;
    killed_options.prefetch_depth = 4;
    killed_options.checkpoint_dir = CheckpointDir() + (resident ? "r" : "p");
    killed_options.cancel = &token;
    killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                             const core::Frontier&) {
      if (next_iteration >= 2) token.Cancel("test kill");
    };
    core::GraphSDEngine killed(*t_.dataset, killed_options);
    algos::Bfs bfs_killed(0);
    const auto killed_report = ValueOrDie(killed.Run(bfs_killed));
    EXPECT_TRUE(killed_report.cancelled);
    EXPECT_EQ(killed_report.cancel_reason, "test kill");
    EXPECT_EQ(killed_report.iterations, kill_boundary);
    EXPECT_GT(killed_report.checkpoints_written, 0u);

    // Resume to completion.
    core::EngineOptions resume_options = options;
    resume_options.prefetch_depth = 4;
    resume_options.checkpoint_dir = killed_options.checkpoint_dir;
    resume_options.resume = true;
    core::GraphSDEngine resumed(*t_.dataset, resume_options);
    algos::Bfs bfs_resumed(0);
    const auto resume_report = ValueOrDie(resumed.Run(bfs_resumed));
    EXPECT_FALSE(resume_report.cancelled);
    EXPECT_TRUE(resume_report.resumed);
    EXPECT_EQ(resume_report.resume_iteration, kill_boundary);
    EXPECT_EQ(resume_report.iterations, base_report.iterations);
    ExpectBitwiseEqual(Values(bfs_resumed, *resumed.state()), expect);
  }
}

TEST_F(EngineLifecycleTest, PreCancelledTokenStopsBeforeAnyRound) {
  CancellationToken token;
  token.Cancel("already stopped");
  core::EngineOptions options = Opts();
  options.cancel = &token;
  options.checkpoint_dir = CheckpointDir();
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.cancel_reason, "already stopped");
  EXPECT_EQ(report.iterations, 0u);
  EXPECT_EQ(report.checkpoints_written, 0u);
}

TEST_F(EngineLifecycleTest, GatherDeadlineKillThenResumeCompletesBudget) {
  core::GraphSDEngine baseline(*t_.dataset, Opts());
  algos::PageRank pr_base(10);
  const auto base_report = ValueOrDie(baseline.Run(pr_base));
  ASSERT_EQ(base_report.iterations, 10u);
  const std::vector<double> expect = Values(pr_base, *baseline.state());

  // The deadline may fire at any boundary (or never, on a fast machine) —
  // either way the resumed run must finish the budget bit-identically.
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.deadline_seconds = 1e-4;
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::PageRank pr_killed(10);
  const auto killed_report = ValueOrDie(killed.Run(pr_killed));
  if (killed_report.cancelled) {
    EXPECT_EQ(killed_report.cancel_reason, "deadline exceeded");
    EXPECT_LT(killed_report.iterations, 10u);
  }

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::PageRank pr_resumed(10);
  const auto resume_report = ValueOrDie(resumed.Run(pr_resumed));
  EXPECT_FALSE(resume_report.cancelled);
  EXPECT_EQ(resume_report.iterations, 10u);
  ExpectBitwiseEqual(Values(pr_resumed, *resumed.state()), expect);
}

// Forwards to a PageRank and trips `token` right after its `trip_at`-th
// Finalize call — after a column's new values are written, so the round is
// cancelled with the value array already changed. Keeps a copy of the
// values at that moment.
class TripAfterFinalize final : public core::GatherProgram {
 public:
  TripAfterFinalize(CancellationToken* token, int trip_at)
      : token_(token), trip_at_(trip_at) {}

  std::string name() const override { return inner_.name(); }
  std::uint32_t num_value_arrays() const override {
    return inner_.num_value_arrays();
  }
  std::uint32_t max_iterations() const override {
    return inner_.max_iterations();
  }
  void Bind(const std::vector<std::uint32_t>& out_degrees) override {
    inner_.Bind(out_degrees);
  }
  void Init(core::VertexState& state, core::Frontier& initial) override {
    inner_.Init(state, initial);
  }
  double ValueOf(const core::VertexState& state, VertexId v) const override {
    return inner_.ValueOf(state, v);
  }
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override {
    inner_.MakeContribution(state, v, slot);
  }
  void ResetAccum(core::VertexState& state, core::AccumSlot a) const override {
    inner_.ResetAccum(state, a);
  }
  void Accumulate(core::VertexState& state, VertexId src, VertexId dst,
                  Weight w, core::ContribSlot c,
                  core::AccumSlot a) const override {
    inner_.Accumulate(state, src, dst, w, c, a);
  }
  void Finalize(core::VertexState& state, VertexId begin, VertexId end,
                core::AccumSlot a) const override {
    inner_.Finalize(state, begin, end, a);
    if (++calls_ == trip_at_) {
      at_trip_ = Values(inner_, state);
      token_->Cancel("test kill");
    }
  }

  const std::vector<double>& at_trip() const { return at_trip_; }

 private:
  algos::PageRank inner_{6};
  CancellationToken* token_;
  int trip_at_;
  mutable int calls_ = 0;
  mutable std::vector<double> at_trip_;
};

TEST_F(EngineLifecycleTest, GatherMidRoundCancelRollsBackToBoundary) {
  // P = 3, cross-iteration on: a round of two iterations finalizes one
  // column of kA per interval, then kB. The 5th Finalize is round 2's
  // first column, so the cancel lands mid-round with new values written.
  ASSERT_EQ(t_.dataset->manifest().p, 3u);
  for (const bool resident : {true, false}) {
    SCOPED_TRACE(resident ? "resident" : "paper");
    core::EngineOptions options = Opts();
    options.semi_external = resident;

    core::GraphSDEngine full(*t_.dataset, options);
    algos::PageRank pr_full(6);
    (void)ValueOrDie(full.Run(pr_full));
    const std::vector<double> expect = Values(pr_full, *full.state());
    core::EngineOptions two = options;
    two.max_iterations = 2;
    core::GraphSDEngine boundary_engine(*t_.dataset, two);
    algos::PageRank pr_boundary(6);
    (void)ValueOrDie(boundary_engine.Run(pr_boundary));
    const std::vector<double> boundary =
        Values(pr_boundary, *boundary_engine.state());

    TempDir scratch;
    CancellationToken token;
    core::EngineOptions killed_options = options;
    killed_options.checkpoint_dir = CheckpointDir() + (resident ? "r" : "p");
    killed_options.scratch_dir = scratch.path();
    killed_options.cancel = &token;
    core::GraphSDEngine killed(*t_.dataset, killed_options);
    TripAfterFinalize tripping(&token, 5);
    const auto killed_report = ValueOrDie(killed.Run(tripping));
    ASSERT_TRUE(killed_report.cancelled);
    EXPECT_EQ(killed_report.iterations, 2u);
    ASSERT_EQ(tripping.at_trip().size(), boundary.size());
    EXPECT_NE(tripping.at_trip(), boundary) << "the cancel did not land "
                                               "after a column's values "
                                               "changed";
    ExpectBitwiseEqual(Values(tripping, *killed.state()), boundary);
    const std::string file = ValueOrDie(
        io::ReadFileToString(scratch.path() + "/values_pagerank.bin"));
    std::vector<double> on_disk(file.size() / sizeof(double));
    std::memcpy(on_disk.data(), file.data(), file.size());
    ExpectBitwiseEqual(on_disk, boundary);

    core::EngineOptions resume_options = options;
    resume_options.checkpoint_dir = killed_options.checkpoint_dir;
    resume_options.resume = true;
    core::GraphSDEngine resumed(*t_.dataset, resume_options);
    algos::PageRank pr_resumed(6);
    const auto resume_report = ValueOrDie(resumed.Run(pr_resumed));
    EXPECT_TRUE(resume_report.resumed);
    EXPECT_EQ(resume_report.resume_iteration, 2u);
    EXPECT_EQ(resume_report.iterations, 6u);
    ExpectBitwiseEqual(Values(pr_resumed, *resumed.state()), expect);
  }
}

TEST_F(EngineLifecycleTest, ResumeFallsBackWhenNewestSlotIsDamaged) {
  core::GraphSDEngine baseline(*t_.dataset, Opts());
  algos::Sssp sssp_base(0);
  const auto base_report = ValueOrDie(baseline.Run(sssp_base));
  ASSERT_GT(base_report.iterations, 3u);
  const std::vector<double> expect = Values(sssp_base, *baseline.state());

  // Rounds can cover 1 or 2 iterations, so a kill lands at the first
  // committed boundary at or past `at`.
  const auto kill_at = [&](std::uint32_t at, bool resume) {
    CancellationToken token;
    core::EngineOptions options = Opts();
    options.checkpoint_dir = CheckpointDir();
    options.resume = resume;
    options.cancel = &token;
    options.frontier_probe = [&token, at](std::uint32_t next_iteration,
                                          const core::Frontier&) {
      if (next_iteration >= at) token.Cancel("test kill");
    };
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::Sssp sssp(0);
    return ValueOrDie(engine.Run(sssp));
  };
  // Two killed runs fill both slots whatever the timing: each run flushes
  // its final boundary before returning, but the boundaries in between may
  // be superseded in the async writer's latest-wins queue, so one run alone
  // may leave a single slot written. The resumed run's final boundary goes
  // to the slot not holding the first run's.
  const auto first_report = kill_at(2, false);
  ASSERT_TRUE(first_report.cancelled);
  const auto killed_report = kill_at(first_report.iterations + 1, true);
  ASSERT_TRUE(killed_report.cancelled);
  ASSERT_GT(killed_report.iterations, first_report.iterations);

  // Both slots hold committed boundaries. Truncate the newest (the one
  // matching the kill iteration): resume must fall back to the older
  // boundary and still land on identical final values.
  core::CheckpointStore store(CheckpointDir());
  for (int slot = 0; slot < 2; ++slot) {
    std::string data = ValueOrDie(io::ReadFileToString(store.SlotPath(slot)));
    auto cp = core::DecodeCheckpoint(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
    ASSERT_TRUE(cp.ok()) << cp.status().ToString();
    if (cp->iteration == killed_report.iterations) {
      ASSERT_OK(io::WriteStringToFile(store.SlotPath(slot),
                                      data.substr(0, data.size() / 2)));
    }
  }

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Sssp sssp_resumed(0);
  const auto resume_report = ValueOrDie(resumed.Run(sssp_resumed));
  EXPECT_TRUE(resume_report.resumed);
  EXPECT_LT(resume_report.resume_iteration, killed_report.iterations);
  EXPECT_EQ(resume_report.iterations, base_report.iterations);
  ExpectBitwiseEqual(Values(sssp_resumed, *resumed.state()), expect);
}

TEST_F(EngineLifecycleTest, ResumeWithAllSlotsCorruptFails) {
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 3) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs(0);
  ASSERT_TRUE(ValueOrDie(killed.Run(bfs)).cancelled);

  core::CheckpointStore store(CheckpointDir());
  for (int slot = 0; slot < 2; ++slot) {
    ASSERT_OK(io::WriteStringToFile(store.SlotPath(slot), "garbage"));
  }

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Bfs bfs2(0);
  EXPECT_EQ(resumed.Run(bfs2).status().code(), StatusCode::kCorruptData);
}

TEST_F(EngineLifecycleTest, ResumeRefusesDifferentAlgorithm) {
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 1) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs(0);
  ASSERT_TRUE(ValueOrDie(killed.Run(bfs)).cancelled);

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::ConnectedComponents cc;
  EXPECT_EQ(resumed.Run(cc).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineLifecycleTest, ResumeRefusesDifferentDataset) {
  CancellationToken token;
  core::EngineOptions killed_options = Opts();
  killed_options.checkpoint_dir = CheckpointDir();
  killed_options.cancel = &token;
  killed_options.frontier_probe = [&token](std::uint32_t next_iteration,
                                           const core::Frontier&) {
    if (next_iteration >= 1) token.Cancel("test kill");
  };
  core::GraphSDEngine killed(*t_.dataset, killed_options);
  algos::Bfs bfs(0);
  ASSERT_TRUE(ValueOrDie(killed.Run(bfs)).cancelled);

  // Same graph rebuilt with a different interval count: a different build,
  // a different fingerprint, a refused resume.
  TestDataset other = MakeDataset(t_.graph, dir_.Sub("ds2"), 2);
  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*other.dataset, resume_options);
  algos::Bfs bfs2(0);
  EXPECT_EQ(resumed.Run(bfs2).status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineLifecycleTest, ResumeAfterNaturalCompletionIsANoOp) {
  core::EngineOptions options = Opts();
  options.checkpoint_dir = CheckpointDir();
  core::GraphSDEngine first(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto first_report = ValueOrDie(first.Run(bfs));
  EXPECT_FALSE(first_report.cancelled);
  const std::vector<double> expect = Values(bfs, *first.state());

  core::EngineOptions resume_options = Opts();
  resume_options.checkpoint_dir = CheckpointDir();
  resume_options.resume = true;
  core::GraphSDEngine resumed(*t_.dataset, resume_options);
  algos::Bfs bfs2(0);
  const auto resume_report = ValueOrDie(resumed.Run(bfs2));
  EXPECT_TRUE(resume_report.resumed);
  EXPECT_FALSE(resume_report.cancelled);
  EXPECT_EQ(resume_report.iterations, first_report.iterations);
  ExpectBitwiseEqual(Values(bfs2, *resumed.state()), expect);
}

// Concurrency surface for the TSan build (tsan_buffer_cancel_smoke):
// SubBlockBuffer Get/Put/eviction on the compute threads racing the loader
// thread's cancellation drain. The killer thread trips the token at a
// different point each repetition; any outcome is valid as long as the run
// lands cleanly on a committed boundary with no data race.
TEST_F(EngineLifecycleTest, ConcurrentCancellationDuringBufferedPrefetch) {
  for (int rep = 0; rep < 10; ++rep) {
    CancellationToken token;
    core::EngineOptions options;
    options.prefetch_depth = 4;
    options.enable_selective = false;  // FCIU rounds keep the buffer hot
    options.cancel = &token;
    // Checkpointing makes the race three-way: compute threads, the async
    // checkpoint writer and the killer all overlap the cancellation drain.
    options.checkpoint_dir = CheckpointDir() + std::to_string(rep);
    core::GraphSDEngine engine(*t_.dataset, options);
    algos::PageRank pr(50);
    std::thread killer([&token, rep] {
      std::this_thread::sleep_for(std::chrono::microseconds(50 * rep * rep));
      token.Cancel("concurrent kill");
    });
    const auto report = ValueOrDie(engine.Run(pr));
    killer.join();
    EXPECT_LE(report.iterations, 50u);
    if (!report.cancelled) {
      EXPECT_EQ(report.iterations, 50u);
    }
  }
}

TEST_F(EngineLifecycleTest, ResumeOnEmptyDirectoryStartsFresh) {
  core::EngineOptions options = Opts();
  options.checkpoint_dir = CheckpointDir();
  options.resume = true;  // nothing on disk yet
  core::GraphSDEngine engine(*t_.dataset, options);
  algos::Bfs bfs(0);
  const auto report = ValueOrDie(engine.Run(bfs));
  EXPECT_FALSE(report.resumed);
  EXPECT_FALSE(report.cancelled);
  EXPECT_GT(report.iterations, 0u);
}

}  // namespace
}  // namespace graphsd
