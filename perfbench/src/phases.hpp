// The harness's two phases and the pieces the measuring workloads share.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attribution.hpp"
#include "bench_util.hpp"
#include "core/program.hpp"
#include "core/report.hpp"
#include "layer_probes.hpp"
#include "partition/grid_dataset.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Generates the workload's edge file and reference answers into `dir`.
graphsd::Status Prepare(const Workload& workload, std::uint64_t seed,
                        const std::string& dir);

struct MeasureOptions {
  Workload workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string dir;  // holds what Prepare wrote; scratch space too
  std::string self_path;  // this binary, for spawning child processes
  bool window = false;    // clients phase: the measured window, not warm-up
};

/// A batch workload: engine jobs back to back.
graphsd::Result<RunResult> MeasureBatch(const MeasureOptions& options);

/// A batch workload's footprint process: one engine job on the dataset
/// MeasureBatch built, with glibc's mmap threshold fixed from the start;
/// its peak resident set, exact counts and check go into `options.dir`.
graphsd::Status RunFootprint(const MeasureOptions& options);

/// serve-bfs: the query server driven over its unix socket.
graphsd::Result<RunResult> MeasureServe(const MeasureOptions& options);

/// serve-bfs's client process: the warm-up or the window's closed-loop
/// connections, results written into `options.dir` for MeasureServe.
graphsd::Status RunServeClients(const MeasureOptions& options);

// --- shared by the measuring phases -----------------------------------------

/// Set-up repetitions: at least this many, more while the budget lasts.
inline constexpr int kMinSetupReps = 5;
inline constexpr int kMaxSetupReps = 30;
inline constexpr double kSetupBudgetSeconds = 3.0;

struct SetupSamples {
  std::vector<double> total;   // setup_s samples
  std::vector<double> build;   // partition.build_s samples
  std::vector<double> verify;  // partition.verify_s samples
  double peak_rss_mib = 0;     // the process's peak through set-up
  bool Continue() const {
    double spent = 0;
    for (const double t : total) spent += t;
    const auto reps = static_cast<int>(total.size());
    return reps < kMinSetupReps ||
           (reps < kMaxSetupReps && spent < kSetupBudgetSeconds);
  }
  /// One line: repetitions and the median, split and range of the samples.
  std::string Summary() const;
};

/// Records set-up's peak resident set into `setup` (preprocessing holds
/// the whole edge list), then resets the high-water mark so the workload's
/// peak_rss_mib covers only what runs after set-up.
graphsd::Status EndSetup(SetupSamples& setup);

/// Preprocesses the edge file into `out_dir` (P = 8) with `codec`.
graphsd::Status BuildDataset(const std::string& edge_file,
                             const std::string& out_dir,
                             const std::string& codec);

/// Exact per-job counts the prefetch-equivalence contract promises are
/// identical between jobs of one batch run.
struct ExactCounts {
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t frames_decoded = 0;
  std::uint32_t rounds_sciu = 0;
  std::uint32_t rounds_fciu = 0;
  std::uint32_t rounds_plain_full = 0;
  std::uint32_t rounds_semi = 0;
  friend bool operator==(const ExactCounts&, const ExactCounts&) = default;
  std::string ToString() const;
};

ExactCounts CountsOf(const graphsd::core::ExecutionReport& report);

struct EngineJob {
  double wall_seconds = 0;
  graphsd::core::ExecutionReport report;
  std::optional<LayerSplit> split;  // traced jobs only
  /// Peak resident set of the process during the job, from a trimmed heap.
  double peak_rss_mib = 0;
  /// Program::ValueOf of every vertex after the run.
  std::vector<double> values;
};

/// Runs `program` once on `dataset` with default engine options except
/// serial cost charging (see engine_jobs.cpp), vertex values under
/// `scratch_dir`. `overlap_charging` restores the library default for the
/// drift probe. Traced jobs attach the engine's passive trace and metrics
/// sinks and attribute the wall across layers.
graphsd::Result<EngineJob> RunEngineJob(
    const graphsd::partition::GridDataset& dataset,
    graphsd::core::Program& program, const std::string& scratch_dir,
    bool traced, bool overlap_charging = false);

/// Rounds whose update model differs, position by position, between two
/// runs of the same job, plus any difference in their round counts: 0 when
/// the scheduler's decisions are a function of the input alone.
std::uint64_t ModelDrift(const graphsd::core::ExecutionReport& a,
                         const graphsd::core::ExecutionReport& b);

/// Fails `result` when a traced job's layer split is not a partition of
/// its wall.
void CheckAttribution(const EngineJob& job, RunResult& result);

/// Per-layer metrics derived from engine jobs: the wall split (median over
/// `traced`), tracing overhead against `untraced_walls`, and the report
/// counters of `traced`.
void AddEngineLayerMetrics(RunResult& result,
                           const std::vector<EngineJob>& traced,
                           const std::vector<double>& untraced_walls);

void AddSetupLayerMetrics(RunResult& result, const SetupSamples& setup);
void AddProbeMetrics(RunResult& result, const ProbeRates& rates);

/// The service layer's metrics; all zero on workloads without the server.
struct ServiceLayer {
  double queue_wait_ms_p50 = 0;
  double engine_ms_p50 = 0;
  double batch_width_mean = 0;
  double dedup_rate = 0;
  double buffer_hit_rate = 0;
  double query_ms_p90 = 0;
  double queries_per_s = 0;
};
void AddServiceMetrics(RunResult& result, const ServiceLayer& service);

}  // namespace perfbench
