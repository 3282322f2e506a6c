// pagerank-stream and sssp-frontier: engine jobs back to back on one
// dataset, every job checked against the reference answer and against the
// first job's exact counts. peak_rss_mib comes from one more job in a
// child process (`perfbench footprint`) whose allocator is fixed from its
// start.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "io/device.hpp"
#include "io/file.hpp"
#include "partition/dataset_verify.hpp"
#include "phases.hpp"

namespace perfbench {

using graphsd::Result;
using graphsd::Status;
using graphsd::partition::GridDataset;

namespace {

// PageRank is checked within the difftest's sum-threshold relative
// tolerance. Its absolute floor (2e-6) is sized for the difftest's small
// graphs; here ranks are ~1/|V| ≈ 3e-6, where that floor would accept
// almost any output, so the fixed-iteration floor (1e-12) is used instead.
constexpr double kPageRankRelTol = 1e-6;
constexpr double kPageRankAbsTol = 1e-12;

// Jobs a window needs before it may close (split evenly between traced and
// untraced jobs in a traced run), and how far past --seconds it may run to
// get them.
constexpr std::size_t kMinJobs = 5;
constexpr std::size_t kMinTracedJobs = 6;
constexpr double kWindowGraceSeconds = 60;

// The footprint process's mmap threshold: glibc's initial value.
constexpr std::size_t kFootprintMmapThreshold = 128 * 1024;

std::string DescribeMismatch(const std::vector<double>& got,
                             const std::vector<double>& want, bool bitwise) {
  if (got.size() != want.size()) {
    return "value count " + std::to_string(got.size()) + " != reference " +
           std::to_string(want.size());
  }
  for (std::size_t v = 0; v < got.size(); ++v) {
    const bool same =
        bitwise ? SameBits(got[v], want[v])
                : WithinTolerance(got[v], want[v], kPageRankRelTol,
                                  kPageRankAbsTol);
    if (!same) {
      char text[160];
      std::snprintf(text, sizeof(text), "vertex %zu: value %.17g, reference %.17g",
                    v, got[v], want[v]);
      return text;
    }
  }
  return "";
}

// What every job of a run needs: the workload and its reference answer.
struct BatchInputs {
  bool pagerank = false;
  std::vector<double> answer;
  graphsd::VertexId root = 0;  // sssp-frontier's

  static Result<BatchInputs> Read(const MeasureOptions& options) {
    BatchInputs inputs;
    inputs.pagerank = options.workload.kind == WorkloadKind::kPageRankStream;
    GRAPHSD_ASSIGN_OR_RETURN(inputs.answer,
                             ReadDoubles(options.dir + "/" + kAnswerFile));
    GRAPHSD_ASSIGN_OR_RETURN(const std::vector<graphsd::VertexId> roots,
                             ReadRoots(options.dir));
    if (!inputs.pagerank) {
      if (roots.size() != 1) {
        return graphsd::InvalidArgumentError("sssp-frontier needs one root");
      }
      inputs.root = roots.front();
    }
    return inputs;
  }

  std::unique_ptr<graphsd::core::Program> MakeProgram() const {
    if (pagerank) {
      return std::make_unique<graphsd::algos::PageRank>(kPageRankIterations);
    }
    return std::make_unique<graphsd::algos::Sssp>(root);
  }

  /// Empty when `job` computed the reference answer.
  std::string Check(const EngineJob& job) const {
    return DescribeMismatch(job.values, answer, !pagerank);
  }
};

std::string DatasetDir(const MeasureOptions& options) {
  return options.dir + "/dataset";
}
std::string FootprintResultPath(const MeasureOptions& options) {
  return options.dir + "/footprint.txt";
}

// Runs `perfbench footprint` on the dataset set-up built and folds its job
// into `result`: its peak resident set, its check, and its exact counts
// against `expected`.
Result<double> SpawnFootprint(const MeasureOptions& options,
                              const ExactCounts& expected, RunResult& result) {
  GRAPHSD_RETURN_IF_ERROR(RunSelf(
      options.self_path,
      {"footprint", "--workload", options.workload.name, "--seed",
       std::to_string(options.seed), "--dir", options.dir},
      "footprint process"));
  GRAPHSD_ASSIGN_OR_RETURN(const std::string text,
                           ReadText(FootprintResultPath(options)));
  std::istringstream in(text);
  double peak_rss_mib = 0;
  std::string counts;
  for (std::string key; in >> key;) {
    if (key == "peak_rss_mib") {
      in >> peak_rss_mib;
    } else if (key == "counts") {
      std::getline(in >> std::ws, counts);
    } else if (key == "fail") {
      std::string failure;
      std::getline(in >> std::ws, failure);
      result.Fail("footprint job: " + failure);
    }
  }
  ++result.attempted;
  if (counts != expected.ToString()) {
    result.Fail("footprint job's exact counts changed: " + counts + " vs " +
                expected.ToString());
  }
  if (peak_rss_mib <= 0) {
    return graphsd::InternalError("the footprint process gave no peak");
  }
  return peak_rss_mib;
}

}  // namespace

Status RunFootprint(const MeasureOptions& options) {
  // First, so every allocation of the process sees the fixed threshold.
  GRAPHSD_RETURN_IF_ERROR(PinMmapThreshold(kFootprintMmapThreshold));
  GRAPHSD_ASSIGN_OR_RETURN(const BatchInputs inputs, BatchInputs::Read(options));
  const std::string scratch_dir = options.dir + "/scratch-footprint";
  GRAPHSD_RETURN_IF_ERROR(graphsd::io::MakeDirectories(scratch_dir));
  auto device = graphsd::io::MakeRealSsdDevice();
  GRAPHSD_ASSIGN_OR_RETURN(const GridDataset dataset,
                           GridDataset::Open(*device, DatasetDir(options)));
  const auto program = inputs.MakeProgram();
  GRAPHSD_ASSIGN_OR_RETURN(EngineJob job, RunEngineJob(dataset, *program,
                                                       scratch_dir, false));
  std::ostringstream out;
  out.precision(17);
  out << "peak_rss_mib " << job.peak_rss_mib << "\ncounts "
      << CountsOf(job.report).ToString() << "\n";
  if (const std::string problem = inputs.Check(job); !problem.empty()) {
    out << "fail " << problem << "\n";
  }
  return WriteText(FootprintResultPath(options), out.str());
}

Result<RunResult> MeasureBatch(const MeasureOptions& options) {
  const std::string edge_file = options.dir + "/" + kEdgeFile;
  const std::string dataset_dir = DatasetDir(options);
  const std::string scratch_dir = options.dir + "/scratch";
  GRAPHSD_RETURN_IF_ERROR(graphsd::io::MakeDirectories(scratch_dir));
  GRAPHSD_ASSIGN_OR_RETURN(const BatchInputs inputs, BatchInputs::Read(options));

  // Set-up: preprocess the edge file, open and verify the dataset.
  auto device = graphsd::io::MakeRealSsdDevice();
  std::unique_ptr<GridDataset> dataset;
  SetupSamples setup;
  while (setup.Continue()) {
    dataset.reset();
    const double start = NowSeconds();
    GRAPHSD_RETURN_IF_ERROR(BuildDataset(edge_file, dataset_dir, kCodec));
    const double built = NowSeconds();
    GRAPHSD_ASSIGN_OR_RETURN(GridDataset opened,
                             GridDataset::Open(*device, dataset_dir));
    GRAPHSD_ASSIGN_OR_RETURN(const auto verify,
                             graphsd::partition::VerifyDataset(dataset_dir));
    if (!verify.ok()) return graphsd::CorruptDataError(verify.Summary());
    const double verified = NowSeconds();
    dataset = std::make_unique<GridDataset>(std::move(opened));
    setup.build.push_back(built - start);
    setup.verify.push_back(verified - built);
    setup.total.push_back(verified - start);
  }
  FlushFilesystem(options.dir);
  GRAPHSD_RETURN_IF_ERROR(EndSetup(setup));
  const auto& manifest = dataset->manifest();
  const std::uint64_t disk_bytes = DirectoryBytes(dataset_dir);
  std::printf("input: %u vertices, %llu edges, P=%u, on disk %.2f MiB, "
              "sub-block buffer %.2f MiB\n%s\n",
              manifest.num_vertices,
              static_cast<unsigned long long>(manifest.num_edges), manifest.p,
              double(disk_bytes) / kMiB,
              double(manifest.TotalEdgeBytes() / 20) / kMiB,
              setup.Summary().c_str());

  RunResult result;
  std::optional<ExactCounts> expected;  // the warm-up job's
  // Jobs under overlap charging are exempt from the exact-count guard: they
  // exist to measure how far their decisions drift.
  const auto run_job = [&](bool traced,
                           bool overlap_charging = false) -> Result<EngineJob> {
    const auto program = inputs.MakeProgram();
    GRAPHSD_ASSIGN_OR_RETURN(
        EngineJob job, RunEngineJob(*dataset, *program, scratch_dir, traced,
                                    overlap_charging));
    ++result.attempted;
    std::string problem = inputs.Check(job);
    const ExactCounts counts = CountsOf(job.report);
    if (!expected) {
      expected = counts;
    } else if (!overlap_charging && counts != *expected) {
      problem += (problem.empty() ? "" : "; ") +
                 std::string("exact counts changed between jobs: ") +
                 counts.ToString() + " vs " + expected->ToString();
    }
    if (!problem.empty()) result.Fail(problem);
    CheckAttribution(job, result);
    job.values.clear();
    return job;
  };

  // One warm-up job, then the window. A traced run alternates traced and
  // untraced jobs so the tracing overhead is measured under the same host
  // conditions.
  GRAPHSD_RETURN_IF_ERROR(run_job(false).status());
  std::vector<double> untraced_walls;
  std::vector<double> untraced_rss;
  std::vector<EngineJob> traced_jobs;
  const std::size_t min_jobs = options.trace ? kMinTracedJobs : kMinJobs;
  const double window_start = NowSeconds();
  for (std::size_t k = 0;; ++k) {
    const double elapsed = NowSeconds() - window_start;
    const std::size_t done = untraced_walls.size() + traced_jobs.size();
    if (elapsed >= options.seconds + kWindowGraceSeconds) break;
    if (elapsed >= options.seconds && done >= min_jobs) break;
    const bool traced = options.trace && k % 2 == 0;
    GRAPHSD_ASSIGN_OR_RETURN(EngineJob job, run_job(traced));
    if (traced) {
      traced_jobs.push_back(std::move(job));
    } else {
      untraced_walls.push_back(job.wall_seconds);
      untraced_rss.push_back(job.peak_rss_mib);
    }
  }
  std::printf("jobs: %zu untraced + %zu traced (+1 warm-up); untraced wall "
              "min %.4f s, median %.4f s, max %.4f s; %s; peak RSS %.1f MiB "
              "in set-up, per untraced job min %.1f MiB, max %.1f MiB\n",
              untraced_walls.size(), traced_jobs.size(),
              *std::min_element(untraced_walls.begin(), untraced_walls.end()),
              Median(untraced_walls),
              *std::max_element(untraced_walls.begin(), untraced_walls.end()),
              expected->ToString().c_str(), setup.peak_rss_mib,
              *std::min_element(untraced_rss.begin(), untraced_rss.end()),
              *std::max_element(untraced_rss.begin(), untraced_rss.end()));

  if (!options.trace) {
    result.Add("setup_s", Median(setup.total), "s");
    result.Add("job_s", Median(untraced_walls), "s");
    result.Add("read_mib", double(expected->read_bytes) / kMiB, "MiB");
    result.Add("write_mib", double(expected->write_bytes) / kMiB, "MiB");
    result.Add("disk_bytes_per_edge",
               double(disk_bytes) / double(manifest.num_edges), "B");
    // Under glibc's default, moving mmap threshold a job's peak follows
    // what the allocator has retained, not what the job holds: 47.6 to
    // 99.4 MiB between jobs and runs of one pagerank-stream seed, even
    // from a trimmed heap. The footprint job runs in a fresh process whose
    // threshold is fixed at glibc's initial value from its start.
    GRAPHSD_ASSIGN_OR_RETURN(const double footprint_mib,
                             SpawnFootprint(options, *expected, result));
    std::printf("footprint job (own process, mmap threshold fixed at %zu B): "
                "peak RSS %.1f MiB\n",
                kFootprintMmapThreshold, footprint_mib);
    result.Add("peak_rss_mib", footprint_mib, "MiB");
    return result;
  }

  AddSetupLayerMetrics(result, setup);
  AddEngineLayerMetrics(result, traced_jobs, untraced_walls);
  const std::string raw_dir = options.dir + "/dataset-raw";
  GRAPHSD_RETURN_IF_ERROR(BuildDataset(edge_file, raw_dir, "none"));
  GRAPHSD_ASSIGN_OR_RETURN(const ProbeRates rates,
                           RunLayerProbes(*dataset, raw_dir));
  AddProbeMetrics(result, rates);
  GRAPHSD_ASSIGN_OR_RETURN(const EngineJob first, run_job(false, true));
  GRAPHSD_ASSIGN_OR_RETURN(const EngineJob second, run_job(false, true));
  result.Add("core.overlap_decision_drift",
             double(ModelDrift(first.report, second.report)), "count");
  AddServiceMetrics(result, ServiceLayer{});
  return result;
}

}  // namespace perfbench
