// Pieces both measuring phases share: dataset set-up, one engine job with
// optional tracing, and the per-layer metric sets.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/engine.hpp"
#include "io/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/baseline_preprocessors.hpp"
#include "phases.hpp"

namespace perfbench {

using graphsd::Result;
using graphsd::Status;
using graphsd::core::ExecutionReport;
using graphsd::core::RoundModel;

namespace {

// Zero-length span the harness records on the engine thread just before
// Run: it gives that thread's dense index in the trace and is charged to no
// layer.
constexpr const char* kJobMarker = "perfbench.job";

double MedianOf(const std::vector<EngineJob>& jobs,
                double (*field)(const EngineJob&)) {
  std::vector<double> values;
  for (const EngineJob& job : jobs) values.push_back(field(job));
  return Median(values);
}

}  // namespace

Status BuildDataset(const std::string& edge_file, const std::string& out_dir,
                    const std::string& codec) {
  // The edge file is read through a real:ssd device: O_DIRECT keeps every
  // repetition reading from the device rather than the page cache.
  auto device = graphsd::io::MakeRealSsdDevice();
  graphsd::partition::PreprocessOptions options;
  options.num_intervals = kIntervals;
  options.codec = codec;
  return graphsd::partition::PreprocessGraphSD(edge_file, *device, out_dir,
                                               options)
      .status();
}

Status EndSetup(SetupSamples& setup) {
  GRAPHSD_ASSIGN_OR_RETURN(setup.peak_rss_mib, PeakRssMib());
  return ResetPeakRss();
}

std::string SetupSamples::Summary() const {
  char text[256];
  std::snprintf(text, sizeof(text),
                "set-up: %zu reps, median %.4f s (build %.4f s, open+verify "
                "%.4f s), min %.4f s, max %.4f s",
                total.size(), Median(total), Median(build), Median(verify),
                *std::min_element(total.begin(), total.end()),
                *std::max_element(total.begin(), total.end()));
  return text;
}

std::string ExactCounts::ToString() const {
  char text[256];
  std::snprintf(text, sizeof(text),
                "read %llu B, write %llu B, frames %llu, rounds S/F/P/M "
                "%u/%u/%u/%u",
                static_cast<unsigned long long>(read_bytes),
                static_cast<unsigned long long>(write_bytes),
                static_cast<unsigned long long>(frames_decoded), rounds_sciu,
                rounds_fciu, rounds_plain_full, rounds_semi);
  return text;
}

ExactCounts CountsOf(const ExecutionReport& report) {
  ExactCounts counts;
  counts.read_bytes = report.io.TotalReadBytes();
  counts.write_bytes = report.io.TotalWriteBytes();
  counts.frames_decoded = report.frames_decoded;
  for (const auto& round : report.per_round) {
    switch (round.model) {
      case RoundModel::kSciu: ++counts.rounds_sciu; break;
      case RoundModel::kFciu: ++counts.rounds_fciu; break;
      case RoundModel::kPlainFull: ++counts.rounds_plain_full; break;
      case RoundModel::kSemi: ++counts.rounds_semi; break;
      case RoundModel::kSkipped: break;
    }
  }
  return counts;
}

Result<EngineJob> RunEngineJob(const graphsd::partition::GridDataset& dataset,
                               graphsd::core::Program& program,
                               const std::string& scratch_dir, bool traced,
                               bool overlap_charging) {
  graphsd::core::EngineOptions options;
  options.scratch_dir = scratch_dir;
  // Serial cost charging by default. The prefetch pipeline runs exactly as
  // with overlap charging (overlap_io only changes how rounds are charged
  // and what the scheduler compares), but the scheduler then decides on
  // model costs alone. With overlap charging on a compressed dataset it
  // floors each model at the *measured* per-round compute plus that
  // model's own decode estimate, so its choices, and every byte count after
  // them, vary from job to job (sssp-frontier: 102 to 130 SCIU rounds of
  // ~350 between jobs of one run), contrary to the scheduler.hpp contract
  // that overlap charging leaves every decision identical to serial
  // charging. Serial charging gives the decision stream that contract
  // specifies, deterministically; core.overlap_decision_drift measures the
  // gap.
  options.overlap_io = overlap_charging;
  std::unique_ptr<graphsd::obs::TraceBuffer> trace;
  graphsd::obs::MetricsRegistry metrics;
  if (traced) {
    trace = std::make_unique<graphsd::obs::TraceBuffer>();
    options.trace = trace.get();
    options.metrics = &metrics;
  }
  graphsd::core::GraphSDEngine engine(dataset, options);

  EngineJob job;
  double begin_us = 0;
  if (traced) {
    begin_us = trace->NowMicros();
    trace->Record(kJobMarker, 0, begin_us, 0);
  }
  GRAPHSD_RETURN_IF_ERROR(ResetPeakRss());
  const double start = NowSeconds();
  GRAPHSD_ASSIGN_OR_RETURN(job.report, engine.Run(program));
  job.wall_seconds = NowSeconds() - start;
  GRAPHSD_ASSIGN_OR_RETURN(job.peak_rss_mib, PeakRssMib());
  if (traced) {
    const double end_us = trace->NowMicros();
    if (trace->dropped() > 0) {
      return graphsd::ResourceExhaustedError("trace buffer dropped events");
    }
    const std::vector<graphsd::obs::TraceEvent> events = trace->Events();
    std::uint32_t engine_tid = 0;
    for (const auto& event : events) {
      if (event.name == kJobMarker) engine_tid = event.tid;
    }
    job.split = Attribute(events, engine_tid, begin_us, end_us);
    // Round counts as the metrics sink saw them; the determinism guard
    // compares them with the untraced jobs' reports.
    const auto counter = [&](const char* name) {
      return static_cast<std::uint32_t>(metrics.GetCounter(name).value());
    };
    const ExactCounts counts = CountsOf(job.report);
    if (counter("engine.rounds_sciu") != counts.rounds_sciu ||
        counter("engine.rounds_fciu") != counts.rounds_fciu ||
        counter("engine.rounds_plain_full") != counts.rounds_plain_full ||
        counter("engine.rounds_semi") != counts.rounds_semi) {
      return graphsd::InternalError(
          "metrics registry round counts disagree with the run report");
    }
  }
  const graphsd::core::VertexState& state = *engine.state();
  job.values.resize(dataset.num_vertices());
  for (graphsd::VertexId v = 0; v < dataset.num_vertices(); ++v) {
    job.values[v] = program.ValueOf(state, v);
  }
  return job;
}

std::uint64_t ModelDrift(const ExecutionReport& a, const ExecutionReport& b) {
  const std::size_t common = std::min(a.per_round.size(), b.per_round.size());
  std::uint64_t drift =
      std::max(a.per_round.size(), b.per_round.size()) - common;
  for (std::size_t r = 0; r < common; ++r) {
    drift += a.per_round[r].model != b.per_round[r].model;
  }
  return drift;
}

void CheckAttribution(const EngineJob& job, RunResult& result) {
  if (!job.split) return;
  const LayerSplit& split = *job.split;
  if (split.residual_seconds > 1e-6 * std::max(1.0, split.wall_seconds) ||
      split.unattributed_seconds < 0) {
    result.Fail("layer self-times plus unattributed (" +
                std::to_string(split.wall_seconds - split.residual_seconds) +
                " s) do not sum to the job wall (" +
                std::to_string(split.wall_seconds) + " s)");
  }
}

void AddEngineLayerMetrics(RunResult& result,
                           const std::vector<EngineJob>& traced,
                           const std::vector<double>& untraced_walls) {
  for (const std::string& layer : AttributedLayers()) {
    std::vector<double> seconds;
    for (const EngineJob& job : traced) {
      seconds.push_back(job.split->layer_seconds.at(layer));
    }
    result.Add(layer, Median(seconds), "s");
  }
  result.Add("core.unattributed_s", MedianOf(traced, [](const EngineJob& j) {
               return j.split->unattributed_seconds;
             }), "s");
  result.Add("core.unattributed_share",
             MedianOf(traced, [](const EngineJob& j) {
               return j.split->unattributed_seconds / j.split->wall_seconds;
             }), "ratio");
  result.Add("core.borrowed_share", MedianOf(traced, [](const EngineJob& j) {
               return j.split->borrowed_seconds / j.split->wall_seconds;
             }), "ratio");
  const double traced_job_s =
      MedianOf(traced, [](const EngineJob& j) { return j.wall_seconds; });
  result.Add("core.trace_overhead_s", traced_job_s - Median(untraced_walls),
             "s");

  const auto report = [&](const char* name, const char* unit,
                          double (*field)(const EngineJob&)) {
    result.Add(name, MedianOf(traced, field), unit);
  };
  report("core.iterations", "count",
         [](const EngineJob& j) { return double(j.report.iterations); });
  report("core.rounds_sciu", "count", [](const EngineJob& j) {
    return double(CountsOf(j.report).rounds_sciu);
  });
  report("core.rounds_fciu", "count", [](const EngineJob& j) {
    return double(CountsOf(j.report).rounds_fciu);
  });
  report("core.rounds_semi", "count", [](const EngineJob& j) {
    return double(CountsOf(j.report).rounds_semi);
  });
  report("core.scheduler.eval_us", "us", [](const EngineJob& j) {
    std::vector<double> evals;
    for (const auto& round : j.report.per_round) {
      if (round.scheduler_seconds > 0) evals.push_back(round.scheduler_seconds);
    }
    return Median(evals) * 1e6;
  });
  report("core.buffer_hit_rate", "ratio", [](const EngineJob& j) {
    const double lookups = double(j.report.buffer_hits + j.report.buffer_misses);
    return lookups > 0 ? double(j.report.buffer_hits) / lookups : 0.0;
  });
  report("core.decoded_edges_per_active_edge", "ratio", [](const EngineJob& j) {
    double active = 0;
    for (const auto& round : j.report.per_round) active += double(round.active_edges);
    const double decoded = double(j.report.decoded_bytes) / double(graphsd::kEdgeBytes);
    return active > 0 ? decoded / active : 0.0;
  });
  report("partition.frames_decoded", "count",
         [](const EngineJob& j) { return double(j.report.frames_decoded); });
  report("compress.ratio", "ratio", [](const EngineJob& j) {
    return j.report.compressed_bytes_read > 0
               ? double(j.report.decoded_bytes) /
                     double(j.report.compressed_bytes_read)
               : 0.0;
  });
  report("io.read_ops", "count", [](const EngineJob& j) {
    return double(j.report.io.seq_read_ops + j.report.io.rand_read_ops);
  });
  report("io.vectored_reads", "count",
         [](const EngineJob& j) { return double(j.report.io.vectored_reads); });
  report("io.bounce_reads", "count",
         [](const EngineJob& j) { return double(j.report.io.bounce_reads); });
  report("io.write_mib", "MiB", [](const EngineJob& j) {
    return double(j.report.io.TotalWriteBytes()) / kMiB;
  });
}

void AddSetupLayerMetrics(RunResult& result, const SetupSamples& setup) {
  result.Add("partition.build_s", Median(setup.build), "s");
  result.Add("partition.verify_s", Median(setup.verify), "s");
  result.Add("partition.build_peak_rss_mib", setup.peak_rss_mib, "MiB");
}

void AddProbeMetrics(RunResult& result, const ProbeRates& rates) {
  result.Add("core.apply_medges_s.serial", rates.apply_serial_medges_s,
             "Medges/s");
  result.Add("core.apply_medges_s.sharded", rates.apply_sharded_medges_s,
             "Medges/s");
  result.Add("compress.decode_mib_s", rates.decode_mib_s, "MiB/s");
  result.Add("util.crc32c_gib_s", rates.crc32c_gib_s, "GiB/s");
  result.Add("io.read_mib_s", rates.read_mib_s, "MiB/s");
  result.Add("partition.read_runs_mib_s", rates.read_runs_mib_s, "MiB/s");
}

void AddServiceMetrics(RunResult& result, const ServiceLayer& service) {
  result.Add("service.queue_wait_ms_p50", service.queue_wait_ms_p50, "ms");
  result.Add("service.engine_ms_p50", service.engine_ms_p50, "ms");
  result.Add("service.batch_width_mean", service.batch_width_mean, "count");
  result.Add("service.dedup_rate", service.dedup_rate, "ratio");
  result.Add("service.buffer_hit_rate", service.buffer_hit_rate, "ratio");
  result.Add("service.query_ms_p90", service.query_ms_p90, "ms");
  result.Add("service.queries_per_s", service.queries_per_s, "1/s");
}

}  // namespace perfbench
