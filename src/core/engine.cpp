#include "core/engine.hpp"

#include <algorithm>

#include "core/checkpoint.hpp"
#include "core/fciu_executor.hpp"
#include "core/scheduler.hpp"
#include "core/sciu_executor.hpp"
#include "core/semi_executor.hpp"
#include "core/skip_summary.hpp"
#include "core/sub_block_buffer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/clock.hpp"
#include "util/logging.hpp"
#include "util/str_format.hpp"

namespace graphsd::core {
namespace {

/// Per-round accounting: snapshots the device counters at construction and
/// folds the deltas into the stat and report at Commit().
class RoundAccounting {
 public:
  /// `overlap` selects the pipelined per-round charge max(compute, io);
  /// otherwise the serial sum is charged (baselines, ablations).
  RoundAccounting(io::Device& device, RoundStat& stat, ExecutionReport& report,
                  bool overlap)
      : device_(device),
        stat_(stat),
        report_(report),
        overlap_(overlap),
        io_before_(device.stats().Snapshot()),
        clock_before_(device.clock().Seconds()) {}

  void Commit(bool record) {
    const auto io_delta = device_.stats().Snapshot() - io_before_;
    stat_.io_seconds = device_.clock().Seconds() - clock_before_;
    stat_.compute_seconds = wall_.Seconds();
    stat_.overlapped_seconds =
        overlap_ ? io::IoCostModel::OverlapSeconds(stat_.io_seconds,
                                                   stat_.compute_seconds)
                 : stat_.io_seconds + stat_.compute_seconds;
    stat_.read_bytes = io_delta.TotalReadBytes();
    stat_.write_bytes = io_delta.TotalWriteBytes();

    report_.io += io_delta;
    report_.io_seconds += stat_.io_seconds;
    report_.compute_seconds += stat_.compute_seconds;
    report_.overlapped_seconds += stat_.overlapped_seconds;
    report_.scheduler_seconds += stat_.scheduler_seconds;
    ++report_.rounds;
    if (record) report_.per_round.push_back(stat_);
  }

 private:
  io::Device& device_;
  RoundStat& stat_;
  ExecutionReport& report_;
  bool overlap_;
  io::IoStatsSnapshot io_before_;
  double clock_before_;
  WallTimer wall_;
};

/// Device I/O a run does outside every round's accounting window.
struct OutsideRoundIo {
  io::IoStatsSnapshot io;
  double seconds = 0;
};

/// Runs `work` and measures the device I/O it does.
template <typename F>
OutsideRoundIo MeasureIo(const io::Device& device, F&& work) {
  const io::IoStatsSnapshot io_before = device.stats().Snapshot();
  const double clock_before = device.clock().Seconds();
  work();
  return {device.stats().Snapshot() - io_before,
          device.clock().Seconds() - clock_before};
}

/// Folds `charge` into the report and into `round` (null when rounds are not
/// recorded), so the report's totals stay the sums of its rounds. Charged
/// serially: nothing overlaps it.
void ChargeToRound(const OutsideRoundIo& charge, ExecutionReport& report,
                   RoundStat* round) {
  report.io += charge.io;
  report.io_seconds += charge.seconds;
  report.overlapped_seconds += charge.seconds;
  if (round == nullptr) return;
  round->io_seconds += charge.seconds;
  round->overlapped_seconds += charge.seconds;
  round->read_bytes += charge.io.TotalReadBytes();
  round->write_bytes += charge.io.TotalWriteBytes();
}

/// Records the skip summaries of `blocks` from their CSR source indexes
/// (one accounted read each). One that cannot be read stays unknown (no
/// skip).
void LearnSummaries(
    const partition::GridDataset& dataset,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& blocks,
    SkipSummaryStore& summaries, obs::TraceBuffer* trace,
    std::uint32_t iteration) {
  for (const auto& [i, j] : blocks) {
    obs::TraceSpan span(trace, "index-read", iteration);
    auto offsets = dataset.LoadIndex(i, j);
    if (offsets.ok()) summaries.RecordFromOffsets(i, j, *offsets);
  }
}

/// Where a run keeps its vertex values between rounds (DESIGN.md §14).
/// Out of core (the paper's model): the values file is written at run
/// start, loaded at the start of every round and written back at every
/// commit; a discarded round reloads it. Resident: the program arrays stay
/// in RAM; every round starts by snapshotting them, so a discarded round
/// (mid-round cancel, on-demand degradation) rolls back in memory, and the
/// file is written once, when the run ends. The snapshot is allocated by
/// the first round and reused by the rest.
class ValueStore {
 public:
  ValueStore(bool resident, VertexState& state, io::Device& device,
             std::string path, obs::TraceBuffer* trace)
      : resident_(resident),
        state_(state),
        device_(device),
        path_(std::move(path)),
        trace_(trace) {}

  /// Before the first round. Out of core only: seeds the values file the
  /// first round loads.
  Status Start() {
    return resident_ ? Status::Ok() : state_.Persist(device_, path_);
  }

  /// Marks the committed boundary the round starts from.
  Status BeginRound(std::uint32_t iteration) {
    obs::TraceSpan span(trace_, "state-load", iteration);
    if (!resident_) return state_.Load(device_, path_);
    snapshot_.resize(state_.num_program_arrays());
    for (std::uint32_t a = 0; a < state_.num_program_arrays(); ++a) {
      const auto src = state_.array(a);
      snapshot_[a].assign(src.begin(), src.end());
    }
    return Status::Ok();
  }

  /// Restores the boundary BeginRound marked, discarding the round's
  /// partial updates.
  Status Rollback(std::uint32_t iteration) {
    obs::TraceSpan span(trace_, "state-load", iteration);
    if (!resident_) return state_.Load(device_, path_);
    for (std::uint32_t a = 0; a < state_.num_program_arrays(); ++a) {
      std::copy(snapshot_[a].begin(), snapshot_[a].end(),
                state_.array(a).begin());
    }
    return Status::Ok();
  }

  /// A committed round's write-back (out of core only).
  Status CommitRound(std::uint32_t first_iteration) {
    if (resident_) return Status::Ok();
    obs::TraceSpan span(trace_, "write-back", first_iteration);
    return state_.Persist(device_, path_);
  }

  /// After the last round. Resident only: the run's one |V|·N write,
  /// charged to the last recorded round, whose write-back it is.
  Status Finish(std::uint32_t iteration, ExecutionReport& report) {
    if (!resident_) return Status::Ok();
    obs::TraceSpan span(trace_, "write-back", iteration);
    Status status;
    const OutsideRoundIo charge =
        MeasureIo(device_, [&] { status = state_.Persist(device_, path_); });
    GRAPHSD_RETURN_IF_ERROR(status);
    ChargeToRound(charge, report,
                  report.per_round.empty() ? nullptr
                                           : &report.per_round.back());
    return Status::Ok();
  }

 private:
  bool resident_;
  VertexState& state_;
  io::Device& device_;
  std::string path_;
  obs::TraceBuffer* trace_;
  std::vector<std::vector<Slot>> snapshot_;
};

/// End-of-run metrics publication. Engine totals accumulate as counters
/// (one Add per run); the I/O-stack components publish gauge snapshots.
/// Strictly passive: reads counters, performs no I/O, feeds nothing back.
void PublishRunMetrics(obs::MetricsRegistry* metrics,
                       const ExecutionReport& report, const io::Device& device,
                       const SubBlockBuffer& buffer,
                       const io::PrefetchPipeline& prefetch) {
  if (metrics == nullptr) return;
  metrics->GetCounter("engine.runs").Add(1);
  metrics->GetCounter("engine.iterations").Add(report.iterations);
  metrics->GetCounter("engine.rounds").Add(report.rounds);
  metrics->GetCounter("engine.degraded_rounds").Add(report.degraded_rounds);
  metrics->GetCounter("engine.frames_decoded").Add(report.frames_decoded);
  metrics->GetCounter("engine.compressed_bytes_read")
      .Add(report.compressed_bytes_read);
  metrics->GetCounter("engine.decoded_bytes").Add(report.decoded_bytes);
  obs::Histogram& reads = metrics->GetHistogram("engine.round_read_bytes");
  obs::Histogram& writes = metrics->GetHistogram("engine.round_write_bytes");
  for (const RoundStat& stat : report.per_round) {
    switch (stat.model) {
      case RoundModel::kSciu:
        metrics->GetCounter("engine.rounds_sciu").Add(1);
        break;
      case RoundModel::kFciu:
        metrics->GetCounter("engine.rounds_fciu").Add(1);
        break;
      case RoundModel::kPlainFull:
        metrics->GetCounter("engine.rounds_plain_full").Add(1);
        break;
      case RoundModel::kSemi:
        metrics->GetCounter("engine.rounds_semi").Add(1);
        break;
      case RoundModel::kSkipped:
        metrics->GetCounter("engine.rounds_skipped").Add(1);
        break;
    }
    reads.Record(stat.read_bytes);
    writes.Record(stat.write_bytes);
  }
  if (report.blocks_skipped != 0) {
    metrics->GetCounter("engine.blocks_skipped").Add(report.blocks_skipped);
    metrics->GetCounter("engine.blocks_skipped_bytes")
        .Add(report.blocks_skipped_bytes);
  }
  device.PublishMetrics(*metrics);
  buffer.PublishMetrics(*metrics);
  prefetch.PublishMetrics(*metrics);
}

/// Folds this run's decode-side deltas (the dataset's counters are
/// cumulative across runs) and the buffer's on-disk byte view into the
/// report. Buffer counters are deltas against `buf_before` for the same
/// reason: a shared buffer outlives and spans runs.
void FinishCompressionReport(const partition::GridDataset& dataset,
                             const partition::DecodeStats& before,
                             const SubBlockBuffer& buffer,
                             const SubBlockBuffer::Counters& buf_before,
                             ExecutionReport& report) {
  report.codec = dataset.codec_name();
  const partition::DecodeStats after = dataset.decode_stats();
  report.frames_decoded = after.frames_decoded - before.frames_decoded;
  report.compressed_bytes_read =
      after.compressed_bytes - before.compressed_bytes;
  report.decoded_bytes = after.decoded_bytes - before.decoded_bytes;
  report.decode_seconds = after.decode_seconds - before.decode_seconds;
  report.buffer_disk_bytes_saved =
      buffer.counters().disk_bytes_saved - buf_before.disk_bytes_saved;
}

/// Snapshots the run's committed boundary into a Checkpoint. `base` carries
/// the cumulative totals of the checkpoint this run resumed from (all-zero
/// on a fresh run) so persisted counters always cover the whole logical
/// run; buffer/decode counters are this run's deltas added on top of it.
Checkpoint MakeCheckpoint(std::uint32_t fingerprint, const Program& program,
                          bool gather, std::uint32_t iteration,
                          const VertexState& state, const Frontier* active,
                          const Frontier* preact,
                          const ExecutionReport& report,
                          const Checkpoint& base, const SubBlockBuffer& buffer,
                          const SubBlockBuffer::Counters& buf_before,
                          const partition::GridDataset& dataset,
                          const partition::DecodeStats& decode_before) {
  Checkpoint cp;
  cp.fingerprint = fingerprint;
  cp.algorithm = program.name();
  cp.gather = gather;
  cp.iteration = iteration;
  cp.num_vertices = state.num_vertices();
  cp.arrays.resize(state.num_program_arrays());
  for (std::uint32_t a = 0; a < state.num_program_arrays(); ++a) {
    const auto src = state.array(a);
    cp.arrays[a].assign(src.begin(), src.end());
  }
  if (active != nullptr) {
    active->ForEachActive([&](std::size_t v) {
      cp.active.push_back(static_cast<VertexId>(v));
    });
  }
  if (preact != nullptr) {
    preact->ForEachActive([&](std::size_t v) {
      cp.preact.push_back(static_cast<VertexId>(v));
    });
  }
  cp.rounds = report.rounds;
  cp.degraded_rounds = report.degraded_rounds;
  cp.compute_seconds = report.compute_seconds;
  cp.update_seconds = report.update_seconds;
  cp.io_seconds = report.io_seconds;
  cp.scheduler_seconds = report.scheduler_seconds;
  cp.overlapped_seconds = report.overlapped_seconds;
  cp.io = report.io;
  const SubBlockBuffer::Counters buf_now = buffer.counters();
  cp.buffer_hits = base.buffer_hits + (buf_now.hits - buf_before.hits);
  cp.buffer_misses = base.buffer_misses + (buf_now.misses - buf_before.misses);
  cp.buffer_bytes_saved =
      base.buffer_bytes_saved + (buf_now.bytes_saved - buf_before.bytes_saved);
  cp.buffer_disk_bytes_saved =
      base.buffer_disk_bytes_saved +
      (buf_now.disk_bytes_saved - buf_before.disk_bytes_saved);
  const partition::DecodeStats now = dataset.decode_stats();
  cp.frames_decoded =
      base.frames_decoded + (now.frames_decoded - decode_before.frames_decoded);
  cp.compressed_bytes_read =
      base.compressed_bytes_read +
      (now.compressed_bytes - decode_before.compressed_bytes);
  cp.decoded_bytes =
      base.decoded_bytes + (now.decoded_bytes - decode_before.decoded_bytes);
  cp.decode_seconds =
      base.decode_seconds + (now.decode_seconds - decode_before.decode_seconds);
  cp.checkpoints_written = report.checkpoints_written;
  cp.checkpoint_bytes = report.checkpoint_bytes;
  cp.checkpoint_seconds = report.checkpoint_seconds;
  return cp;
}

/// Validates the resume preconditions and restores `cp` into the run:
/// vertex arrays, frontiers (push only) and the report's cumulative
/// baseline. kFailedPrecondition on any shape/identity mismatch — resuming
/// a checkpoint against a different dataset build or program would silently
/// corrupt results.
Status RestoreCheckpoint(const Checkpoint& cp, std::uint32_t fingerprint,
                         const Program& program, bool gather,
                         VertexState& state, Frontier* active,
                         Frontier* preact, ExecutionReport& report) {
  if (cp.fingerprint != fingerprint) {
    return FailedPreconditionError(StrPrintf(
        "checkpoint fingerprint %08x does not match dataset fingerprint "
        "%08x — refusing to resume on a different or rebuilt dataset",
        cp.fingerprint, fingerprint));
  }
  if (cp.algorithm != program.name()) {
    return FailedPreconditionError(StrPrintf(
        "checkpoint was written by algorithm '%s', not '%s'",
        cp.algorithm.c_str(), program.name().c_str()));
  }
  if (cp.gather != gather) {
    return FailedPreconditionError(
        "checkpoint program kind (push/gather) does not match");
  }
  if (cp.num_vertices != state.num_vertices() ||
      cp.arrays.size() != state.num_program_arrays()) {
    return FailedPreconditionError(StrPrintf(
        "checkpoint shape (%u vertices, %zu arrays) does not match the run "
        "(%u vertices, %u arrays)",
        cp.num_vertices, cp.arrays.size(), state.num_vertices(),
        state.num_program_arrays()));
  }
  for (std::uint32_t a = 0; a < state.num_program_arrays(); ++a) {
    const auto dst = state.array(a);
    std::copy(cp.arrays[a].begin(), cp.arrays[a].end(), dst.begin());
  }
  if (active != nullptr) {
    active->Clear();
    for (const VertexId v : cp.active) active->Activate(v);
  }
  if (preact != nullptr) {
    preact->Clear();
    for (const VertexId v : cp.preact) preact->Activate(v);
  }
  report.rounds = cp.rounds;
  report.degraded_rounds = cp.degraded_rounds;
  report.compute_seconds = cp.compute_seconds;
  report.update_seconds = cp.update_seconds;
  report.io_seconds = cp.io_seconds;
  report.scheduler_seconds = cp.scheduler_seconds;
  report.overlapped_seconds = cp.overlapped_seconds;
  report.io = cp.io;
  report.checkpoints_written = cp.checkpoints_written;
  report.checkpoint_bytes = cp.checkpoint_bytes;
  report.checkpoint_seconds = cp.checkpoint_seconds;
  report.resumed = true;
  report.resume_iteration = cp.iteration;
  return Status::Ok();
}

/// Lifecycle counters (`checkpoint.*`, `engine.cancelled_runs`). Deltas vs
/// the resumed baseline so counters reflect this process's work only.
void PublishLifecycleMetrics(obs::MetricsRegistry* metrics,
                             const ExecutionReport& report,
                             const Checkpoint& base) {
  if (metrics == nullptr) return;
  if (report.cancelled) metrics->GetCounter("engine.cancelled_runs").Add(1);
  if (report.resumed) metrics->GetCounter("checkpoint.resumes").Add(1);
  if (report.checkpoints_written > base.checkpoints_written) {
    metrics->GetCounter("checkpoint.written")
        .Add(report.checkpoints_written - base.checkpoints_written);
    metrics->GetCounter("checkpoint.bytes")
        .Add(report.checkpoint_bytes - base.checkpoint_bytes);
  }
}

}  // namespace

GraphSDEngine::GraphSDEngine(const partition::GridDataset& dataset,
                             EngineOptions options)
    : dataset_(&dataset), options_(std::move(options)) {
  // SCIU needs the source index; degrade gracefully on index-less layouts.
  if (!dataset.manifest().has_index) options_.enable_selective = false;
}

std::string GraphSDEngine::ValuesPath(const Program& program) const {
  const std::string base =
      options_.scratch_dir.empty() ? dataset_->dir() : options_.scratch_dir;
  return base + "/values_" + program.name() + ".bin";
}

Result<ExecutionReport> GraphSDEngine::Run(Program& program) {
  program.Bind(dataset_->out_degrees());
  state_ = std::make_unique<VertexState>(
      dataset_->num_vertices(), program.num_value_arrays(),
      program.kind() == ProgramKind::kGather, program.contrib_width());
  if (program.kind() == ProgramKind::kPush) {
    return RunPush(static_cast<PushProgram&>(program));
  }
  return RunGather(static_cast<GatherProgram&>(program));
}

Result<ExecutionReport> GraphSDEngine::RunPush(PushProgram& program) {
  const auto& manifest = dataset_->manifest();
  io::Device& device = dataset_->device();
  const VertexId n = manifest.num_vertices;
  const std::uint64_t default_budget =
      std::max<std::uint64_t>(1, manifest.TotalEdgeBytes() / 20);

  // Resource sharing (DESIGN.md §13): a caller-provided buffer/pipeline
  // (the `graphsd serve` shared tier) replaces the private per-run ones.
  // Counter reporting switches to deltas against the entry snapshot so
  // the report still describes this run, not the buffer's whole life.
  std::unique_ptr<SubBlockBuffer> local_buffer;
  SubBlockBuffer* buffer = options_.shared_buffer;
  if (buffer == nullptr) {
    local_buffer = std::make_unique<SubBlockBuffer>(
        options_.enable_buffering ? (options_.buffer_capacity_bytes != 0
                                         ? options_.buffer_capacity_bytes
                                         : default_budget)
                                  : 0);
    buffer = local_buffer.get();
  }
  const SubBlockBuffer::Counters buf_before = buffer->counters();
  ExecContext ctx;
  ctx.dataset = dataset_;
  ctx.buffer = buffer;
  ctx.memory_budget_bytes = options_.memory_budget_bytes != 0
                                ? options_.memory_budget_bytes
                                : default_budget;
  std::unique_ptr<io::PrefetchPipeline> local_prefetch;
  io::PrefetchPipeline* prefetch = options_.shared_prefetch;
  if (prefetch == nullptr) {
    local_prefetch =
        std::make_unique<io::PrefetchPipeline>(options_.prefetch_depth);
    prefetch = local_prefetch.get();
  }
  ctx.prefetch = prefetch;
  ctx.trace = options_.trace;
  // Skip summaries (DESIGN.md §14): shared store when the caller provides
  // one (the serve registry's per-dataset tier), private when the state is
  // resident, absent otherwise (zero overhead on paper-model runs).
  const bool resident = options_.semi_external;
  std::unique_ptr<SkipSummaryStore> local_summaries;
  SkipSummaryStore* summaries = options_.shared_summaries;
  if (summaries == nullptr && resident) {
    local_summaries = std::make_unique<SkipSummaryStore>(manifest);
    summaries = local_summaries.get();
  }
  ctx.summaries = summaries;
  ctx.cache_compressed = options_.cache_compressed && dataset_->compressed();
  // Run-local cancellation: chains the caller's token (signal handlers trip
  // that one) and arms the optional deadline. Executors poll it at fetch
  // boundaries; the prefetch loader drains queued reads when it trips.
  CancellationToken run_token;
  run_token.set_parent(options_.cancel);
  if (options_.deadline_seconds > 0) {
    run_token.SetDeadline(options_.deadline_seconds);
  }
  ctx.cancel = &run_token;
  // A shared pipeline's token belongs to its owner: pointing it at this
  // stack-local token would dangle (and clobber concurrent runs).
  if (local_prefetch != nullptr) local_prefetch->set_cancellation(&run_token);
  SciuExecutor sciu(ctx);
  FciuExecutor fciu(ctx);
  SemiExecutor semi(ctx);
  StateAwareScheduler scheduler(*dataset_, device.options().cost_model);
  // Resident runs decide as if every summary were known: on an indexed
  // dataset, a round whose decision hinges on summaries the store lacks
  // reads them from the index and is costed again.
  // Without an index there is nothing to read them from, and summaries
  // learned from decodes depend on what the run has fetched so far, so the
  // semi model is costed with none — the decisions stay a function of the
  // dataset and the frontier, which a resumed run repeats exactly
  // (DESIGN.md §12).
  const SemiCostInputs semi_inputs{manifest.has_index ? summaries : nullptr};

  const bool checkpointing = !options_.checkpoint_dir.empty();
  CheckpointStore store(options_.checkpoint_dir);
  // Slot writes are fdatasync-bound; the async writer keeps them off the
  // round critical path (its thread starts lazily on the first submit).
  AsyncCheckpointWriter checkpoint_writer(&store);
  const std::uint32_t checkpoint_every =
      std::max<std::uint32_t>(1, options_.checkpoint_every);
  const std::uint32_t fingerprint =
      checkpointing ? DatasetFingerprint(manifest) : 0;

  // Overlap charging is only honest when the pipeline actually overlaps.
  const bool overlap = options_.overlap_io && prefetch->enabled();

  ExecutionReport report;
  report.engine = options_.engine_name;
  report.algorithm = program.name();
  report.dataset = manifest.name;
  report.overlap_io = overlap;
  const partition::DecodeStats decode_before = dataset_->decode_stats();

  VertexState& state = *state_;
  Frontier active(n);
  Frontier out(n);
  Frontier out_ni(n);
  Frontier preact(n);
  program.Init(state, active);

  std::uint32_t iterations = 0;
  std::uint32_t last_checkpoint_iteration = 0;
  // Cumulative totals of the checkpoint this run resumed from (all-zero on
  // a fresh run); buffer/decode report fields are this run's deltas added
  // on top of it.
  Checkpoint base;
  if (checkpointing && options_.resume) {
    obs::TraceSpan span(options_.trace, "resume", 0);
    auto loaded = store.LoadLatest();
    if (loaded.ok()) {
      GRAPHSD_RETURN_IF_ERROR(RestoreCheckpoint(
          loaded.value(), fingerprint, program, /*gather=*/false, state,
          &active, &preact, report));
      iterations = loaded.value().iteration;
      last_checkpoint_iteration = iterations;
      base = std::move(loaded).value();
      base.arrays.clear();
      base.active.clear();
      base.preact.clear();
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      // Slots exist but none is valid (all torn/corrupt) — surface it
      // rather than silently recomputing from scratch.
      return loaded.status();
    }
  }
  if (options_.frontier_probe) options_.frontier_probe(iterations, active);

  const std::string values_path = ValuesPath(program);
  ValueStore values(resident, state, device, values_path, options_.trace);
  GRAPHSD_RETURN_IF_ERROR(values.Start());

  const std::uint32_t max_iterations =
      std::min(program.max_iterations(), options_.max_iterations);
  // Cleared when the on-demand model hits unusable inputs (missing index,
  // checksum mismatch); the full-streaming model needs neither the index
  // nor ranged reads, so the run degrades instead of failing.
  bool selective_healthy = true;

  // Writes the committed boundary (the in-memory arrays and frontiers).
  auto write_checkpoint = [&](std::uint32_t boundary) -> Status {
    obs::TraceSpan span(options_.trace, "checkpoint", boundary);
    WallTimer timer;
    const Checkpoint cp = MakeCheckpoint(
        fingerprint, program, /*gather=*/false, boundary, state, &active,
        &preact, report, base, *buffer, buf_before, *dataset_, decode_before);
    GRAPHSD_RETURN_IF_ERROR(checkpoint_writer.Submit(cp).status());
    ++report.checkpoints_written;
    report.checkpoint_seconds += timer.Seconds();
    last_checkpoint_iteration = boundary;
    return Status::Ok();
  };

  while (iterations < max_iterations) {
    // Loop-top poll: everything here is committed (values and frontiers
    // current), so cancellation just stops before the next round.
    if (run_token.cancelled()) {
      report.cancelled = true;
      report.cancel_reason = run_token.reason();
      break;
    }
    if (active.Empty()) {
      if (preact.Empty()) break;
      // Iteration t has no regularly-active vertices; the pre-activated set
      // becomes the next frontier at zero I/O cost.
      active.Swap(preact);
      preact.Clear();
      RoundStat stat;
      stat.first_iteration = iterations;
      stat.model = RoundModel::kSkipped;
      ++iterations;
      ++report.rounds;
      if (options_.record_per_round) report.per_round.push_back(stat);
      if (options_.frontier_probe) options_.frontier_probe(iterations, active);
      continue;
    }

    RoundStat stat;
    stat.first_iteration = iterations;
    bool on_demand = false;
    bool semi_round = false;
    OutsideRoundIo summary_reads;
    const RoundModelChoice choice = options_.model_override
                                        ? options_.model_override(iterations)
                                        : RoundModelChoice::kAuto;
    if (choice != RoundModelChoice::kAuto) {
      // Forced model (differential testing): skip the cost evaluation. The
      // on-demand directive still requires a usable selective path.
      on_demand = choice == RoundModelChoice::kOnDemand && selective_healthy &&
                  options_.enable_selective;
      semi_round = choice == RoundModelChoice::kSemi;
      stat.active_vertices = active.Count();
    } else if ((selective_healthy &&
                (options_.force_on_demand || options_.enable_selective)) ||
               resident) {
      // Under overlap charging the scheduler floors both model costs at the
      // run's observed per-round compute (0 before the first round commits,
      // i.e. the first evaluation is effectively serial).
      const double overlap_compute =
          overlap && report.rounds > 0
              ? report.compute_seconds / report.rounds
              : (overlap ? 0.0 : -1.0);
      // Resident state moves no per-round |V|·N values bytes, so those
      // terms drop out of every model's formula (record bytes = 0). Forced
      // on-demand rounds (b4) never take the semi model: it is not costed.
      const SemiCostInputs* semi_costing =
          resident && !options_.force_on_demand ? &semi_inputs : nullptr;
      auto evaluate = [&] {
        obs::TraceSpan span(options_.trace, "schedule-decision", iterations);
        return scheduler.Evaluate(
            active, resident ? 0 : state.BytesPerVertex(),
            program.needs_weights() && manifest.weighted,
            /*fciu_round=*/options_.enable_cross_iteration &&
                iterations + 2 <= max_iterations,
            overlap_compute, semi_costing);
      };
      SchedulerDecision decision = evaluate();
      stat.scheduler_seconds = decision.eval_seconds;
      if (!decision.semi_unknown.empty()) {
        summary_reads = MeasureIo(device, [&] {
          LearnSummaries(*dataset_, decision.semi_unknown, *summaries,
                         options_.trace, iterations);
        });
        decision = evaluate();
        stat.scheduler_seconds += decision.eval_seconds;
      }
      // Record the raw model estimates: the charged (compute-floored)
      // values only break ties for the decision and would obscure the
      // cost-model shapes Figure 10 plots.
      stat.cost_on_demand = decision.serial_cost_on_demand;
      stat.cost_full = decision.serial_cost_full;
      stat.cost_semi = decision.serial_cost_semi;
      stat.active_vertices = decision.active_vertices;
      stat.active_edges = decision.active_edges;
      stat.seq_bytes = decision.seq_bytes;
      stat.rand_bytes = decision.rand_bytes;
      stat.random_requests = decision.random_requests;
      const bool sciu_usable =
          selective_healthy &&
          (options_.force_on_demand || options_.enable_selective);
      on_demand =
          sciu_usable && (options_.force_on_demand || decision.on_demand);
      semi_round = !options_.force_on_demand && decision.semi;
    } else {
      stat.active_vertices = active.Count();
    }

    RoundAccounting accounting(device, stat, report, overlap);
    GRAPHSD_RETURN_IF_ERROR(values.BeginRound(iterations));
    // `preact` is kept intact until the round commits: if the on-demand
    // attempt fails it reseeds the full-streaming redo of the same round.
    out.CopyFrom(preact);
    out_ni.Clear();

    bool cancelled_mid_round = false;
    if (semi_round) {
      Status status = semi.RunIteration(program, state, active, out, stat,
                                        &report.update_seconds);
      if (status.code() == StatusCode::kCancelled) {
        cancelled_mid_round = true;
      } else {
        GRAPHSD_RETURN_IF_ERROR(status);
        iterations += stat.iterations_covered;
        preact.Clear();
        active.Swap(out);
      }
    } else if (on_demand) {
      Status status = sciu.RunIteration(program, state, active, out, out_ni,
                                        options_.enable_cross_iteration, stat,
                                        &report.update_seconds);
      if (status.code() == StatusCode::kCancelled) {
        cancelled_mid_round = true;
      } else if (!status.ok() && (status.code() == StatusCode::kNotFound ||
                                  status.code() == StatusCode::kCorruptData)) {
        GRAPHSD_LOG_WARN(
            "iteration %u: on-demand model unusable (%s); degrading to "
            "full-streaming for the rest of the run",
            iterations, status.ToString().c_str());
        selective_healthy = false;
        ++report.degraded_rounds;
        // Discard the partial iteration and redo it under the full model:
        // restore the committed values and reseed the output frontiers.
        GRAPHSD_RETURN_IF_ERROR(values.Rollback(iterations));
        out.CopyFrom(preact);
        out_ni.Clear();
        on_demand = false;
      } else {
        GRAPHSD_RETURN_IF_ERROR(status);
        // The round may have fully pre-executed the following BSP iteration
        // (terminal cross-iteration step, see SciuExecutor); keep the
        // accounted span within the iteration budget.
        if (stat.first_iteration + stat.iterations_covered > max_iterations) {
          stat.iterations_covered = max_iterations - stat.first_iteration;
        }
        iterations += stat.iterations_covered;
        preact.Clear();
        active.Swap(out);
        preact.Swap(out_ni);
      }
    }
    if (!semi_round && !on_demand && !cancelled_mid_round) {
      const bool two = options_.enable_cross_iteration &&
                       iterations + 2 <= max_iterations;
      Status status = fciu.RunPushRound(program, state, active, out, out_ni,
                                        two, stat, &report.update_seconds);
      if (status.code() == StatusCode::kCancelled) {
        cancelled_mid_round = true;
      } else {
        GRAPHSD_RETURN_IF_ERROR(status);
        preact.Clear();
        iterations += stat.iterations_covered;
        if (stat.iterations_covered == 2) {
          active.Swap(out_ni);  // `out` was fully consumed inside the round
          if (options_.model_lumos_propagation) {
            GRAPHSD_RETURN_IF_ERROR(
                state.Persist(device, values_path + ".prop"));
            GRAPHSD_RETURN_IF_ERROR(
                state.Load(device, values_path + ".prop"));
          }
        } else {
          active.Swap(out);
        }
      }
    }

    if (cancelled_mid_round) {
      // The round never committed: frontier swaps only happen after
      // executor success, so `active`/`preact` still describe the last
      // committed boundary — restore its values and stop there. The partial
      // round's accounting is deliberately dropped (never Commit()ed).
      GRAPHSD_RETURN_IF_ERROR(values.Rollback(iterations));
      report.cancelled = true;
      report.cancel_reason = run_token.reason();
      break;
    }

    if (stat.model == RoundModel::kSemi) {
      ++report.semi_rounds;
      report.blocks_skipped += stat.blocks_skipped;
      report.blocks_skipped_bytes += stat.blocks_skipped_bytes;
    }
    GRAPHSD_RETURN_IF_ERROR(values.CommitRound(stat.first_iteration));
    accounting.Commit(options_.record_per_round);
    // Read before the round's accounting window opened: charged to it.
    ChargeToRound(summary_reads, report,
                  options_.record_per_round ? &report.per_round.back()
                                            : nullptr);
    if (options_.frontier_probe) options_.frontier_probe(iterations, active);
    if (checkpointing &&
        iterations - last_checkpoint_iteration >= checkpoint_every) {
      GRAPHSD_RETURN_IF_ERROR(write_checkpoint(iterations));
    }
  }

  GRAPHSD_RETURN_IF_ERROR(values.Finish(iterations, report));
  if (report.cancelled) {
    GRAPHSD_LOG_INFO("run cancelled at iteration %u (%s); partial report",
                     iterations, report.cancel_reason.c_str());
  }
  // Final checkpoint: on cancellation this is what `--resume` picks up; on
  // natural completion it makes a later resume a no-op re-run.
  if (checkpointing && iterations != last_checkpoint_iteration) {
    GRAPHSD_RETURN_IF_ERROR(write_checkpoint(iterations));
  }
  if (checkpointing) {
    // Join the background writer: the final boundary must be durable
    // before the report (cancelled or complete) is returned. Bytes are
    // accounted here because superseded frames never reach disk.
    WallTimer flush_timer;
    GRAPHSD_RETURN_IF_ERROR(checkpoint_writer.Flush());
    report.checkpoint_seconds += flush_timer.Seconds();
    report.checkpoint_bytes += checkpoint_writer.bytes_written();
  }

  report.iterations = iterations;
  const SubBlockBuffer::Counters buf_now = buffer->counters();
  report.buffer_hits = base.buffer_hits + (buf_now.hits - buf_before.hits);
  report.buffer_misses =
      base.buffer_misses + (buf_now.misses - buf_before.misses);
  report.buffer_bytes_saved =
      base.buffer_bytes_saved + (buf_now.bytes_saved - buf_before.bytes_saved);
  report.buffer_frame_hits = buf_now.frame_hits - buf_before.frame_hits;
  report.buffer_frame_puts = buf_now.frame_puts - buf_before.frame_puts;
  FinishCompressionReport(*dataset_, decode_before, *buffer, buf_before,
                          report);
  report.frames_decoded += base.frames_decoded;
  report.compressed_bytes_read += base.compressed_bytes_read;
  report.decoded_bytes += base.decoded_bytes;
  report.decode_seconds += base.decode_seconds;
  report.buffer_disk_bytes_saved += base.buffer_disk_bytes_saved;
  PublishRunMetrics(options_.metrics, report, device, *buffer, *prefetch);
  PublishLifecycleMetrics(options_.metrics, report, base);
  return report;
}

Result<ExecutionReport> GraphSDEngine::RunGather(GatherProgram& program) {
  const auto& manifest = dataset_->manifest();
  io::Device& device = dataset_->device();
  const std::uint64_t default_budget =
      std::max<std::uint64_t>(1, manifest.TotalEdgeBytes() / 20);

  std::unique_ptr<SubBlockBuffer> local_buffer;
  SubBlockBuffer* buffer = options_.shared_buffer;
  if (buffer == nullptr) {
    local_buffer = std::make_unique<SubBlockBuffer>(
        options_.enable_buffering ? (options_.buffer_capacity_bytes != 0
                                         ? options_.buffer_capacity_bytes
                                         : default_budget)
                                  : 0);
    buffer = local_buffer.get();
  }
  const SubBlockBuffer::Counters buf_before = buffer->counters();
  ExecContext ctx;
  ctx.dataset = dataset_;
  ctx.buffer = buffer;
  // Gather runs never choose the semi model (push-only), but they still
  // record summaries into a shared store and honor frame caching; their
  // state residency follows semi_external like a push run's.
  ctx.summaries = options_.shared_summaries;
  ctx.cache_compressed = options_.cache_compressed && dataset_->compressed();
  std::unique_ptr<io::PrefetchPipeline> local_prefetch;
  io::PrefetchPipeline* prefetch = options_.shared_prefetch;
  if (prefetch == nullptr) {
    local_prefetch =
        std::make_unique<io::PrefetchPipeline>(options_.prefetch_depth);
    prefetch = local_prefetch.get();
  }
  ctx.prefetch = prefetch;
  ctx.trace = options_.trace;
  CancellationToken run_token;
  run_token.set_parent(options_.cancel);
  if (options_.deadline_seconds > 0) {
    run_token.SetDeadline(options_.deadline_seconds);
  }
  ctx.cancel = &run_token;
  if (local_prefetch != nullptr) local_prefetch->set_cancellation(&run_token);
  FciuExecutor fciu(ctx);

  const bool checkpointing = !options_.checkpoint_dir.empty();
  CheckpointStore store(options_.checkpoint_dir);
  // Slot writes are fdatasync-bound; the async writer keeps them off the
  // round critical path (its thread starts lazily on the first submit).
  AsyncCheckpointWriter checkpoint_writer(&store);
  const std::uint32_t checkpoint_every =
      std::max<std::uint32_t>(1, options_.checkpoint_every);
  const std::uint32_t fingerprint =
      checkpointing ? DatasetFingerprint(manifest) : 0;

  const bool overlap = options_.overlap_io && prefetch->enabled();

  ExecutionReport report;
  report.engine = options_.engine_name;
  report.algorithm = program.name();
  report.dataset = manifest.name;
  report.overlap_io = overlap;
  const partition::DecodeStats decode_before = dataset_->decode_stats();

  VertexState& state = *state_;
  Frontier unused(manifest.num_vertices);
  program.Init(state, unused);

  std::uint32_t iterations = 0;
  std::uint32_t last_checkpoint_iteration = 0;
  Checkpoint base;
  if (checkpointing && options_.resume) {
    obs::TraceSpan span(options_.trace, "resume", 0);
    auto loaded = store.LoadLatest();
    if (loaded.ok()) {
      GRAPHSD_RETURN_IF_ERROR(RestoreCheckpoint(
          loaded.value(), fingerprint, program, /*gather=*/true, state,
          /*active=*/nullptr, /*preact=*/nullptr, report));
      iterations = loaded.value().iteration;
      last_checkpoint_iteration = iterations;
      base = std::move(loaded).value();
      base.arrays.clear();
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  const std::string values_path = ValuesPath(program);
  ValueStore values(options_.semi_external, state, device, values_path,
                    options_.trace);
  GRAPHSD_RETURN_IF_ERROR(values.Start());

  const std::uint32_t max_iterations =
      std::min(program.max_iterations(), options_.max_iterations);

  auto write_checkpoint = [&](std::uint32_t boundary) -> Status {
    obs::TraceSpan span(options_.trace, "checkpoint", boundary);
    WallTimer timer;
    const Checkpoint cp = MakeCheckpoint(
        fingerprint, program, /*gather=*/true, boundary, state,
        /*active=*/nullptr, /*preact=*/nullptr, report, base, *buffer,
        buf_before, *dataset_, decode_before);
    GRAPHSD_RETURN_IF_ERROR(checkpoint_writer.Submit(cp).status());
    ++report.checkpoints_written;
    report.checkpoint_seconds += timer.Seconds();
    last_checkpoint_iteration = boundary;
    return Status::Ok();
  };

  while (iterations < max_iterations) {
    if (run_token.cancelled()) {
      report.cancelled = true;
      report.cancel_reason = run_token.reason();
      break;
    }
    RoundStat stat;
    stat.first_iteration = iterations;
    stat.active_vertices = manifest.num_vertices;
    stat.active_edges = manifest.num_edges;

    RoundAccounting accounting(device, stat, report, overlap);
    GRAPHSD_RETURN_IF_ERROR(values.BeginRound(iterations));
    const bool two = options_.enable_cross_iteration &&
                     iterations + 2 <= max_iterations;
    Status status = fciu.RunGatherRound(program, state, two, stat,
                                        &report.update_seconds);
    if (status.code() == StatusCode::kCancelled) {
      // The round never committed: its columns may already have finalized
      // new values — restore the committed boundary and stop there.
      GRAPHSD_RETURN_IF_ERROR(values.Rollback(iterations));
      report.cancelled = true;
      report.cancel_reason = run_token.reason();
      break;
    }
    GRAPHSD_RETURN_IF_ERROR(status);
    iterations += stat.iterations_covered;
    if (two && options_.model_lumos_propagation) {
      GRAPHSD_RETURN_IF_ERROR(state.Persist(device, values_path + ".prop"));
      GRAPHSD_RETURN_IF_ERROR(state.Load(device, values_path + ".prop"));
    }
    GRAPHSD_RETURN_IF_ERROR(values.CommitRound(stat.first_iteration));
    accounting.Commit(options_.record_per_round);
    if (checkpointing &&
        iterations - last_checkpoint_iteration >= checkpoint_every) {
      GRAPHSD_RETURN_IF_ERROR(write_checkpoint(iterations));
    }
  }

  GRAPHSD_RETURN_IF_ERROR(values.Finish(iterations, report));
  if (report.cancelled) {
    GRAPHSD_LOG_INFO("run cancelled at iteration %u (%s); partial report",
                     iterations, report.cancel_reason.c_str());
  }
  if (checkpointing && iterations != last_checkpoint_iteration) {
    GRAPHSD_RETURN_IF_ERROR(write_checkpoint(iterations));
  }
  if (checkpointing) {
    // Join the background writer: the final boundary must be durable
    // before the report (cancelled or complete) is returned. Bytes are
    // accounted here because superseded frames never reach disk.
    WallTimer flush_timer;
    GRAPHSD_RETURN_IF_ERROR(checkpoint_writer.Flush());
    report.checkpoint_seconds += flush_timer.Seconds();
    report.checkpoint_bytes += checkpoint_writer.bytes_written();
  }

  report.iterations = iterations;
  const SubBlockBuffer::Counters buf_now = buffer->counters();
  report.buffer_hits = base.buffer_hits + (buf_now.hits - buf_before.hits);
  report.buffer_misses =
      base.buffer_misses + (buf_now.misses - buf_before.misses);
  report.buffer_bytes_saved =
      base.buffer_bytes_saved + (buf_now.bytes_saved - buf_before.bytes_saved);
  report.buffer_frame_hits = buf_now.frame_hits - buf_before.frame_hits;
  report.buffer_frame_puts = buf_now.frame_puts - buf_before.frame_puts;
  FinishCompressionReport(*dataset_, decode_before, *buffer, buf_before,
                          report);
  report.frames_decoded += base.frames_decoded;
  report.compressed_bytes_read += base.compressed_bytes_read;
  report.decoded_bytes += base.decoded_bytes;
  report.decode_seconds += base.decode_seconds;
  report.buffer_disk_bytes_saved += base.buffer_disk_bytes_saved;
  PublishRunMetrics(options_.metrics, report, device, *buffer, *prefetch);
  PublishLifecycleMetrics(options_.metrics, report, base);
  return report;
}

}  // namespace graphsd::core
