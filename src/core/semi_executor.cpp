#include "core/semi_executor.hpp"

#include "util/clock.hpp"

namespace graphsd::core {

Status SemiExecutor::RunIteration(const PushProgram& program,
                                  VertexState& state, const Frontier& active,
                                  Frontier& out, RoundStat& stat,
                                  double* update_seconds) {
  const auto& dataset = *ctx_.dataset;
  const auto& manifest = dataset.manifest();
  trace_iteration_ = stat.first_iteration;
  const bool need_weights = program.needs_weights() && manifest.weighted;
  const std::uint32_t p = manifest.p;
  SkipSummaryStore* summaries = ctx_.summaries;

  {
    ScopedWallAccumulator acc(update_seconds);
    active.ForEachActive([&](std::size_t v) {
      program.MakeContribution(state, static_cast<VertexId>(v),
                               ContribSlot::kPrimary);
    });
  }

  // Active source vertices of each interval, as ascending local ids — the
  // per-row input to every skip test below.
  std::vector<std::vector<VertexId>> row_actives(p);
  for (std::uint32_t i = 0; i < p; ++i) {
    const VertexId first = manifest.boundaries[i];
    active.ForEachActiveInRange(first, manifest.boundaries[i + 1],
                                [&](std::size_t v) {
                                  row_actives[i].push_back(
                                      static_cast<VertexId>(v) - first);
                                });
  }

  // Plan the sweep up front so the survivors stream on the prefetch
  // pipeline. Two ways a sub-block is elided before any edge I/O:
  //   1. its whole source row has no active vertices;
  //   2. its recorded summary proves no active source has edges in it.
  // On an indexed dataset the engine's scheduling step has recorded every
  // summary that could prove a skip this round; otherwise anything fetched
  // is recorded from its decoded edges, so later rounds can skip it.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan;
  for (std::uint32_t j = 0; j < p; ++j) {
    for (std::uint32_t i = 0; i < p; ++i) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      if (row_actives[i].empty() ||
          (summaries != nullptr &&
           summaries->CanSkip(i, j, row_actives[i]))) {
        ++stat.blocks_skipped;
        stat.blocks_skipped_bytes +=
            dataset.SubBlockDiskBytes(i, j, need_weights);
        continue;
      }
      plan.emplace_back(i, j);
    }
  }

  SubBlockStream stream =
      MakeSubBlockStream(ctx_, plan, need_weights, trace_iteration_);

  for (const auto& [i, j] : plan) {
    if (ctx_.cancel != nullptr) {
      GRAPHSD_RETURN_IF_ERROR(ctx_.cancel->Check());
    }
    SubBlockStream::Item item = stream.Take();

    // Obtain the decoded block: buffer hit (decoding compressed entries on
    // this thread), fetched payload, or a synchronous reload when the entry
    // was evicted between issue and consume. Mirrors FciuExecutor::Fetch.
    partition::SubBlock local;
    const partition::SubBlock* block = nullptr;
    SubBlockBuffer::Pin pin;
    bool resident = false;
    std::vector<std::uint8_t> frame_copy;
    if (SubBlockBuffer::Pin cached = ctx_.buffer->Get(i, j, need_weights);
        cached) {
      if (cached.compressed()) {
        partition::SubBlockPayload payload;
        payload.frame = cached.frame();
        payload.block.weights = cached->weights;
        payload.block.disk_bytes = cached->disk_bytes;
        cached.Release();
        obs::TraceSpan span(ctx_.trace, "decode", trace_iteration_);
        GRAPHSD_RETURN_IF_ERROR(dataset.DecodeSubBlock(i, j, payload));
        local = std::move(payload.block);
        block = &local;
        resident = true;
      } else {
        block = cached.get();
        pin = std::move(cached);
      }
    } else if (item.fetched) {
      GRAPHSD_RETURN_IF_ERROR(item.status);
      // An empty frame means the decode stage already decoded (or the
      // dataset is raw) — nothing left for the consumer side.
      if (dataset.compressed() && !item.payload.frame.empty()) {
        if (ctx_.cache_compressed && !item.payload.frame.empty()) {
          frame_copy = item.payload.frame;
        }
        obs::TraceSpan span(ctx_.trace, "decode", trace_iteration_);
        GRAPHSD_RETURN_IF_ERROR(dataset.DecodeSubBlock(i, j, item.payload));
      }
      local = std::move(item.payload.block);
      block = &local;
    } else {
      obs::TraceSpan span(ctx_.trace, "edge-read", trace_iteration_);
      GRAPHSD_ASSIGN_OR_RETURN(local,
                               dataset.LoadSubBlock(i, j, need_weights));
      block = &local;
    }
    if (summaries != nullptr) {
      summaries->RecordFromEdges(i, j, block->edges, manifest.boundaries[i]);
    }

    std::uint64_t applied = 0;
    {
      obs::TraceSpan span(ctx_.trace, "compute", trace_iteration_);
      ScopedWallAccumulator acc(update_seconds);
      applied = program.ApplyEdges(
          state, EdgesOf(block->edges, block->weights, need_weights),
          ContribSlot::kPrimary, &active, out);
    }

    // Offer the block for future rounds: in semi mode every sub-block is a
    // re-read candidate, scored by the active edges it just served.
    if (!pin && !resident) {
      const std::uint64_t priority = applied;
      if (!frame_copy.empty()) {
        const std::uint64_t served = local.SizeBytes();
        partition::SubBlockPayload entry;
        entry.frame = std::move(frame_copy);
        entry.block.weights = std::move(local.weights);
        entry.block.disk_bytes = local.disk_bytes;
        ctx_.buffer->PutFrame(i, j, std::move(entry), served, priority);
      } else {
        ctx_.buffer->Put(i, j, std::move(local), priority);
      }
    }
  }

  stat.model = RoundModel::kSemi;
  stat.iterations_covered = 1;
  return Status::Ok();
}

}  // namespace graphsd::core
