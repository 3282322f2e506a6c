#include "core/fciu_executor.hpp"

#include "util/clock.hpp"

namespace graphsd::core {

Result<FciuExecutor::FetchedBlock> FciuExecutor::Fetch(
    SubBlockStream& stream, std::uint32_t i, std::uint32_t j,
    bool need_weights, partition::SubBlock& local) {
  // Cooperative-cancellation poll point: every sub-block fetch (both round
  // halves, push and gather) funnels through here, so a tripped token stops
  // the round within one sub-block's worth of work. The stream destructor
  // drains any tickets already in flight.
  if (ctx_.cancel != nullptr) {
    GRAPHSD_RETURN_IF_ERROR(ctx_.cancel->Check());
  }
  SubBlockStream::Item item = stream.Take();
  if (SubBlockBuffer::Pin cached = ctx_.buffer->Get(i, j, need_weights);
      cached) {
    // With a private per-run buffer, blocks only ever enter it when they
    // themselves are consumed, so a block absent at issue time cannot be
    // resident at consume time — a fetched payload never shadows a cached
    // copy (no double read). Under a shared buffer another run may have
    // inserted the block between issue and consume; the fetched payload is
    // then simply dropped and the cached copy (pinned, so stable) wins.
    if (cached.compressed()) {
      // Compressed entry: copy the frame (and raw weights) out of the
      // pinned entry, then decode on this thread — decode-on-hit lands on
      // the compute floor exactly like a fresh fetch's decode would.
      partition::SubBlockPayload payload;
      payload.frame = cached.frame();
      payload.block.weights = cached->weights;
      payload.block.disk_bytes = cached->disk_bytes;
      cached.Release();
      obs::TraceSpan span(ctx_.trace, "decode", trace_iteration_);
      GRAPHSD_RETURN_IF_ERROR(ctx_.dataset->DecodeSubBlock(i, j, payload));
      local = std::move(payload.block);
      RecordSummary(i, j, local);
      FetchedBlock fetched;
      fetched.block = &local;
      fetched.resident = true;
      return fetched;
    }
    RecordSummary(i, j, *cached);
    FetchedBlock fetched;
    fetched.block = cached.get();
    fetched.pin = std::move(cached);
    return fetched;
  }
  if (item.fetched) {
    GRAPHSD_RETURN_IF_ERROR(item.status);
    FetchedBlock fetched;
    // Decode on the consuming thread — unless the pipeline's decode stage
    // already did (everywhere but cache-compressed mode; the frame is then
    // gone).
    if (ctx_.dataset->compressed() && !item.payload.frame.empty()) {
      // Secondary sub-blocks may be offered back as undecoded frames
      // (cache-compressed mode); keep a copy before decode releases it.
      if (ctx_.cache_compressed && i > j && !item.payload.frame.empty()) {
        fetched.frame_copy = item.payload.frame;
      }
      obs::TraceSpan span(ctx_.trace, "decode", trace_iteration_);
      GRAPHSD_RETURN_IF_ERROR(ctx_.dataset->DecodeSubBlock(i, j, item.payload));
    }
    local = std::move(item.payload.block);
    RecordSummary(i, j, local);
    fetched.block = &local;
    return fetched;
  }
  // Resident at issue time but evicted before consumption: fall back to a
  // synchronous load, exactly what the synchronous path would have done.
  obs::TraceSpan span(ctx_.trace, "edge-read", trace_iteration_);
  GRAPHSD_ASSIGN_OR_RETURN(local,
                           ctx_.dataset->LoadSubBlock(i, j, need_weights));
  RecordSummary(i, j, local);
  FetchedBlock fetched;
  fetched.block = &local;
  return fetched;
}

void FciuExecutor::RecordSummary(std::uint32_t i, std::uint32_t j,
                                 const partition::SubBlock& block) const {
  if (ctx_.summaries == nullptr) return;
  ctx_.summaries->RecordFromEdges(i, j, block.edges,
                                  ctx_.dataset->manifest().boundaries[i]);
}

Status FciuExecutor::RunPushRound(const PushProgram& program,
                                  VertexState& state, const Frontier& active,
                                  Frontier& out, Frontier& out_ni,
                                  bool two_iterations, RoundStat& stat,
                                  double* update_seconds) {
  const auto& dataset = *ctx_.dataset;
  const auto& manifest = dataset.manifest();
  trace_iteration_ = stat.first_iteration;
  const bool need_weights = program.needs_weights() && manifest.weighted;
  const std::uint32_t p = manifest.p;

  // Iteration-t contributions of the active frontier.
  {
    ScopedWallAccumulator acc(update_seconds);
    active.ForEachActive([&](std::size_t v) {
      program.MakeContribution(state, static_cast<VertexId>(v),
                               ContribSlot::kPrimary);
    });
  }

  // --- first half: iteration t over all sub-blocks, column-major ----------
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan;
  for (std::uint32_t j = 0; j < p; ++j) {
    for (std::uint32_t i = 0; i < p; ++i) {
      if (manifest.EdgesIn(i, j) != 0) plan.emplace_back(i, j);
    }
  }
  SubBlockStream stream =
      MakeSubBlockStream(ctx_, plan, need_weights, trace_iteration_);
  for (std::uint32_t j = 0; j < p; ++j) {
    partition::SubBlock diagonal;  // (j, j) held until the column seals
    bool have_diagonal = false;

    for (std::uint32_t i = 0; i < p; ++i) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      partition::SubBlock local;
      GRAPHSD_ASSIGN_OR_RETURN(FetchedBlock fetched,
                               Fetch(stream, i, j, need_weights, local));
      const partition::SubBlock* block = fetched.block;
      const bool from_buffer = fetched.from_buffer();

      // UserFunction pass (iteration t), guarded by the active frontier.
      // Its count of active-source edges is the block's buffer priority.
      const EdgeSpan edges =
          EdgesOf(block->edges, block->weights, need_weights);
      std::uint64_t provisional_priority = 0;
      {
        obs::TraceSpan span(ctx_.trace, "compute", trace_iteration_);
        ScopedWallAccumulator acc(update_seconds);
        provisional_priority = program.ApplyEdges(
            state, edges, ContribSlot::kPrimary, &active, out);
      }

      if (two_iterations && i < j) {
        // CrossIterUpdate: interval i sealed when column i completed, so
        // these edges produce iteration t+1 values from the same copy.
        obs::TraceSpan span(ctx_.trace, "cross-iter-update", trace_iteration_);
        ScopedWallAccumulator acc(update_seconds);
        program.ApplyEdges(state, edges, ContribSlot::kSecondary, &out,
                           out_ni);
      }

      if (i == j && two_iterations) {
        if (from_buffer) {
          diagonal = *block;  // copy; buffer retains its entry
        } else {
          diagonal = std::move(local);
        }
        have_diagonal = true;
      } else if (i > j && !from_buffer && !fetched.resident) {
        // Secondary sub-block: offer it to the priority buffer for the
        // second half of the round (and future rounds). In cache-compressed
        // mode the undecoded frame is offered instead of the decoded edges
        // — the same budget then holds ~codec-ratio more sub-blocks.
        const std::uint64_t priority = provisional_priority;
        if (!fetched.frame_copy.empty()) {
          const std::uint64_t served = local.SizeBytes();
          partition::SubBlockPayload entry;
          entry.frame = std::move(fetched.frame_copy);
          entry.block.weights = std::move(local.weights);
          entry.block.disk_bytes = local.disk_bytes;
          ctx_.buffer->PutFrame(i, j, std::move(entry), served, priority);
        } else {
          ctx_.buffer->Put(i, j, std::move(local), priority);
        }
      }
    }

    // Column j complete: interval j sealed for iteration t.
    if (two_iterations) {
      obs::TraceSpan span(ctx_.trace, "cross-iter-update", trace_iteration_);
      {
        ScopedWallAccumulator acc(update_seconds);
        out.ForEachActiveInRange(
            manifest.boundaries[j], manifest.boundaries[j + 1],
            [&](std::size_t v) {
              program.MakeContribution(state, static_cast<VertexId>(v),
                                       ContribSlot::kSecondary);
            });
      }
      if (have_diagonal) {
        ScopedWallAccumulator acc(update_seconds);
        program.ApplyEdges(
            state, EdgesOf(diagonal.edges, diagonal.weights, need_weights),
            ContribSlot::kSecondary, &out, out_ni);
      }
    }
  }

  if (!two_iterations) {
    stat.model = RoundModel::kPlainFull;
    stat.iterations_covered = 1;
    return Status::Ok();
  }

  // Re-score buffer priorities now that `out` (the t+1 frontier) is final:
  // a cached secondary block is worth keeping in proportion to the edges it
  // will serve in the second half. One atomic sweep under the buffer lock.
  ctx_.buffer->Rescore([&](std::uint32_t, std::uint32_t,
                           const partition::SubBlock& block) {
    std::uint64_t priority = 0;
    for (const Edge& edge : block.edges) {
      if (out.IsActive(edge.src)) ++priority;
    }
    return priority;
  });

  // --- second half: iteration t+1 over the secondary sub-blocks (i > j) ---
  if (!out.Empty()) {
    // `out` is final, so the second-half sweep (and its row skips) is fully
    // known up front and can stream ahead of the applies.
    plan.clear();
    for (std::uint32_t i = 1; i < p; ++i) {
      if (out.CountInRange(manifest.boundaries[i],
                           manifest.boundaries[i + 1]) == 0) {
        continue;
      }
      for (std::uint32_t j = 0; j < i; ++j) {
        if (manifest.EdgesIn(i, j) != 0) plan.emplace_back(i, j);
      }
    }
    SubBlockStream second(
        MakeSubBlockStream(ctx_, plan, need_weights, trace_iteration_));
    for (std::uint32_t i = 1; i < p; ++i) {
      if (out.CountInRange(manifest.boundaries[i], manifest.boundaries[i + 1]) ==
          0) {
        continue;  // no sealed sources in this row — nothing to push
      }
      for (std::uint32_t j = 0; j < i; ++j) {
        if (manifest.EdgesIn(i, j) == 0) continue;
        partition::SubBlock local;
        GRAPHSD_ASSIGN_OR_RETURN(FetchedBlock fetched,
                                 Fetch(second, i, j, need_weights, local));
        const partition::SubBlock* block = fetched.block;
        obs::TraceSpan span(ctx_.trace, "cross-iter-update", trace_iteration_);
        ScopedWallAccumulator acc(update_seconds);
        program.ApplyEdges(
            state, EdgesOf(block->edges, block->weights, need_weights),
            ContribSlot::kSecondary, &out, out_ni);
      }
    }
  }

  stat.model = RoundModel::kFciu;
  // The round only spans two BSP iterations when iteration t actually
  // produced a t+1 frontier; with `out` empty the second half was vacuous
  // and the round degenerates to a single iteration.
  stat.iterations_covered = out.Empty() ? 1 : 2;
  return Status::Ok();
}

Status FciuExecutor::RunGatherRound(const GatherProgram& program,
                                    VertexState& state, bool two_iterations,
                                    RoundStat& stat, double* update_seconds) {
  const auto& dataset = *ctx_.dataset;
  const auto& manifest = dataset.manifest();
  trace_iteration_ = stat.first_iteration;
  const bool need_weights = program.needs_weights() && manifest.weighted;
  const std::uint32_t p = manifest.p;
  const VertexId n = manifest.num_vertices;

  {
    ScopedWallAccumulator acc(update_seconds);
    for (VertexId v = 0; v < n; ++v) {
      program.MakeContribution(state, v, ContribSlot::kPrimary);
    }
    program.ResetAccum(state, AccumSlot::kA);
    if (two_iterations) program.ResetAccum(state, AccumSlot::kB);
  }

  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan;
  for (std::uint32_t j = 0; j < p; ++j) {
    for (std::uint32_t i = 0; i < p; ++i) {
      if (manifest.EdgesIn(i, j) != 0) plan.emplace_back(i, j);
    }
  }
  SubBlockStream stream =
      MakeSubBlockStream(ctx_, plan, need_weights, trace_iteration_);
  for (std::uint32_t j = 0; j < p; ++j) {
    partition::SubBlock diagonal;
    bool have_diagonal = false;

    for (std::uint32_t i = 0; i < p; ++i) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      partition::SubBlock local;
      GRAPHSD_ASSIGN_OR_RETURN(FetchedBlock fetched,
                               Fetch(stream, i, j, need_weights, local));
      const partition::SubBlock* block = fetched.block;
      const bool from_buffer = fetched.from_buffer();

      {
        obs::TraceSpan span(ctx_.trace, "compute", trace_iteration_);
        ScopedWallAccumulator acc(update_seconds);
        const EdgeSpan edges =
            EdgesOf(block->edges, block->weights, need_weights);
        if (two_iterations && i < j) {
          // Interval i sealed when column i completed: one pass feeds
          // iteration t (kA) and t+1 (kB).
          program.AccumulateEdgesBoth(state, edges);
        } else {
          program.AccumulateEdges(state, edges, ContribSlot::kPrimary,
                                  AccumSlot::kA);
        }
      }

      if (i == j && two_iterations) {
        if (from_buffer) {
          diagonal = *block;
        } else {
          diagonal = std::move(local);
        }
        have_diagonal = true;
      } else if (i > j && !from_buffer && !fetched.resident) {
        // All edges are live in gather mode: priority = edge count.
        const std::uint64_t priority = local.edges.size();
        if (!fetched.frame_copy.empty()) {
          const std::uint64_t served = local.SizeBytes();
          partition::SubBlockPayload entry;
          entry.frame = std::move(fetched.frame_copy);
          entry.block.weights = std::move(local.weights);
          entry.block.disk_bytes = local.disk_bytes;
          ctx_.buffer->PutFrame(i, j, std::move(entry), served, priority);
        } else {
          ctx_.buffer->Put(i, j, std::move(local), priority);
        }
      }
    }

    {
      ScopedWallAccumulator acc(update_seconds);
      program.Finalize(state, manifest.boundaries[j], manifest.boundaries[j + 1],
                       AccumSlot::kA);
      if (two_iterations) {
        for (VertexId v = manifest.boundaries[j]; v < manifest.boundaries[j + 1];
             ++v) {
          program.MakeContribution(state, v, ContribSlot::kSecondary);
        }
        if (have_diagonal) {
          program.AccumulateEdges(
              state, EdgesOf(diagonal.edges, diagonal.weights, need_weights),
              ContribSlot::kSecondary, AccumSlot::kB);
        }
      }
    }
  }

  if (!two_iterations) {
    stat.model = RoundModel::kPlainFull;
    stat.iterations_covered = 1;
    return Status::Ok();
  }

  plan.clear();
  for (std::uint32_t i = 1; i < p; ++i) {
    for (std::uint32_t j = 0; j < i; ++j) {
      if (manifest.EdgesIn(i, j) != 0) plan.emplace_back(i, j);
    }
  }
  SubBlockStream second(
      MakeSubBlockStream(ctx_, plan, need_weights, trace_iteration_));
  for (std::uint32_t i = 1; i < p; ++i) {
    for (std::uint32_t j = 0; j < i; ++j) {
      if (manifest.EdgesIn(i, j) == 0) continue;
      partition::SubBlock local;
      GRAPHSD_ASSIGN_OR_RETURN(FetchedBlock fetched,
                               Fetch(second, i, j, need_weights, local));
      const partition::SubBlock* block = fetched.block;
      obs::TraceSpan span(ctx_.trace, "cross-iter-update", trace_iteration_);
      ScopedWallAccumulator acc(update_seconds);
      program.AccumulateEdges(
          state, EdgesOf(block->edges, block->weights, need_weights),
          ContribSlot::kSecondary, AccumSlot::kB);
    }
  }
  {
    ScopedWallAccumulator acc(update_seconds);
    program.Finalize(state, 0, n, AccumSlot::kB);
  }

  stat.model = RoundModel::kFciu;
  stat.iterations_covered = 2;
  return Status::Ok();
}

}  // namespace graphsd::core
