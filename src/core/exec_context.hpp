// Shared execution context handed to the update-model executors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/skip_summary.hpp"
#include "core/sub_block_buffer.hpp"
#include "io/prefetch.hpp"
#include "obs/trace.hpp"
#include "partition/grid_dataset.hpp"
#include "util/cancellation.hpp"

namespace graphsd::core {

struct ExecContext {
  const partition::GridDataset* dataset = nullptr;
  /// May be a disabled (capacity 0) buffer; never null.
  SubBlockBuffer* buffer = nullptr;
  /// Asynchronous read pipeline. May be null or disabled (depth 0), in
  /// which case the executors run their fetches inline (synchronous path).
  io::PrefetchPipeline* prefetch = nullptr;
  /// Phase-trace sink. Null (the default) disables tracing entirely; spans
  /// then cost one pointer compare. Strictly passive — attaching a buffer
  /// never changes bytes read, decisions or results.
  obs::TraceBuffer* trace = nullptr;
  /// Memory budget for SCIU's in-memory retention of loaded active edges
  /// (the precondition for its cross-iteration step).
  std::uint64_t memory_budget_bytes = 0;
  /// Edges per sharded task of core/sharded_apply.hpp. Nothing under src/
  /// reads it; the frozen benchmark harness's sharded-apply probe does, and
  /// it goes when a benchmark change retires that probe.
  static constexpr std::size_t parallel_grain = 16384;
  /// Cooperative-cancellation token polled at fetch boundaries (before each
  /// sub-block / pass load, never per edge). Null = not cancellable. A
  /// tripped token makes the executor return kCancelled without committing
  /// the round; the engine then rolls back to the last committed iteration
  /// boundary.
  const CancellationToken* cancel = nullptr;
  /// Active-source skip summaries (DESIGN.md §14). Null disables both
  /// recording and skipping. Executors record a sub-block's summary
  /// whenever its decoded edges are in hand; the semi-external executor
  /// additionally consults it to skip sub-blocks before any edge I/O.
  SkipSummaryStore* summaries = nullptr;
  /// Cache compressed GSDF frames in the sub-block buffer instead of
  /// decoded edges (decode-on-hit): ~codec-ratio more sub-blocks fit the
  /// same byte budget, at one decode per hit charged to compute. No effect
  /// on raw datasets.
  bool cache_compressed = false;
};

/// Whole-sub-block prefetch stream (FCIU and semi-external passes).
using SubBlockStream = io::PrefetchStream<partition::SubBlockPayload>;

/// A stream over an ordered (i, j) plan of whole-sub-block fetches. Each
/// unit's skip probe is buffer residency; its read runs on the loader and
/// its frame decode on the pipeline's decode stage, into an edge vector
/// sized on the issuing thread. In cache-compressed mode the frame stays
/// undecoded: the consumer needs it for its buffer offer, and decodes it
/// there.
inline SubBlockStream MakeSubBlockStream(
    const ExecContext& ctx,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& plan,
    bool need_weights, std::uint32_t iteration) {
  const partition::GridDataset* dataset = ctx.dataset;
  const bool decode_stage = dataset->compressed() && !ctx.cache_compressed;
  std::vector<SubBlockStream::Unit> units;
  units.reserve(plan.size());
  for (const auto& [i, j] : plan) {
    SubBlockStream::Unit unit;
    unit.skip = [buffer = ctx.buffer, i = i, j = j] {
      return buffer->Contains(i, j);
    };
    unit.fetch = [dataset, i = i, j = j, need_weights, trace = ctx.trace,
                  iteration](partition::SubBlockPayload& out) {
      obs::TraceSpan span(trace, "edge-read", iteration);
      return dataset->FetchSubBlock(i, j, need_weights, out);
    };
    if (decode_stage) {
      unit.prepare = [edges = dataset->manifest().EdgesIn(i, j)](
                         partition::SubBlockPayload& out) {
        out.block.edges.reserve(edges);
      };
      unit.decode = [dataset, i = i, j = j, trace = ctx.trace,
                     iteration](partition::SubBlockPayload& out) {
        obs::TraceSpan span(trace, "decode", iteration);
        return dataset->DecodeSubBlock(i, j, out);
      };
    }
    units.push_back(std::move(unit));
  }
  return SubBlockStream(ctx.prefetch, std::move(units));
}

}  // namespace graphsd::core
