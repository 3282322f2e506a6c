// Destination-sharded edge application over a thread pool.
//
// Nothing under src/ calls this: every executor applies edges serially in
// file order (DESIGN.md §15). It survives only because the frozen benchmark
// harness's `core.apply_medges_s.sharded` probe calls it, and it goes when
// a benchmark change retires that probe.
//
// The destination range [dst_begin, dst_end) is split into `shards`
// contiguous sub-ranges, one pool task each; every task scans the whole
// block in file order and applies only the edges whose `dst` falls in its
// sub-range. Each destination therefore sees its edges in exactly the
// serial order, and no two tasks write the same destination. `shards <= 1`,
// a single-worker pool or a block of at most `grain` edges run the plain
// serial loop.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/exec_context.hpp"  // parallel_grain, read by the same probe
#include "graph/types.hpp"
#include "partition/grid_dataset.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::core {

/// Applies `fn(edge, weight)` to every edge of `block` (weight 1 unless
/// `need_weights`), sharded by destination over `pool`. Bit-identical to
/// the serial loop for any shard count. Not called by the engine; see the
/// header comment.
template <typename Fn>
void ShardedDstApply(ThreadPool& pool, std::size_t shards, std::size_t grain,
                     const partition::SubBlock& block, bool need_weights,
                     VertexId dst_begin, VertexId dst_end, Fn&& fn) {
  const std::size_t count = block.edges.size();
  const auto apply = [&](std::size_t k) {
    fn(block.edges[k], need_weights ? block.weights[k] : Weight{1});
  };
  const std::uint64_t span =
      dst_end > dst_begin ? static_cast<std::uint64_t>(dst_end - dst_begin) : 0;
  const std::size_t effective = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::max<std::size_t>(shards, 1), std::max<std::uint64_t>(span, 1)));
  if (effective <= 1 || pool.size() <= 1 ||
      count <= std::max<std::size_t>(grain, 1)) {
    for (std::size_t k = 0; k < count; ++k) apply(k);
    return;
  }
  pool.ParallelFor(0, effective, 1, [&](std::size_t s, std::size_t s_end) {
    for (; s < s_end; ++s) {
      const VertexId lo =
          dst_begin + static_cast<VertexId>(span * s / effective);
      const VertexId hi =
          dst_begin + static_cast<VertexId>(span * (s + 1) / effective);
      // One unsigned compare: dst − lo wraps for dst < lo, landing >= width.
      const VertexId width = hi - lo;
      for (std::size_t k = 0; k < count; ++k) {
        if (static_cast<VertexId>(block.edges[k].dst - lo) < width) apply(k);
      }
    }
  });
}

}  // namespace graphsd::core
