// Deterministic parallel edge application, sharded by destination vertex.
//
// The executors' combines are commutative and associative per destination,
// but floating-point combines are NOT associative across reordering — so
// chunk-claiming parallelism over the edge array (any thread may apply any
// edge) produces run-to-run nondeterminism for float programs. Sharding by
// *destination* instead makes parallel compute bit-identical to serial:
//
//   * the destination range of a pass (interval j for a sub-block pass, the
//     whole vertex space for SCIU's retained-edge step) is split into S
//     contiguous sub-ranges, one pool task each;
//   * every task scans the full edge span in file order and applies only
//     the edges whose `dst` falls in its sub-range.
//
// Each destination's updates therefore arrive in exactly the serial order
// (file order), and two tasks never touch the same destination — so the
// programs' combines are plain read-modify-writes (core/slot.hpp), with no
// reordering of any per-dst combine chain. Reads of source contributions
// are stable during a pass (contributions are sealed before it), frontier
// activation is a thread-safe per-dst bitset op, so the only cost of
// parallelism is the S-fold re-scan of the edge array — sequential traffic
// against the random-access apply work it spreads across cores.
//
// `shards <= 1`, a single-worker pool or a span below `grain` all fall back
// to the plain serial loop, which is byte-for-byte the pre-parallel code
// path.
//
// `fn` may return void or bool. A bool-returning `fn` is counted: the apply
// returns how many calls returned true, summed from per-task local counts
// after the pass, so the hot loop shares no counter between tasks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/exec_context.hpp"
#include "graph/types.hpp"
#include "partition/grid_dataset.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::core {

/// Applies `fn(edge, weight)` to edges[begin, end) (weights aligned when
/// `need_weights`), restricted per task to destinations in
/// [dst_begin, dst_end). Bit-identical to the serial loop for any shard
/// count. Returns the number of calls that returned true (0 for a void
/// `fn`).
///
/// `serialization_excess`, when non-null, accumulates (measured elapsed −
/// longest shard task) per parallel pass: the wall time lost to running
/// more shards than the machine has cores. Task cost is the task's *thread
/// CPU time*, not its wall time — on an oversubscribed host the tasks
/// time-slice, so every task's wall spans the whole pass while its CPU
/// delta is still exactly the work it did; on an adequately-cored host the
/// two coincide. It is ~0 when shards execute truly concurrently and
/// exactly 0 on the serial fallback, so `compute_seconds − excess` is the
/// compute wall a machine with >= `shards` cores would see. Strictly
/// passive — never read by the executors, never affects results or
/// decisions.
template <typename Fn>
std::uint64_t ShardedDstApplyRange(ThreadPool& pool, std::size_t shards,
                                   std::size_t grain, const Edge* edges,
                                   const Weight* weights, std::size_t begin,
                                   std::size_t end, bool need_weights,
                                   VertexId dst_begin, VertexId dst_end,
                                   Fn&& fn,
                                   double* serialization_excess = nullptr) {
  constexpr bool kCounted =
      std::is_same_v<std::invoke_result_t<Fn&, const Edge&, Weight>, bool>;
  // Applies one edge; returns 1 when a counted `fn` returned true.
  const auto apply = [&](std::size_t k) -> std::uint64_t {
    const Weight w = need_weights ? weights[k] : Weight{1};
    if constexpr (kCounted) {
      return fn(edges[k], w) ? 1 : 0;
    } else {
      fn(edges[k], w);
      return 0;
    }
  };
  const auto serial = [&] {
    std::uint64_t count = 0;
    for (std::size_t k = begin; k < end; ++k) count += apply(k);
    return count;
  };
  if (begin >= end) return 0;
  const std::uint64_t span =
      dst_end > dst_begin ? static_cast<std::uint64_t>(dst_end - dst_begin) : 0;
  const std::size_t effective = static_cast<std::size_t>(std::min<std::uint64_t>(
      std::max<std::size_t>(shards, 1), std::max<std::uint64_t>(span, 1)));
  if (effective <= 1 || pool.size() <= 1 ||
      end - begin <= std::max<std::size_t>(grain, 1)) {
    return serial();
  }
  using Clock = std::chrono::steady_clock;
  // One slot per shard start index; tasks cover disjoint [s, s_end) ranges
  // so the writes never race. Task times are only allocated when the caller
  // asked for the critical-path measurement.
  std::vector<double> task_seconds;
  if (serialization_excess != nullptr) task_seconds.assign(effective, 0);
  std::vector<std::uint64_t> task_counts(kCounted ? effective : 0, 0);
  const Clock::time_point pass_start = Clock::now();
  pool.ParallelFor(0, effective, 1, [&](std::size_t s, std::size_t s_end) {
    const double task_cpu_start =
        serialization_excess != nullptr ? ThreadCpuSeconds() : 0;
    const std::size_t task_slot = s;
    std::uint64_t count = 0;
    for (; s < s_end; ++s) {
      // 64-bit shard boundaries: span * (s + 1) stays well under 2^64 for
      // any real vertex count.
      const VertexId lo =
          dst_begin + static_cast<VertexId>(span * s / effective);
      const VertexId hi =
          dst_begin + static_cast<VertexId>(span * (s + 1) / effective);
      // The filter scan is the price of sharding (every task walks the
      // whole span), so it is the hot loop: one unsigned compare — dst−lo
      // wraps for dst < lo, landing >= width — instead of two.
      const VertexId width = hi - lo;
      for (std::size_t k = begin; k < end; ++k) {
        const Edge& edge = edges[k];
        if (static_cast<VertexId>(edge.dst - lo) >= width) continue;
        count += apply(k);
      }
    }
    if constexpr (kCounted) task_counts[task_slot] = count;
    if (serialization_excess != nullptr) {
      task_seconds[task_slot] = ThreadCpuSeconds() - task_cpu_start;
    }
  });
  if (serialization_excess != nullptr) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - pass_start).count();
    double critical = 0;
    for (const double t : task_seconds) critical = std::max(critical, t);
    *serialization_excess += std::max(0.0, elapsed - critical);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t count : task_counts) total += count;
  return total;
}

/// SubBlock convenience wrapper: applies over the whole block, destinations
/// restricted to [dst_begin, dst_end) — the block's destination interval.
template <typename Fn>
std::uint64_t ShardedDstApply(ThreadPool& pool, std::size_t shards,
                              std::size_t grain,
                              const partition::SubBlock& block,
                              bool need_weights, VertexId dst_begin,
                              VertexId dst_end, Fn&& fn,
                              double* serialization_excess = nullptr) {
  return ShardedDstApplyRange(pool, shards, grain, block.edges.data(),
                              block.weights.data(), 0, block.edges.size(),
                              need_weights, dst_begin, dst_end,
                              static_cast<Fn&&>(fn), serialization_excess);
}

/// ExecContext conveniences: pool / shard count / grain and the
/// serialization-excess accumulator all come from the context, which is
/// what every executor call site wants.
template <typename Fn>
std::uint64_t ShardedDstApplyRange(const ExecContext& ctx, const Edge* edges,
                                   const Weight* weights, std::size_t begin,
                                   std::size_t end, bool need_weights,
                                   VertexId dst_begin, VertexId dst_end,
                                   Fn&& fn) {
  return ShardedDstApplyRange(*ctx.pool, ctx.compute_shards,
                              ctx.parallel_grain, edges, weights, begin, end,
                              need_weights, dst_begin, dst_end,
                              static_cast<Fn&&>(fn), ctx.apply_excess);
}

template <typename Fn>
std::uint64_t ShardedDstApply(const ExecContext& ctx,
                              const partition::SubBlock& block,
                              bool need_weights, VertexId dst_begin,
                              VertexId dst_end, Fn&& fn) {
  return ShardedDstApplyRange(*ctx.pool, ctx.compute_shards,
                              ctx.parallel_grain, block.edges.data(),
                              block.weights.data(), 0, block.edges.size(),
                              need_weights, dst_begin, dst_end,
                              static_cast<Fn&&>(fn), ctx.apply_excess);
}

}  // namespace graphsd::core
