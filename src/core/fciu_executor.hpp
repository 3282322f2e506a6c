// Full cross-iteration update — FCIU (paper §4.2, Algorithm 3).
//
// One loading round under the full I/O model executes up to TWO BSP
// iterations. Sub-blocks are swept column-major (for j, for i): after
// column j completes, every vertex of interval j holds its final
// iteration-t value ("sealed"). Sub-block (i, j) with i < j therefore has
// fully-updated sources the moment it is streamed, so its edges also
// produce iteration t+1 values (CrossIterUpdate) using the same in-memory
// copy — no reload. The diagonal (j, j) is held in memory until its column
// seals, then cross-iterated. Only the secondary sub-blocks (i > j) must be
// touched again in the second half of the round; those are the blocks the
// priority buffer (§4.3) caches.
//
// The push variant guards every apply by frontier membership (GraphSD's
// state-awareness); the gather variant accumulates every edge (PageRank).
//
// The (j, i) sweep order of each half-round is known before any byte is
// read, so both halves run off a PrefetchStream: sub-blocks load on the
// pipeline's loader thread and decode on its decode stage while earlier
// blocks' edges are applied, one ApplyEdges/AccumulateEdges call per block.
// Blocks the priority buffer already holds are skipped at issue time
// (SubBlockBuffer::Contains) and consumed via Get() as before, keeping
// byte counts and hit/miss accounting identical to the synchronous path.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/exec_context.hpp"
#include "core/frontier.hpp"
#include "core/program.hpp"
#include "core/report.hpp"
#include "io/prefetch.hpp"
#include "util/status.hpp"

namespace graphsd::core {

class FciuExecutor {
 public:
  explicit FciuExecutor(const ExecContext& ctx) : ctx_(ctx) {}

  /// Push round. Entering: `active` is the iteration-t frontier, `out` is
  /// pre-seeded with cross-activated vertices from the previous round.
  /// With `two_iterations`: executes t and t+1; `out` is fully consumed and
  /// the next frontier is `out_ni`. Without: executes only t (plain full
  /// iteration, the GraphSD-b1 / baseline behaviour); next frontier is
  /// `out`.
  Status RunPushRound(const PushProgram& program, VertexState& state,
                      const Frontier& active, Frontier& out, Frontier& out_ni,
                      bool two_iterations, RoundStat& stat,
                      double* update_seconds);

  /// Gather round (all vertices implicitly active). With `two_iterations`
  /// advances the values by two BSP iterations in one loading round.
  Status RunGatherRound(const GatherProgram& program, VertexState& state,
                        bool two_iterations, RoundStat& stat,
                        double* update_seconds);

 private:
  /// A consumed sub-block: `block` points either into the shared buffer
  /// (then `pin` keeps the entry alive for the lifetime of this struct,
  /// even under concurrent Puts from other runs) or at the caller's local
  /// copy.
  struct FetchedBlock {
    const partition::SubBlock* block = nullptr;
    SubBlockBuffer::Pin pin;
    /// The buffer already holds this sub-block even though `block` points
    /// at the caller's local copy (a compressed entry decoded on hit) —
    /// the caller must not offer the block back.
    bool resident = false;
    /// Undecoded frame retained for a PutFrame offer after processing
    /// (cache-compressed mode, secondary sub-blocks only).
    std::vector<std::uint8_t> frame_copy;
    bool from_buffer() const noexcept { return static_cast<bool>(pin); }
  };

  /// Consumes the next planned sub-block — which must be (i, j) — through
  /// the buffer; `local` receives the block when it was not buffered (and
  /// may then be donated to the buffer).
  Result<FetchedBlock> Fetch(SubBlockStream& stream, std::uint32_t i,
                             std::uint32_t j, bool need_weights,
                             partition::SubBlock& local);

  /// Publishes (i, j)'s active-source skip summary from its decoded edges
  /// (no-op without a summary store, or once recorded).
  void RecordSummary(std::uint32_t i, std::uint32_t j,
                     const partition::SubBlock& block) const;

  ExecContext ctx_;
  /// Iteration label for trace spans recorded by fetch closures. Set at
  /// round start, before any stream is planned, and stable until the round
  /// returns, so the loader thread reads it race-free.
  std::uint32_t trace_iteration_ = 0;
};

}  // namespace graphsd::core
