// Semi-external-memory update model (DESIGN.md §14, GraphMP direction).
//
// The engine keeps the whole vertex state RAM-resident in semi mode, so a
// round pays no per-round |V|·N state read/write. Edges still stream from
// disk — but selectively: before any edge I/O, each sub-block (i, j) is
// tested against its active-source summary (an exact bitset over interval
// i's source vertices, SkipSummaryStore). A sub-block none of whose sources
// are active is elided entirely; the round counts it (and the on-disk bytes
// it would have read) in RoundStat::blocks_skipped[_bytes].
//
// Rounds execute exactly ONE plain BSP iteration, column-major like the
// FCIU first half, with every apply guarded by frontier membership — so a
// semi round is bitwise-equivalent to a plain full round over the same
// frontier (the difftest `semi` axis asserts this).
//
// On an indexed dataset the engine, while scheduling a round, records from
// the CSR source indexes the unknown summaries that could prove a skip and
// change the decision (one small accounted read per sub-block, see
// SchedulerDecision::semi_unknown); otherwise a sub-block's summary is
// recorded from its decoded edges the first time it is fetched. Summaries
// are dataset-static, so a shared store (the `graphsd serve` registry tier)
// lets every run skip what any run has learned.
//
// Fetched sub-blocks flow through the same priority buffer and prefetch
// pipeline as FCIU, including compressed-frame caching with decode-on-hit.
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

class SemiExecutor {
 public:
  explicit SemiExecutor(const ExecContext& ctx) : ctx_(ctx) {}

  /// Runs one plain BSP iteration over the sub-blocks that survive the
  /// skip tests. `stat` receives model = kSemi, iterations_covered = 1 and
  /// the skip counters.
  Status RunIteration(const PushProgram& program, VertexState& state,
                      const Frontier& active, Frontier& out, RoundStat& stat,
                      double* update_seconds);

 private:
  ExecContext ctx_;
  std::uint32_t trace_iteration_ = 0;
};

}  // namespace graphsd::core
