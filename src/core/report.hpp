// Execution reports: the measurement record every engine returns.
// Figures 5–7 and 9–12 of the paper are produced from these fields.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/io_stats.hpp"

namespace graphsd::core {

/// Which update model executed a round.
enum class RoundModel : char {
  kSciu = 'S',       // selective cross-iteration update (1 iteration)
  kFciu = 'F',       // full cross-iteration update (2 iterations)
  kPlainFull = 'P',  // full I/O, no cross-iteration (1 iteration)
  kSemi = 'M',       // semi-external: RAM state + skip-summary streaming
  kSkipped = '-',    // empty-frontier iteration consumed without I/O
};

/// Per-round measurements (Figure 10's per-iteration series).
struct RoundStat {
  std::uint32_t first_iteration = 0;  // BSP iteration index the round starts
  std::uint32_t iterations_covered = 1;
  RoundModel model = RoundModel::kPlainFull;
  std::uint64_t active_vertices = 0;
  std::uint64_t active_edges = 0;      // scheduler estimate
  double io_seconds = 0;               // modeled
  double compute_seconds = 0;          // measured wall
  // Pipelined charge of the round: max(compute, io) when the prefetch
  // pipeline overlapped the two, compute + io otherwise.
  double overlapped_seconds = 0;
  double scheduler_seconds = 0;        // benefit-evaluation overhead
  double cost_on_demand = 0;           // scheduler estimate C_r
  double cost_full = 0;                // scheduler estimate C_s
  double cost_semi = 0;                // scheduler estimate C_m (0 = not costed)
  // Semi-external selective streaming: sub-blocks proven source-inactive by
  // their skip summary and elided before any edge I/O, and the on-disk
  // bytes those elisions avoided.
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_skipped_bytes = 0;
  // The cost-model inputs behind C_r, recorded so run reports can replay
  // the schedule decision: bytes the on-demand estimate would read
  // sequentially (S_seq) vs randomly (S_ran), and the request count.
  std::uint64_t seq_bytes = 0;         // S_seq
  std::uint64_t rand_bytes = 0;        // S_ran
  std::uint64_t random_requests = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_bytes = 0;
};

struct ExecutionReport {
  std::string engine;
  std::string algorithm;
  std::string dataset;

  std::uint32_t iterations = 0;  // logical BSP iterations executed
  std::uint32_t rounds = 0;      // loading rounds

  double compute_seconds = 0;    // measured wall (total)
  double update_seconds = 0;     // measured wall inside edge/vertex updates
  double io_seconds = 0;         // modeled I/O time
  double scheduler_seconds = 0;  // total benefit-evaluation overhead (Fig 11)

  io::IoStatsSnapshot io;        // traffic (Fig 7)

  std::uint64_t buffer_hits = 0;    // sub-blocks served from the buffer
  std::uint64_t buffer_misses = 0;  // sub-blocks (re)loaded from disk
  std::uint64_t buffer_bytes_saved = 0;
  // On-disk bytes buffer hits avoided re-reading (differs from
  // buffer_bytes_saved exactly by the compression ratio of cached frames).
  std::uint64_t buffer_disk_bytes_saved = 0;
  // Compressed-frame caching (DESIGN.md §14): hits served as an undecoded
  // frame (decoded on the consumer's thread) and frame entries inserted.
  std::uint64_t buffer_frame_hits = 0;
  std::uint64_t buffer_frame_puts = 0;

  // Semi-external rounds (DESIGN.md §14): totals of the per-round skip
  // counters — sub-blocks elided by their active-source summary before any
  // edge I/O, and the on-disk bytes those elisions avoided.
  std::uint32_t semi_rounds = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_skipped_bytes = 0;

  // Edge-payload compression (codec negotiated from the dataset manifest;
  // "none" = raw layout). The counters are this run's decode-side deltas:
  // frames decoded on the compute side, on-disk frame bytes in, raw edge
  // bytes out, and the wall time decode cost (already inside
  // compute_seconds — decode runs on the consuming thread).
  std::string codec = "none";
  std::uint64_t frames_decoded = 0;
  std::uint64_t compressed_bytes_read = 0;
  std::uint64_t decoded_bytes = 0;
  double decode_seconds = 0;

  // Rounds that fell back from the on-demand to the full-streaming model
  // after an index read failed (missing file or checksum mismatch).
  std::uint32_t degraded_rounds = 0;

  // Overlap-aware accounting: true when the run executed with the prefetch
  // pipeline and charges each round max(compute, io) instead of the sum.
  // Byte counts and results are identical either way — only the time
  // charging differs.
  bool overlap_io = false;
  double overlapped_seconds = 0;  // sum of per-round pipelined charges

  // --- Run lifecycle (DESIGN.md §12) -------------------------------------
  // A cancelled run (Ctrl-C, deadline, external token) still returns a
  // report: partial results up to the last committed iteration boundary.
  bool cancelled = false;
  std::string cancel_reason;
  // Resumed from a checkpoint at `resume_iteration`; cumulative fields
  // (iterations, rounds, seconds, io) cover the whole logical run, while
  // per_round restarts at the resume point.
  bool resumed = false;
  std::uint32_t resume_iteration = 0;
  // Checkpoint overhead (wall time; checkpoint I/O bypasses the modeled
  // device on purpose, so it appears here and nowhere in `io`).
  std::uint32_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
  double checkpoint_seconds = 0;

  std::vector<RoundStat> per_round;

  /// The serial charge: modeled I/O + measured compute, each paid in full.
  double SerialSeconds() const noexcept { return compute_seconds + io_seconds; }

  /// The headline number: per-round max(compute, io) under overlap-aware
  /// accounting, the serial sum otherwise.
  double TotalSeconds() const noexcept {
    return overlap_io ? overlapped_seconds : SerialSeconds();
  }

  /// "Other" time of the Figure 6 breakdown.
  double OtherSeconds() const noexcept {
    const double other = compute_seconds - update_seconds;
    return other > 0 ? other : 0;
  }

  /// Multi-line human-readable summary.
  std::string Summary() const;
};

}  // namespace graphsd::core
