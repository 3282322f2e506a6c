// Splits one engine job's wall time across the library's layers, using
// the spans the engine records into an attached obs::TraceBuffer.
//
// The job's interval is cut at every span boundary. Each piece goes to
// exactly one layer:
//   1. the innermost span open on the engine thread (the thread that
//      called GraphSDEngine::Run), if any;
//   2. otherwise the most recently opened span on any other thread (the
//      prefetch loader or a pool worker): the engine thread is then either
//      waiting on that work or doing untraced bookkeeping beside it;
//   3. otherwise `unattributed`.
// The layer times plus `unattributed` therefore sum to the job's wall by
// construction (`residual_seconds` only guards the sweep's arithmetic).
// Rule 2 moves engine-thread time that no span covers out of
// `unattributed` and into another thread's layer, so the time it charges
// is kept apart as `borrowed_seconds` and reported: a small unattributed
// share means little only while the borrowed share is small too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// The per-layer metric a span name is charged to ("" = unattributed).
const char* LayerOfSpan(const char* span_name);

/// Every layer LayerOfSpan can return, in report order.
const std::vector<std::string>& AttributedLayers();

struct LayerSplit {
  double wall_seconds = 0;
  std::map<std::string, double> layer_seconds;  // keyed by metric name
  double unattributed_seconds = 0;
  /// The part of the layer times charged by rule 2: the engine thread had
  /// no span open while another thread did.
  double borrowed_seconds = 0;
  /// |wall − Σ layers − unattributed|: zero up to rounding when the split
  /// is a partition of the wall.
  double residual_seconds = 0;
};

/// Attributes [begin_us, end_us] (TraceBuffer clock) given the events of
/// one job and the dense thread index of the engine thread.
LayerSplit Attribute(const std::vector<graphsd::obs::TraceEvent>& events,
                     std::uint32_t engine_tid, double begin_us, double end_us);

}  // namespace perfbench
