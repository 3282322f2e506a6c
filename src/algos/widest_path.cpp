#include "algos/widest_path.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/slot.hpp"

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void WidestPath::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(root_ < state.num_vertices());
  auto width = state.array(0);
  for (auto& slot : width) slot = SlotFromDouble(0.0);  // unreached: width 0
  width[root_] = SlotFromDouble(std::numeric_limits<double>::infinity());
  initial.Activate(root_);
}

void WidestPath::MakeContribution(core::VertexState& state, VertexId v,
                                  core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

bool WidestPath::Apply(core::VertexState& state, VertexId src, VertexId dst,
                       Weight w, core::ContribSlot slot) const {
  const double src_width = SlotToDouble(state.contrib(slot)[src]);
  if (src_width <= 0.0) return false;
  // The root's width is +inf, so the bottleneck is finite whenever the
  // weight is; an inf/NaN weight on a corrupted dataset must not install a
  // non-finite width that would then dominate every later max.
  const double bottleneck = std::min(src_width, static_cast<double>(w));
  if (!std::isfinite(bottleneck) || bottleneck <= 0.0) return false;
  return core::MaxDouble(&state.array(0)[dst], bottleneck);
}

std::uint64_t WidestPath::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                     core::ContribSlot slot,
                                     const core::Frontier* guard,
                                     core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double WidestPath::ValueOf(const core::VertexState& state, VertexId v) const {
  return SlotToDouble(state.array(0)[v]);
}

}  // namespace graphsd::algos
