#include "algos/sssp.hpp"

#include <cmath>
#include <limits>

#include "core/slot.hpp"

namespace graphsd::algos {

using core::SlotFromDouble;
using core::SlotToDouble;

void Sssp::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(root_ < state.num_vertices());
  auto dist = state.array(0);
  const double inf = std::numeric_limits<double>::infinity();
  for (auto& slot : dist) slot = SlotFromDouble(inf);
  dist[root_] = SlotFromDouble(0.0);
  initial.Activate(root_);
}

void Sssp::MakeContribution(core::VertexState& state, VertexId v,
                            core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

bool Sssp::Apply(core::VertexState& state, VertexId src, VertexId dst,
                 Weight w, core::ContribSlot slot) const {
  const double src_dist = SlotToDouble(state.contrib(slot)[src]);
  if (src_dist == std::numeric_limits<double>::infinity()) return false;
  // Saturate explicitly: a sum that overflows to inf (or passes through a
  // NaN on a corrupted dataset) must never win a relaxation against an
  // unreached (inf) destination or activate it.
  const double candidate = src_dist + static_cast<double>(w);
  if (!std::isfinite(candidate)) return false;
  return core::MinDouble(&state.array(0)[dst], candidate);
}

std::uint64_t Sssp::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                               core::ContribSlot slot,
                               const core::Frontier* guard,
                               core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double Sssp::ValueOf(const core::VertexState& state, VertexId v) const {
  return SlotToDouble(state.array(0)[v]);
}

}  // namespace graphsd::algos
