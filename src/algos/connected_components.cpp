#include "algos/connected_components.hpp"

#include "core/slot.hpp"

namespace graphsd::algos {

void ConnectedComponents::Init(core::VertexState& state,
                               core::Frontier& initial) {
  auto label = state.array(0);
  for (VertexId v = 0; v < state.num_vertices(); ++v) label[v] = v;
  initial.ActivateAll();
}

void ConnectedComponents::MakeContribution(core::VertexState& state,
                                           VertexId v,
                                           core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

bool ConnectedComponents::Apply(core::VertexState& state, VertexId src,
                                VertexId dst, Weight /*w*/,
                                core::ContribSlot slot) const {
  return core::MinU64(&state.array(0)[dst], state.contrib(slot)[src]);
}

std::uint64_t ConnectedComponents::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                              core::ContribSlot slot,
                                              const core::Frontier* guard,
                                              core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double ConnectedComponents::ValueOf(const core::VertexState& state,
                                    VertexId v) const {
  return static_cast<double>(state.array(0)[v]);
}

}  // namespace graphsd::algos
