#include "algos/bfs.hpp"

#include "core/slot.hpp"

namespace graphsd::algos {

void Bfs::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(root_ < state.num_vertices());
  auto level = state.array(0);
  for (auto& slot : level) slot = UINT64_MAX;
  level[root_] = 0;
  initial.Activate(root_);
}

void Bfs::MakeContribution(core::VertexState& state, VertexId v,
                           core::ContribSlot slot) const {
  state.contrib(slot)[v] = state.array(0)[v];
}

bool Bfs::Apply(core::VertexState& state, VertexId src, VertexId dst,
                Weight /*w*/, core::ContribSlot slot) const {
  const std::uint64_t src_level = state.contrib(slot)[src];
  if (src_level == UINT64_MAX) return false;
  return core::MinU64(&state.array(0)[dst], src_level + 1);
}

std::uint64_t Bfs::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                              core::ContribSlot slot,
                              const core::Frontier* guard,
                              core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double Bfs::ValueOf(const core::VertexState& state, VertexId v) const {
  return static_cast<double>(state.array(0)[v]);
}

}  // namespace graphsd::algos
