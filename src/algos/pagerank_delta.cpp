#include "algos/pagerank_delta.hpp"

#include "core/slot.hpp"

namespace graphsd::algos {

using core::AddDouble;
using core::SlotFromDouble;
using core::SlotToDouble;

namespace {
constexpr std::uint32_t kRank = 0;
constexpr std::uint32_t kResidual = 1;
}  // namespace

void PageRankDelta::Init(core::VertexState& state, core::Frontier& initial) {
  const VertexId n = state.num_vertices();
  auto rank = state.array(kRank);
  auto residual = state.array(kResidual);
  const double seed = (1.0 - damping_) / n;
  for (VertexId v = 0; v < n; ++v) {
    rank[v] = SlotFromDouble(0.0);
    residual[v] = SlotFromDouble(seed);
  }
  threshold_ = relative_epsilon_ ? epsilon_ * seed : epsilon_;
  initial.ActivateAll();
}

void PageRankDelta::MakeContribution(core::VertexState& state, VertexId v,
                                     core::ContribSlot slot) const {
  auto rank = state.array(kRank);
  auto residual = state.array(kResidual);
  const double res = SlotToDouble(residual[v]);
  // Consume: the residual moves into the rank and is split across edges.
  residual[v] = SlotFromDouble(0.0);
  rank[v] = SlotFromDouble(SlotToDouble(rank[v]) + res);
  const std::uint32_t degree = (*out_degrees_)[v];
  state.contrib(slot)[v] =
      SlotFromDouble(degree == 0 ? 0.0 : damping_ * res / degree);
}

bool PageRankDelta::Apply(core::VertexState& state, VertexId src, VertexId dst,
                          Weight /*w*/, core::ContribSlot slot) const {
  const double share = SlotToDouble(state.contrib(slot)[src]);
  if (share == 0.0) return false;
  const double updated = AddDouble(&state.array(kResidual)[dst], share);
  return updated > threshold_;
}

std::uint64_t PageRankDelta::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                        core::ContribSlot slot,
                                        const core::Frontier* guard,
                                        core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double PageRankDelta::ValueOf(const core::VertexState& state,
                              VertexId v) const {
  // Rank plus any unconsumed residual: the value the algorithm would settle
  // on if the remaining (sub-epsilon) mass were folded in.
  return SlotToDouble(state.array(kRank)[v]) +
         SlotToDouble(state.array(kResidual)[v]);
}

}  // namespace graphsd::algos
