// Personalized PageRank (push kind): PageRank with restart at a single
// source — the recommendation/similarity workload (paper §1 cites
// event-recommendation social networks).
//
// Same residual-push machinery as PageRank-Delta, but all the initial
// residual mass sits on the source: rank converges to the stationary
// distribution of a random walk that teleports back to `source` with
// probability 1-d. Activity starts at one vertex and radiates — the most
// scheduler-friendly activity profile of the library (mostly on-demand).
#pragma once

#include "core/program.hpp"

namespace graphsd::algos {

class PersonalizedPageRank final : public core::PushProgram {
 public:
  PersonalizedPageRank(VertexId source, double epsilon = 1e-10,
                       double damping = 0.85)
      : source_(source), epsilon_(epsilon), damping_(damping) {}

  std::string name() const override { return "ppr"; }
  std::uint32_t num_value_arrays() const override { return 2; }  // rank, res

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  bool Apply(core::VertexState& state, VertexId src, VertexId dst, Weight w,
             core::ContribSlot slot) const override;
  std::uint64_t ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                           core::ContribSlot slot, const core::Frontier* guard,
                           core::Frontier& out) const override;
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  VertexId source() const noexcept { return source_; }

 private:
  VertexId source_;
  double epsilon_;
  double damping_;
};

}  // namespace graphsd::algos
