// Single-Source Shortest Path (push kind, weighted).
//
// Frontier-based Bellman-Ford relaxation: dist[dst] = min(dist[dst],
// dist[src] + w). Nonnegative weights; converges to exact distances. The
// only GraphSD algorithm that streams the weight files (the M+W edge-size
// case of the cost model).
#pragma once

#include "core/program.hpp"

namespace graphsd::algos {

class Sssp final : public core::PushProgram {
 public:
  explicit Sssp(VertexId root) : root_(root) {}

  std::string name() const override { return "sssp"; }
  bool needs_weights() const override { return true; }
  std::uint32_t num_value_arrays() const override { return 1; }  // dist

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  bool Apply(core::VertexState& state, VertexId src, VertexId dst, Weight w,
             core::ContribSlot slot) const override;
  std::uint64_t ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                           core::ContribSlot slot, const core::Frontier* guard,
                           core::Frontier& out) const override;
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  VertexId root() const noexcept { return root_; }

 private:
  VertexId root_;
};

}  // namespace graphsd::algos
