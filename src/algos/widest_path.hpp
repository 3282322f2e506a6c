// Widest path / maximum-bottleneck path (push kind, weighted).
//
// width[dst] = max(width[dst], min(width[src], w)). The max-min combine is
// commutative, associative and idempotent — the third monotone combine
// class (after min-plus SSSP and min-label CC) — exercising the
// programming model beyond the paper's four algorithms. Classic uses:
// maximum-bandwidth routing, bottleneck capacity planning.
#pragma once

#include "core/program.hpp"

namespace graphsd::algos {

class WidestPath final : public core::PushProgram {
 public:
  explicit WidestPath(VertexId root) : root_(root) {}

  std::string name() const override { return "widest_path"; }
  bool needs_weights() const override { return true; }
  std::uint32_t num_value_arrays() const override { return 1; }  // width

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  bool Apply(core::VertexState& state, VertexId src, VertexId dst, Weight w,
             core::ContribSlot slot) const override;
  std::uint64_t ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                           core::ContribSlot slot, const core::Frontier* guard,
                           core::Frontier& out) const override;
  double ValueOf(const core::VertexState& state, VertexId v) const override;

 private:
  VertexId root_;
};

}  // namespace graphsd::algos
