// Breadth-First Search (push kind): hop count from a root via min-level
// propagation. The paper's motivating example of a shrinking frontier.
#pragma once

#include "core/program.hpp"

namespace graphsd::algos {

class Bfs final : public core::PushProgram {
 public:
  explicit Bfs(VertexId root) : root_(root) {}

  std::string name() const override { return "bfs"; }
  std::uint32_t num_value_arrays() const override { return 1; }  // level

  void Init(core::VertexState& state, core::Frontier& initial) override;
  void MakeContribution(core::VertexState& state, VertexId v,
                        core::ContribSlot slot) const override;
  bool Apply(core::VertexState& state, VertexId src, VertexId dst, Weight w,
             core::ContribSlot slot) const override;
  std::uint64_t ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                           core::ContribSlot slot, const core::Frontier* guard,
                           core::Frontier& out) const override;
  double ValueOf(const core::VertexState& state, VertexId v) const override;

  /// Level of `v` after a run; UINT64_MAX when unreached.
  static std::uint64_t LevelOf(const core::VertexState& state, VertexId v) {
    return state.array(0)[v];
  }

 private:
  VertexId root_;
};

}  // namespace graphsd::algos
