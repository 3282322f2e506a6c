// PageRank-Delta (push kind) — paper §5.1: "vertices are activated in an
// iteration only if they have accumulated enough changes in their PR
// values".
//
// Residual/push formulation: each vertex keeps (rank, residual).
// When active, it folds its residual into its rank and pushes
// d·residual/outdeg to each out-neighbor's residual; a vertex activates
// when its residual exceeds `epsilon`. Converges to the PageRank fixpoint.
// Residual addition is a commutative sum, so cross-iteration pushes are
// exact.
#pragma once

#include "core/program.hpp"

namespace graphsd::algos {

class PageRankDelta final : public core::PushProgram {
 public:
  /// With `relative_epsilon`, the activation threshold is
  /// `epsilon * (1-d)/|V|` — a fixed fraction of the per-vertex seed
  /// residual, which keeps the activity profile invariant across graph
  /// sizes. Otherwise `epsilon` is the absolute residual threshold.
  explicit PageRankDelta(double epsilon = 1e-9, double damping = 0.85,
                         std::uint32_t max_iterations = UINT32_MAX,
                         bool relative_epsilon = false)
      : epsilon_(epsilon),
        damping_(damping),
        max_iterations_(max_iterations),
        relative_epsilon_(relative_epsilon) {}

  std::string name() const override { return "pagerank_delta"; }
  std::uint32_t num_value_arrays() const override { return 2; }  // rank, res
  std::uint32_t max_iterations() const override { return max_iterations_; }

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
  double epsilon_;
  double damping_;
  std::uint32_t max_iterations_;
  bool relative_epsilon_;
  double threshold_ = 0.0;  // resolved at Init
};

}  // namespace graphsd::algos
