#include "algos/multi_source.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/slot.hpp"

namespace graphsd::algos {

using core::AddDouble;
using core::MaxDouble;
using core::MinDouble;
using core::MinU64;
using core::SlotFromDouble;
using core::SlotToDouble;

// ---- MultiBfs --------------------------------------------------------------

void MultiBfs::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  for (std::uint32_t k = 0; k < lanes(); ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto level = state.array(k);
    for (auto& slot : level) slot = UINT64_MAX;
    level[roots_[k]] = 0;
    initial.Activate(roots_[k]);
  }
}

void MultiBfs::MakeContribution(core::VertexState& state, VertexId v,
                                core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    contrib[static_cast<std::size_t>(v) * k_lanes + k] = state.array(k)[v];
  }
}

bool MultiBfs::Apply(core::VertexState& state, VertexId src, VertexId dst,
                     Weight /*w*/, core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  bool activate = false;
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    const std::uint64_t src_level =
        contrib[static_cast<std::size_t>(src) * k_lanes + k];
    if (src_level == UINT64_MAX) continue;
    if (MinU64(&state.array(k)[dst], src_level + 1)) activate = true;
  }
  return activate;
}

std::uint64_t MultiBfs::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                   core::ContribSlot slot,
                                   const core::Frontier* guard,
                                   core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double MultiBfs::LaneValueOf(const core::VertexState& state,
                             std::uint32_t lane, VertexId v) const {
  return static_cast<double>(state.array(lane)[v]);
}

// ---- MultiSssp -------------------------------------------------------------

void MultiSssp::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  const double inf = std::numeric_limits<double>::infinity();
  for (std::uint32_t k = 0; k < lanes(); ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto dist = state.array(k);
    for (auto& slot : dist) slot = SlotFromDouble(inf);
    dist[roots_[k]] = SlotFromDouble(0.0);
    initial.Activate(roots_[k]);
  }
}

void MultiSssp::MakeContribution(core::VertexState& state, VertexId v,
                                 core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    contrib[static_cast<std::size_t>(v) * k_lanes + k] = state.array(k)[v];
  }
}

bool MultiSssp::Apply(core::VertexState& state, VertexId src, VertexId dst,
                      Weight w, core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  bool activate = false;
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    const double src_dist =
        SlotToDouble(contrib[static_cast<std::size_t>(src) * k_lanes + k]);
    if (src_dist == std::numeric_limits<double>::infinity()) continue;
    // Same saturation guard as the solo program: an overflow-to-inf or NaN
    // sum must never win a relaxation or activate the destination.
    const double candidate = src_dist + static_cast<double>(w);
    if (!std::isfinite(candidate)) continue;
    if (MinDouble(&state.array(k)[dst], candidate)) activate = true;
  }
  return activate;
}

std::uint64_t MultiSssp::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                    core::ContribSlot slot,
                                    const core::Frontier* guard,
                                    core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double MultiSssp::LaneValueOf(const core::VertexState& state,
                              std::uint32_t lane, VertexId v) const {
  return SlotToDouble(state.array(lane)[v]);
}

// ---- MultiWidestPath -------------------------------------------------------

void MultiWidestPath::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  for (std::uint32_t k = 0; k < lanes(); ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto width = state.array(k);
    for (auto& slot : width) slot = SlotFromDouble(0.0);
    width[roots_[k]] = SlotFromDouble(std::numeric_limits<double>::infinity());
    initial.Activate(roots_[k]);
  }
}

void MultiWidestPath::MakeContribution(core::VertexState& state, VertexId v,
                                       core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    contrib[static_cast<std::size_t>(v) * k_lanes + k] = state.array(k)[v];
  }
}

bool MultiWidestPath::Apply(core::VertexState& state, VertexId src,
                            VertexId dst, Weight w,
                            core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  bool activate = false;
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    const double src_width =
        SlotToDouble(contrib[static_cast<std::size_t>(src) * k_lanes + k]);
    if (src_width <= 0.0) continue;
    const double bottleneck = std::min(src_width, static_cast<double>(w));
    if (!std::isfinite(bottleneck) || bottleneck <= 0.0) continue;
    if (MaxDouble(&state.array(k)[dst], bottleneck)) activate = true;
  }
  return activate;
}

std::uint64_t MultiWidestPath::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                          core::ContribSlot slot,
                                          const core::Frontier* guard,
                                          core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double MultiWidestPath::LaneValueOf(const core::VertexState& state,
                                    std::uint32_t lane, VertexId v) const {
  return SlotToDouble(state.array(lane)[v]);
}

// ---- MultiPpr --------------------------------------------------------------

void MultiPpr::Init(core::VertexState& state, core::Frontier& initial) {
  GRAPHSD_CHECK(!roots_.empty());
  const std::uint32_t k_lanes = lanes();
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    GRAPHSD_CHECK(roots_[k] < state.num_vertices());
    auto rank = state.array(k);
    auto residual = state.array(k_lanes + k);
    for (VertexId v = 0; v < state.num_vertices(); ++v) {
      rank[v] = SlotFromDouble(0.0);
      residual[v] = SlotFromDouble(0.0);
    }
    residual[roots_[k]] = SlotFromDouble(1.0);
    initial.Activate(roots_[k]);
  }
}

void MultiPpr::MakeContribution(core::VertexState& state, VertexId v,
                                core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  const std::uint32_t degree = (*out_degrees_)[v];
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    auto rank = state.array(k);
    auto residual = state.array(k_lanes + k);
    const double res = SlotToDouble(residual[v]);
    residual[v] = SlotFromDouble(0.0);
    rank[v] = SlotFromDouble(SlotToDouble(rank[v]) + (1.0 - damping_) * res);
    contrib[static_cast<std::size_t>(v) * k_lanes + k] =
        SlotFromDouble(degree == 0 ? 0.0 : damping_ * res / degree);
  }
}

bool MultiPpr::Apply(core::VertexState& state, VertexId src, VertexId dst,
                     Weight /*w*/, core::ContribSlot slot) const {
  const std::uint32_t k_lanes = lanes();
  auto contrib = state.contrib(slot);
  bool activate = false;
  for (std::uint32_t k = 0; k < k_lanes; ++k) {
    const double share =
        SlotToDouble(contrib[static_cast<std::size_t>(src) * k_lanes + k]);
    if (share == 0.0) continue;
    const double updated =
        AddDouble(&state.array(k_lanes + k)[dst], share);
    if (updated > epsilon_) activate = true;
  }
  return activate;
}

std::uint64_t MultiPpr::ApplyEdges(core::VertexState& state, core::EdgeSpan run,
                                   core::ContribSlot slot,
                                   const core::Frontier* guard,
                                   core::Frontier& out) const {
  return core::ApplyEdgesOf(*this, state, run, slot, guard, out);
}

double MultiPpr::LaneValueOf(const core::VertexState& state,
                             std::uint32_t lane, VertexId v) const {
  return SlotToDouble(state.array(lane)[v]) +
         (1.0 - damping_) * SlotToDouble(state.array(lanes() + lane)[v]);
}

// ---- Factory ---------------------------------------------------------------

bool IsBatchableAlgo(const std::string& algo) {
  return algo == "bfs" || algo == "sssp" || algo == "widest_path" ||
         algo == "ppr";
}

std::unique_ptr<MultiSourceProgram> MakeMultiSourceProgram(
    const std::string& algo, std::vector<VertexId> roots, double epsilon,
    double damping) {
  if (roots.empty()) return nullptr;
  if (algo == "bfs") return std::make_unique<MultiBfs>(std::move(roots));
  if (algo == "sssp") return std::make_unique<MultiSssp>(std::move(roots));
  if (algo == "widest_path") {
    return std::make_unique<MultiWidestPath>(std::move(roots));
  }
  if (algo == "ppr") {
    return std::make_unique<MultiPpr>(std::move(roots), epsilon, damping);
  }
  return nullptr;
}

}  // namespace graphsd::algos
