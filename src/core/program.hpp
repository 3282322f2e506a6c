// GraphSD programming model (paper §4.2).
//
// A user algorithm implements one of two program kinds:
//
//   * PushProgram — frontier-driven algorithms with a commutative, monotone
//     combine (CC, SSSP, BFS) or a commutative sum over consumable
//     contributions (PageRank-Delta). `MakeContribution(v)` snapshots (and
//     possibly consumes) v's outgoing contribution for one BSP iteration;
//     `Apply(e)` is the paper's UserFunction when reading the kPrimary
//     snapshot and its CrossIterUpdate when reading the kSecondary (sealed
//     post-iteration) snapshot.
//
//   * GatherProgram — dense algorithms that re-accumulate every vertex each
//     iteration (PageRank). Contributions accumulate into an AccumSlot;
//     kA collects iteration t and kB iteration t+1 within one FCIU round.
//
// All combine operations must be commutative and associative: that is the
// property that makes cross-iteration value computation exact under BSP
// semantics.
//
// Apply order: every executor applies edges on the engine thread, in file
// order, through one virtual call per sub-block or edge run —
// PushProgram::ApplyEdges / GatherProgram::AccumulateEdges(Both). Their loops
// are written once below (ApplyEdgesOf, AccumulateEdges(Both)Of), as
// templates over the concrete program, so each program's per-edge
// `Apply`/`Accumulate` inlines into them. A combine is a plain
// read-modify-write of dst's slot (core/slot.hpp), and results are
// bit-identical run to run, float reductions included: the kernel visits
// exactly the edges, in exactly the order, the per-edge calls would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/frontier.hpp"
#include "core/vertex_state.hpp"
#include "graph/types.hpp"

namespace graphsd::core {

enum class ProgramKind { kPush, kGather };

/// A run of edges in file order. `weights` is aligned with `edges`, or null
/// when the program reads no weights (every weight is then 1).
struct EdgeSpan {
  const Edge* edges = nullptr;
  const Weight* weights = nullptr;
  std::size_t count = 0;
};

/// The edges of `edges`, with `weights` attached when `need_weights`.
inline EdgeSpan EdgesOf(const std::vector<Edge>& edges,
                        const std::vector<Weight>& weights,
                        bool need_weights) {
  return {edges.data(), need_weights ? weights.data() : nullptr,
          edges.size()};
}

/// The push kernel: `program.Apply` for every edge of `run` whose source is
/// active in `guard` (null: every edge), activating dst in `out` when Apply
/// asks to. Returns the number of edges that passed the guard. `P` is the
/// concrete (final) program, so Apply resolves statically and inlines.
template <typename P>
std::uint64_t ApplyEdgesOf(const P& program, VertexState& state, EdgeSpan run,
                           ContribSlot slot, const Frontier* guard,
                           Frontier& out) {
  // One loop body, specialized on guard and weights so neither is tested
  // per edge.
  const auto loop = [&]<bool kGuarded, bool kWeighted>() {
    std::uint64_t guarded = 0;
    for (std::size_t k = 0; k < run.count; ++k) {
      const Edge& edge = run.edges[k];
      if constexpr (kGuarded) {
        if (!guard->IsActive(edge.src)) continue;
      }
      ++guarded;
      const Weight w = kWeighted ? run.weights[k] : Weight{1};
      if (program.Apply(state, edge.src, edge.dst, w, slot)) {
        out.Activate(edge.dst);
      }
    }
    return guarded;
  };
  if (guard != nullptr) {
    return run.weights != nullptr ? loop.template operator()<true, true>()
                                  : loop.template operator()<true, false>();
  }
  return run.weights != nullptr ? loop.template operator()<false, true>()
                                : loop.template operator()<false, false>();
}

/// The gather kernel: `program.Accumulate(c → a)` for every edge of `run`.
template <typename P>
void AccumulateEdgesOf(const P& program, VertexState& state, EdgeSpan run,
                       ContribSlot c, AccumSlot a) {
  const auto loop = [&]<bool kWeighted>() {
    for (std::size_t k = 0; k < run.count; ++k) {
      const Edge& edge = run.edges[k];
      program.Accumulate(state, edge.src, edge.dst,
                         kWeighted ? run.weights[k] : Weight{1}, c, a);
    }
  };
  if (run.weights != nullptr) {
    loop.template operator()<true>();
  } else {
    loop.template operator()<false>();
  }
}

/// FCIU gather's fused first-half kernel for a sub-block (i, j), i < j:
/// one pass over `run` feeds both accumulators — kPrimary into kA
/// (iteration t) and kSecondary into kB (iteration t+1). Each accumulator
/// sees its edges in file order, exactly as two AccumulateEdgesOf passes
/// would, so the sums are bit-identical.
template <typename P>
void AccumulateEdgesBothOf(const P& program, VertexState& state,
                           EdgeSpan run) {
  const auto loop = [&]<bool kWeighted>() {
    for (std::size_t k = 0; k < run.count; ++k) {
      const Edge& edge = run.edges[k];
      const Weight w = kWeighted ? run.weights[k] : Weight{1};
      program.Accumulate(state, edge.src, edge.dst, w, ContribSlot::kPrimary,
                         AccumSlot::kA);
      program.Accumulate(state, edge.src, edge.dst, w,
                         ContribSlot::kSecondary, AccumSlot::kB);
    }
  };
  if (run.weights != nullptr) {
    loop.template operator()<true>();
  } else {
    loop.template operator()<false>();
  }
}

class Program {
 public:
  virtual ~Program() = default;

  /// Algorithm name for reports ("pagerank", "sssp", ...).
  virtual std::string name() const = 0;

  virtual ProgramKind kind() const = 0;

  /// Whether edge weights must be streamed (SSSP). Unweighted algorithms
  /// skip the weight files entirely — the M vs M+W distinction of Table 2.
  virtual bool needs_weights() const { return false; }

  /// How many per-vertex arrays the program keeps (PR-Delta: rank+residual).
  virtual std::uint32_t num_value_arrays() const = 0;

  /// Slots per vertex in the engine-managed contribution arrays. Single-
  /// source programs use 1 (the default); multi-source batched programs
  /// (the `graphsd serve` query coalescer) use one lane per source, laid
  /// out lane-major as contrib[v * width + lane].
  virtual std::uint32_t contrib_width() const { return 1; }

  /// Supplies dataset context before Init. Default keeps the degree vector
  /// (PageRank-family needs out-degrees to split contributions).
  virtual void Bind(const std::vector<std::uint32_t>& out_degrees) {
    out_degrees_ = &out_degrees;
  }

  /// Initializes vertex values and the initial frontier.
  /// Gather programs may ignore `initial` (they run all-active).
  virtual void Init(VertexState& state, Frontier& initial) = 0;

  /// Iteration budget (PageRank: the configured round count; frontier
  /// algorithms: unbounded, they stop when the frontier drains).
  virtual std::uint32_t max_iterations() const { return UINT32_MAX; }

  /// The result value of vertex `v` as a double (tests, examples, reports).
  virtual double ValueOf(const VertexState& state, VertexId v) const = 0;

 protected:
  const std::vector<std::uint32_t>* out_degrees_ = nullptr;
};

class PushProgram : public Program {
 public:
  ProgramKind kind() const final { return ProgramKind::kPush; }

  /// Snapshots v's outgoing contribution into state.contrib(slot)[v].
  /// May consume internal state (PR-Delta zeroes the residual). The engine
  /// calls this exactly once per (vertex, iteration in which it is active).
  virtual void MakeContribution(VertexState& state, VertexId v,
                                ContribSlot slot) const = 0;

  /// Applies one edge using the source contribution in `slot`, combining
  /// into dst's value.
  /// Returns true iff dst must be (re)activated for the following iteration.
  virtual bool Apply(VertexState& state, VertexId src, VertexId dst, Weight w,
                     ContribSlot slot) const = 0;

  /// Applies a run of edges (ApplyEdgesOf): the executors' one call per
  /// sub-block or edge run. Returns the number of edges whose source passed
  /// `guard`. Concrete programs override it with ApplyEdgesOf(*this, ...)
  /// so `Apply` inlines; this default calls the virtual `Apply` per edge
  /// (wrappers that intercept `Apply` keep working unchanged).
  virtual std::uint64_t ApplyEdges(VertexState& state, EdgeSpan run,
                                   ContribSlot slot, const Frontier* guard,
                                   Frontier& out) const {
    return ApplyEdgesOf(*this, state, run, slot, guard, out);
  }
};

class GatherProgram : public Program {
 public:
  ProgramKind kind() const final { return ProgramKind::kGather; }

  /// Snapshots v's contribution (from its current value) into
  /// state.contrib(slot)[v].
  virtual void MakeContribution(VertexState& state, VertexId v,
                                ContribSlot slot) const = 0;

  /// Resets accumulator `a` to the iteration base value for all vertices.
  virtual void ResetAccum(VertexState& state, AccumSlot a) const = 0;

  /// accum(a)[dst] += contribution(c)[src].
  virtual void Accumulate(VertexState& state, VertexId src, VertexId dst,
                          Weight w, ContribSlot c, AccumSlot a) const = 0;

  /// Accumulates a run of edges (AccumulateEdgesOf). Overridden like
  /// PushProgram::ApplyEdges; the default calls `Accumulate` per edge.
  virtual void AccumulateEdges(VertexState& state, EdgeSpan run,
                               ContribSlot c, AccumSlot a) const {
    AccumulateEdgesOf(*this, state, run, c, a);
  }

  /// Both first-half accumulations of an FCIU round over one run
  /// (AccumulateEdgesBothOf), overridden and defaulted like AccumulateEdges.
  virtual void AccumulateEdgesBoth(VertexState& state, EdgeSpan run) const {
    AccumulateEdgesBothOf(*this, state, run);
  }

  /// Commits accum(a) into the value array for vertices [begin, end).
  virtual void Finalize(VertexState& state, VertexId begin, VertexId end,
                        AccumSlot a) const = 0;
};

}  // namespace graphsd::core
