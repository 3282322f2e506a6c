// Block kernels against the per-edge loop they replace: for every program
// the difftest sweeps, plus the multi-source lanes, ApplyEdges /
// AccumulateEdges must leave the vertex state bit-for-bit where the
// per-edge Apply / Accumulate calls leave it, report the same guarded-edge
// count and activate the same vertices — for random, empty, weighted and
// unweighted runs, both contribution slots, both accumulators, and with no
// guard, a partial guard or an empty one.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/multi_source.hpp"
#include "core/frontier.hpp"
#include "core/program.hpp"
#include "core/vertex_state.hpp"
#include "testing/program_factory.hpp"
#include "testing_util.hpp"
#include "util/rng.hpp"

namespace graphsd::testing {
namespace {

using core::AccumSlot;
using core::ContribSlot;
using core::EdgeSpan;
using core::Frontier;
using core::VertexState;

constexpr VertexId kVertices = 300;
constexpr std::size_t kEdges = 4000;

struct Block {
  std::vector<Edge> edges;
  std::vector<Weight> weights;
};

Block RandomBlock(std::uint64_t seed, std::size_t count) {
  Xoshiro256 rng(seed);
  Block block;
  for (std::size_t k = 0; k < count; ++k) {
    const auto src = static_cast<VertexId>(rng.NextBounded(kVertices));
    const auto dst = static_cast<VertexId>(rng.NextBounded(kVertices));
    block.edges.push_back({src, dst});
    block.weights.push_back(static_cast<Weight>(1 + rng.NextBounded(9)) /
                            4.0f);
  }
  return block;
}

std::vector<std::uint32_t> OutDegrees(const Block& block) {
  std::vector<std::uint32_t> degrees(kVertices, 0);
  for (const Edge& e : block.edges) ++degrees[e.src];
  return degrees;
}

// A program under test together with the state both paths start from.
struct Case {
  std::string label;
  std::unique_ptr<core::Program> program;
};

std::vector<Case> AllPrograms() {
  std::vector<Case> cases;
  for (const AlgoSpec& spec : RegisteredAlgos()) {
    cases.push_back({spec.name, ValueOrDie(MakeProgram(spec.name, 3))});
  }
  for (const char* algo : {"bfs", "sssp", "widest_path", "ppr"}) {
    for (const std::vector<VertexId>& roots :
         {std::vector<VertexId>{5}, std::vector<VertexId>{0, 7, 9},
          std::vector<VertexId>{1, 2, 3, 4, 5, 6, 11}}) {
      cases.push_back({std::string("multi_") + algo + "/" +
                           std::to_string(roots.size()),
                       algos::MakeMultiSourceProgram(algo, roots)});
    }
  }
  return cases;
}

VertexState MakeState(const core::Program& program) {
  return VertexState(kVertices, program.num_value_arrays(),
                     program.kind() == core::ProgramKind::kGather,
                     program.contrib_width());
}

// Init, then a few per-edge warm-up sweeps so values, contributions and
// accumulators are far from their initial fill.
void WarmUp(core::Program& program, VertexState& state, const Block& warm) {
  Frontier initial(kVertices);
  program.Init(state, initial);
  if (program.kind() == core::ProgramKind::kPush) {
    const auto& push = static_cast<const core::PushProgram&>(program);
    for (int round = 0; round < 3; ++round) {
      for (VertexId v = 0; v < kVertices; ++v) {
        push.MakeContribution(state, v, ContribSlot::kPrimary);
        push.MakeContribution(state, v, ContribSlot::kSecondary);
      }
      for (std::size_t k = 0; k < warm.edges.size(); ++k) {
        (void)push.Apply(state, warm.edges[k].src, warm.edges[k].dst,
                         warm.weights[k], ContribSlot::kPrimary);
      }
    }
    for (VertexId v = 0; v < kVertices; ++v) {
      push.MakeContribution(state, v, ContribSlot::kPrimary);
      push.MakeContribution(state, v, ContribSlot::kSecondary);
    }
    return;
  }
  const auto& gather = static_cast<const core::GatherProgram&>(program);
  for (VertexId v = 0; v < kVertices; ++v) {
    gather.MakeContribution(state, v, ContribSlot::kPrimary);
  }
  gather.ResetAccum(state, AccumSlot::kA);
  gather.ResetAccum(state, AccumSlot::kB);
  for (const Edge& e : warm.edges) {
    gather.Accumulate(state, e.src, e.dst, 1, ContribSlot::kPrimary,
                      AccumSlot::kA);
  }
  gather.Finalize(state, 0, kVertices, AccumSlot::kA);
  for (VertexId v = 0; v < kVertices; ++v) {
    gather.MakeContribution(state, v, ContribSlot::kPrimary);
    gather.MakeContribution(state, v, ContribSlot::kSecondary);
  }
}

void ExpectSameSlots(std::span<const core::Slot> a,
                     std::span<const core::Slot> b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0) << what;
}

void ExpectSameState(const VertexState& a, const VertexState& b, bool gather,
                     const std::string& what) {
  for (std::uint32_t idx = 0; idx < a.num_program_arrays(); ++idx) {
    ExpectSameSlots(a.array(idx), b.array(idx),
                    what + " array " + std::to_string(idx));
  }
  for (ContribSlot slot : {ContribSlot::kPrimary, ContribSlot::kSecondary}) {
    ExpectSameSlots(a.contrib(slot), b.contrib(slot), what + " contrib");
  }
  if (gather) {
    for (AccumSlot slot : {AccumSlot::kA, AccumSlot::kB}) {
      ExpectSameSlots(a.accum(slot), b.accum(slot), what + " accum");
    }
  }
}

std::vector<VertexId> ActiveSet(const Frontier& frontier) {
  std::vector<VertexId> active;
  frontier.ForEachActive(
      [&](std::size_t v) { active.push_back(static_cast<VertexId>(v)); });
  return active;
}

// The per-edge loop the executors ran before the block kernels: one
// virtual Apply per edge, in file order.
std::uint64_t PerEdgeApply(const core::PushProgram& program, VertexState& state,
                           EdgeSpan run, ContribSlot slot,
                           const Frontier* guard, Frontier& out) {
  std::uint64_t guarded = 0;
  for (std::size_t k = 0; k < run.count; ++k) {
    const Edge& e = run.edges[k];
    if (guard != nullptr && !guard->IsActive(e.src)) continue;
    ++guarded;
    const Weight w = run.weights != nullptr ? run.weights[k] : Weight{1};
    if (program.Apply(state, e.src, e.dst, w, slot)) out.Activate(e.dst);
  }
  return guarded;
}

void PerEdgeAccumulate(const core::GatherProgram& program, VertexState& state,
                       EdgeSpan run, ContribSlot c, AccumSlot a) {
  for (std::size_t k = 0; k < run.count; ++k) {
    const Weight w = run.weights != nullptr ? run.weights[k] : Weight{1};
    program.Accumulate(state, run.edges[k].src, run.edges[k].dst, w, c, a);
  }
}

TEST(EdgeKernel, BlockKernelsMatchThePerEdgeLoopBitwise) {
  const Block warm = RandomBlock(11, kEdges);
  const std::vector<std::uint32_t> degrees = OutDegrees(warm);
  const Block random = RandomBlock(12, kEdges);
  const Block empty;

  Frontier partial(kVertices);
  for (VertexId v = 0; v < kVertices; v += 3) partial.Activate(v);
  for (VertexId v = 1; v < kVertices; v += 7) partial.Activate(v);
  const Frontier none(kVertices);

  for (Case& c : AllPrograms()) {
    c.program->Bind(degrees);
    const bool gather = c.program->kind() == core::ProgramKind::kGather;
    for (const Block* block : {&random, &empty}) {
      for (const bool weighted : {true, false}) {
        const EdgeSpan run = core::EdgesOf(block->edges, block->weights,
                                           weighted);
        for (const ContribSlot slot :
             {ContribSlot::kPrimary, ContribSlot::kSecondary}) {
          const std::string where =
              c.label + (block == &empty ? " empty" : " random") +
              (weighted ? " weighted" : " unweighted") +
              (slot == ContribSlot::kPrimary ? " primary" : " secondary");
          if (gather) {
            const auto& program =
                static_cast<const core::GatherProgram&>(*c.program);
            for (const AccumSlot accum : {AccumSlot::kA, AccumSlot::kB}) {
              VertexState expected = MakeState(program);
              VertexState actual = MakeState(program);
              WarmUp(*c.program, expected, warm);
              WarmUp(*c.program, actual, warm);
              PerEdgeAccumulate(program, expected, run, slot, accum);
              program.AccumulateEdges(actual, run, slot, accum);
              ExpectSameState(expected, actual, true,
                              where + (accum == AccumSlot::kA ? " kA" : " kB"));
            }
            continue;
          }
          const auto& program =
              static_cast<const core::PushProgram&>(*c.program);
          const Frontier* const guards[] = {nullptr, &partial, &none};
          for (const Frontier* guard : guards) {
            const std::string label =
                where + (guard == nullptr  ? " unguarded"
                         : guard == &none ? " empty guard"
                                          : " partial guard");
            VertexState expected = MakeState(program);
            VertexState actual = MakeState(program);
            WarmUp(*c.program, expected, warm);
            WarmUp(*c.program, actual, warm);
            Frontier expected_out(kVertices);
            Frontier actual_out(kVertices);
            const std::uint64_t expected_guarded = PerEdgeApply(
                program, expected, run, slot, guard, expected_out);
            const std::uint64_t actual_guarded =
                program.ApplyEdges(actual, run, slot, guard, actual_out);
            EXPECT_EQ(actual_guarded, expected_guarded) << label;
            EXPECT_EQ(ActiveSet(actual_out), ActiveSet(expected_out)) << label;
            ExpectSameState(expected, actual, false, label);
          }
        }
      }
    }
  }
}

TEST(EdgeKernel, FusedGatherKernelMatchesTwoPerEdgePassesBitwise) {
  // AccumulateEdgesBoth must equal a kPrimary -> kA pass followed by a
  // kSecondary -> kB pass. The secondary contributions are taken one
  // iteration later than the primary ones, so a kernel that crossed the
  // slots would show.
  const Block warm = RandomBlock(11, kEdges);
  const std::vector<std::uint32_t> degrees = OutDegrees(warm);
  const Block random = RandomBlock(12, kEdges);
  const Block empty;
  int gathers = 0;
  for (Case& c : AllPrograms()) {
    if (c.program->kind() != core::ProgramKind::kGather) continue;
    ++gathers;
    c.program->Bind(degrees);
    const auto& program = static_cast<const core::GatherProgram&>(*c.program);
    const auto prepare = [&](VertexState& state) {
      WarmUp(*c.program, state, warm);
      program.ResetAccum(state, AccumSlot::kA);
      PerEdgeAccumulate(program, state, core::EdgesOf(warm.edges, {}, false),
                        ContribSlot::kPrimary, AccumSlot::kA);
      program.Finalize(state, 0, kVertices, AccumSlot::kA);
      for (VertexId v = 0; v < kVertices; ++v) {
        program.MakeContribution(state, v, ContribSlot::kSecondary);
      }
    };
    for (const Block* block : {&random, &empty}) {
      for (const bool weighted : {true, false}) {
        const std::string where = c.label +
                                  (block == &empty ? " empty" : " random") +
                                  (weighted ? " weighted" : " unweighted");
        const EdgeSpan run =
            core::EdgesOf(block->edges, block->weights, weighted);
        VertexState expected = MakeState(program);
        VertexState actual = MakeState(program);
        prepare(expected);
        prepare(actual);
        ASSERT_NE(std::memcmp(expected.contrib(ContribSlot::kPrimary).data(),
                              expected.contrib(ContribSlot::kSecondary).data(),
                              expected.contrib(ContribSlot::kPrimary)
                                  .size_bytes()),
                  0)
            << where;
        PerEdgeAccumulate(program, expected, run, ContribSlot::kPrimary,
                          AccumSlot::kA);
        PerEdgeAccumulate(program, expected, run, ContribSlot::kSecondary,
                          AccumSlot::kB);
        program.AccumulateEdgesBoth(actual, run);
        ExpectSameState(expected, actual, true, where);
      }
    }
  }
  EXPECT_GT(gathers, 0);
}

TEST(EdgeKernel, KernelsActuallyApplySomething) {
  // Guards the test above against vacuity: on the random block the
  // unguarded SSSP kernel must relax edges and activate vertices.
  const Block warm = RandomBlock(11, kEdges);
  const std::vector<std::uint32_t> degrees = OutDegrees(warm);
  auto program = ValueOrDie(MakeProgram("sssp", 3));
  program->Bind(degrees);
  VertexState state = MakeState(*program);
  WarmUp(*program, state, warm);
  const Block random = RandomBlock(12, kEdges);
  Frontier out(kVertices);
  const auto& push = static_cast<const core::PushProgram&>(*program);
  EXPECT_EQ(push.ApplyEdges(state,
                            core::EdgesOf(random.edges, random.weights, true),
                            ContribSlot::kPrimary, nullptr, out),
            kEdges);
  EXPECT_GT(out.Count(), 0u);
}

}  // namespace
}  // namespace graphsd::testing
