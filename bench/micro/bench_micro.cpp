// Micro-benchmarks (google-benchmark) for the engineering substrate:
// bitset frontiers, CRC32C, varint-delta decode, grid partitioning,
// sub-block loading, and the scheduler's evaluation pass. Not paper
// figures — these quantify the building blocks the figures are made of.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "compress/codec.hpp"
#include "core/frontier.hpp"
#include "core/program.hpp"
#include "core/scheduler.hpp"
#include "core/slot.hpp"
#include "core/vertex_state.hpp"
#include "graph/generators.hpp"
#include "partition/grid_builder.hpp"
#include "partition/grid_dataset.hpp"
#include "util/bitset.hpp"
#include "util/crc32c.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace graphsd;

void BM_BitsetTestAndSet(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  ConcurrentBitset bits(n);
  Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits.TestAndSet(rng.NextBounded(n)));
  }
}
BENCHMARK(BM_BitsetTestAndSet);

void BM_BitsetIterate(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  ConcurrentBitset bits(n);
  Xoshiro256 rng(1);
  for (int i = 0; i < 10000; ++i) bits.Set(rng.NextBounded(n));
  for (auto _ : state) {
    std::size_t sum = 0;
    bits.ForEachSet([&](std::size_t i) { sum += i; });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_BitsetIterate);

// CRC32C over a 1 MiB buffer; Arg(1) = the dispatched path (SSE4.2 where
// the CPU has it), Arg(0) = the portable table path it falls back to.
void BM_Crc32c(benchmark::State& state) {
  std::vector<std::uint8_t> data(1u << 20);
  Xoshiro256 rng(1);
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.Next());
  const bool dispatched = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dispatched ? Crc32c(0, data.data(), data.size())
                   : Crc32cPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(dispatched ? "dispatched" : "portable");
}
BENCHMARK(BM_Crc32c)->Arg(1)->Arg(0);

// Varint-delta decode of a (src,dst)-sorted RMAT edge array, the shape of a
// grid sub-block payload; bytes/s counts decoded (raw) output.
void BM_VarintDeltaDecode(benchmark::State& state) {
  RmatOptions o;
  o.scale = 16;
  o.edge_factor = 16;
  std::vector<Edge> edges = GenerateRmat(o).edges();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  const std::span<const std::uint8_t> raw(
      reinterpret_cast<const std::uint8_t*>(edges.data()),
      edges.size() * sizeof(Edge));
  const compress::Codec& codec = compress::VarintDeltaCodec();
  std::vector<std::uint8_t> encoded(codec.MaxCompressedSize(raw.size()));
  encoded.resize(codec.Encode(raw, encoded).value());
  std::vector<std::uint8_t> out(raw.size());
  for (auto _ : state) {
    if (!codec.Decode(encoded, out).ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_VarintDeltaDecode);

// Edge application, the layer behind core.update_s: one (src,dst)-sorted
// RMAT run of ~1M edges (the shape of a grid sub-block) through PageRank's
// gather (Arg 0 = 0) or SSSP's push guarded by a half-active frontier
// (Arg 0 = 1), applied either by one virtual Apply/Accumulate per edge
// (Arg 1 = 0, the executors' loop before block kernels) or by the
// program's block kernel (Arg 1 = 1). items/s is edges/s.
void BM_ApplyEdges(benchmark::State& state) {
  const bool sssp = state.range(0) == 1;
  const bool kernel = state.range(1) == 1;
  RmatOptions o;
  o.scale = 16;
  o.edge_factor = 16;
  o.max_weight = 10.0;
  EdgeList graph = GenerateRmat(o);
  std::vector<Edge> edges = graph.edges();
  std::vector<Weight> weights = graph.weights();
  std::vector<std::size_t> order(edges.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return edges[a].src != edges[b].src ? edges[a].src < edges[b].src
                                        : edges[a].dst < edges[b].dst;
  });
  std::vector<Edge> sorted_edges;
  std::vector<Weight> sorted_weights;
  for (const std::size_t k : order) {
    sorted_edges.push_back(edges[k]);
    sorted_weights.push_back(weights[k]);
  }
  const VertexId n = graph.num_vertices();
  std::vector<std::uint32_t> degrees(n, 0);
  for (const Edge& e : sorted_edges) ++degrees[e.src];

  algos::PageRank pagerank(10);
  algos::Sssp shortest(0);
  core::Program& program =
      sssp ? static_cast<core::Program&>(shortest) : pagerank;
  program.Bind(degrees);
  core::VertexState values(n, program.num_value_arrays(), !sssp);
  core::Frontier active(n);
  program.Init(values, active);
  for (VertexId v = 0; v < n; v += 2) active.Activate(v);
  core::Frontier out(n);
  if (sssp) {
    // Finite distances everywhere, so the guard and the relaxation both
    // do real work.
    for (VertexId v = 0; v < n; ++v) {
      values.contrib(core::ContribSlot::kPrimary)[v] =
          core::SlotFromDouble(static_cast<double>(v % 97));
      values.array(0)[v] = core::SlotFromDouble(1e9);
    }
  } else {
    for (VertexId v = 0; v < n; ++v) {
      pagerank.MakeContribution(values, v, core::ContribSlot::kPrimary);
    }
  }
  const core::EdgeSpan run =
      core::EdgesOf(sorted_edges, sorted_weights, program.needs_weights());
  // Hidden from the optimizer: the per-edge loop must stay a virtual call.
  const core::PushProgram* push = &shortest;
  const core::GatherProgram* gather = &pagerank;
  benchmark::DoNotOptimize(push);
  benchmark::DoNotOptimize(gather);

  for (auto _ : state) {
    if (sssp && kernel) {
      benchmark::DoNotOptimize(push->ApplyEdges(
          values, run, core::ContribSlot::kPrimary, &active, out));
    } else if (sssp) {
      std::uint64_t guarded = 0;
      for (std::size_t k = 0; k < run.count; ++k) {
        const Edge& e = run.edges[k];
        if (!active.IsActive(e.src)) continue;
        ++guarded;
        if (push->Apply(values, e.src, e.dst, run.weights[k],
                        core::ContribSlot::kPrimary)) {
          out.Activate(e.dst);
        }
      }
      benchmark::DoNotOptimize(guarded);
    } else if (kernel) {
      gather->AccumulateEdges(values, run, core::ContribSlot::kPrimary,
                              core::AccumSlot::kA);
    } else {
      for (std::size_t k = 0; k < run.count; ++k) {
        gather->Accumulate(values, run.edges[k].src, run.edges[k].dst, 1,
                           core::ContribSlot::kPrimary, core::AccumSlot::kA);
      }
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(run.count));
  state.SetLabel(std::string(sssp ? "sssp guarded push" : "pagerank gather") +
                 (kernel ? ", block kernel" : ", per-edge virtual"));
}
BENCHMARK(BM_ApplyEdges)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    RmatOptions o;
    o.scale = static_cast<std::uint32_t>(state.range(0));
    o.edge_factor = 8;
    benchmark::DoNotOptimize(GenerateRmat(o).num_edges());
  }
}
BENCHMARK(BM_RmatGeneration)->Arg(10)->Arg(12);

void BM_GridBuild(benchmark::State& state) {
  RmatOptions o;
  o.scale = 12;
  o.edge_factor = 8;
  const EdgeList g = GenerateRmat(o);
  auto device = io::MakePosixDevice();
  for (auto _ : state) {
    partition::GridBuildOptions build;
    build.num_intervals = static_cast<std::uint32_t>(state.range(0));
    auto result =
        partition::BuildGrid(g, *device, "/tmp/graphsd_micro_grid", build);
    benchmark::DoNotOptimize(result.ok());
  }
  (void)io::RemoveTree("/tmp/graphsd_micro_grid");
}
BENCHMARK(BM_GridBuild)->Arg(4)->Arg(16);

void BM_SubBlockLoad(benchmark::State& state) {
  RmatOptions o;
  o.scale = 12;
  o.edge_factor = 8;
  const EdgeList g = GenerateRmat(o);
  auto device = io::MakePosixDevice();
  partition::GridBuildOptions build;
  build.num_intervals = 4;
  (void)partition::BuildGrid(g, *device, "/tmp/graphsd_micro_load", build);
  auto dataset = partition::GridDataset::Open(*device, "/tmp/graphsd_micro_load");
  for (auto _ : state) {
    auto block = dataset->LoadSubBlock(0, 0, false);
    benchmark::DoNotOptimize(block->edges.size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(dataset->SubBlockBytes(0, 0, false)));
  (void)io::RemoveTree("/tmp/graphsd_micro_load");
}
BENCHMARK(BM_SubBlockLoad);

void BM_SchedulerEvaluate(benchmark::State& state) {
  RmatOptions o;
  o.scale = 14;
  o.edge_factor = 8;
  const EdgeList g = GenerateRmat(o);
  auto device = io::MakePosixDevice();
  partition::GridBuildOptions build;
  build.num_intervals = 8;
  (void)partition::BuildGrid(g, *device, "/tmp/graphsd_micro_sched", build);
  auto dataset =
      partition::GridDataset::Open(*device, "/tmp/graphsd_micro_sched");
  core::StateAwareScheduler scheduler(*dataset, io::IoCostModel::Hdd());
  core::Frontier active(dataset->num_vertices());
  Xoshiro256 rng(1);
  for (std::uint64_t i = 0; i < dataset->num_vertices() / 10; ++i) {
    active.Activate(
        static_cast<VertexId>(rng.NextBounded(dataset->num_vertices())));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.Evaluate(active, 8, false).on_demand);
  }
  (void)io::RemoveTree("/tmp/graphsd_micro_sched");
}
BENCHMARK(BM_SchedulerEvaluate);

void BM_ParallelForOverhead(benchmark::State& state) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint64_t> data(1 << 16, 1);
  for (auto _ : state) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelFor(0, data.size(), 4096, [&](std::size_t b, std::size_t e) {
      std::uint64_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += data[i];
      sum.fetch_add(local);
    });
    benchmark::DoNotOptimize(sum.load());
  }
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
