// `perfbench prepare`: generates a workload's edge file and its reference
// answers from the seed. Runs in its own process so neither the in-memory
// generator nor the reference engine counts toward the measured process's
// peak memory, and nothing here is timed.
#include "phases.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "algos/bfs.hpp"
#include "algos/pagerank.hpp"
#include "algos/sssp.hpp"
#include "bench_util.hpp"
#include "graph/edge_io.hpp"
#include "graph/generators.hpp"
#include "io/device.hpp"
#include "testing/reference_engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

using graphsd::EdgeList;
using graphsd::Result;
using graphsd::Status;
using graphsd::VertexId;

namespace {

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  return graphsd::SplitMix64(seed * 0x9E3779B97F4A7C15ULL + stream).Next();
}

EdgeList WebGraph(VertexId vertices, std::uint32_t degree, std::uint64_t seed) {
  graphsd::WebGraphOptions options;
  options.num_vertices = vertices;
  options.avg_degree = degree;
  options.seed = seed;
  return graphsd::GenerateWebGraph(options);
}

Result<std::vector<double>> Reference(graphsd::core::Program& program,
                                      const EdgeList& graph) {
  graphsd::testing::ReferenceOptions options;
  options.record_frontiers = false;
  GRAPHSD_ASSIGN_OR_RETURN(auto result,
                           graphsd::testing::RunReferenceBsp(program, graph,
                                                             options));
  return std::move(result.values);
}

}  // namespace

Status Prepare(const Workload& workload, std::uint64_t seed,
               const std::string& dir) {
  EdgeList graph;
  std::vector<VertexId> roots;
  std::vector<double> answer;
  switch (workload.kind) {
    case WorkloadKind::kPageRankStream: {
      graph = WebGraph(kWebVertices, kWebAvgDegree, SubSeed(seed, 1));
      graphsd::algos::PageRank program(kPageRankIterations);
      GRAPHSD_ASSIGN_OR_RETURN(answer, Reference(program, graph));
      break;
    }
    case WorkloadKind::kSsspFrontier: {
      graph = graphsd::GenerateGrid2D(kGridSide, kGridSide, SubSeed(seed, 2),
                                      kGridMaxWeight);
      graphsd::Xoshiro256 rng(SubSeed(seed, 3));
      const auto row = static_cast<VertexId>(rng.NextBounded(kGridRootSpan));
      const auto col = static_cast<VertexId>(rng.NextBounded(kGridRootSpan));
      roots.push_back(row * kGridSide + col);
      graphsd::algos::Sssp program(roots.front());
      GRAPHSD_ASSIGN_OR_RETURN(answer, Reference(program, graph));
      break;
    }
    case WorkloadKind::kServeBfs: {
      graph = WebGraph(kServeVertices, kServeAvgDegree, SubSeed(seed, 4));
      const std::vector<std::uint32_t> degrees = graph.OutDegrees();
      graphsd::Xoshiro256 rng(SubSeed(seed, 5));
      std::vector<bool> taken(graph.num_vertices(), false);
      while (roots.size() < kServeSoloRoots) {
        const auto v = static_cast<VertexId>(rng.NextBounded(graph.num_vertices()));
        if (taken[v] || degrees[v] == 0) continue;
        taken[v] = true;
        roots.push_back(v);
      }
      for (const VertexId root : roots) {
        graphsd::algos::Bfs program(root);
        GRAPHSD_ASSIGN_OR_RETURN(std::vector<double> levels,
                                 Reference(program, graph));
        answer.insert(answer.end(), levels.begin(), levels.end());
      }
      break;
    }
  }

  std::unique_ptr<graphsd::io::Device> device = graphsd::io::MakePosixDevice();
  GRAPHSD_RETURN_IF_ERROR(
      graphsd::WriteBinaryEdgeList(graph, *device, dir + "/" + kEdgeFile));
  GRAPHSD_RETURN_IF_ERROR(WriteDoubles(dir + "/" + kAnswerFile, answer));
  std::string root_lines;
  for (const VertexId root : roots) root_lines += std::to_string(root) + "\n";
  GRAPHSD_RETURN_IF_ERROR(WriteText(dir + "/" + kRootsFile, root_lines));
  std::printf("prepared %s seed=%llu: %u vertices, %llu edges, %zu roots\n",
              workload.name, static_cast<unsigned long long>(seed),
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()), roots.size());
  return Status::Ok();
}

}  // namespace perfbench
