#include "workloads.hpp"

#include <sstream>

#include "bench_util.hpp"

namespace perfbench {

graphsd::Result<Workload> ParseWorkload(const std::string& name) {
  static constexpr Workload kWorkloads[] = {
      {WorkloadKind::kPageRankStream, "pagerank-stream"},
      {WorkloadKind::kSsspFrontier, "sssp-frontier"},
      {WorkloadKind::kServeBfs, "serve-bfs"},
  };
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  return graphsd::InvalidArgumentError(
      "unknown workload '" + name +
      "' (expected pagerank-stream | sssp-frontier | serve-bfs)");
}

graphsd::Result<std::vector<graphsd::VertexId>> ReadRoots(
    const std::string& dir) {
  GRAPHSD_ASSIGN_OR_RETURN(const std::string text,
                           ReadText(dir + "/" + kRootsFile));
  std::vector<graphsd::VertexId> roots;
  std::istringstream in(text);
  for (graphsd::VertexId root; in >> root;) roots.push_back(root);
  return roots;
}

}  // namespace perfbench
