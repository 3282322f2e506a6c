// The benchmark's workloads and the shape of their generated inputs.
//
// `prepare` generates a workload's edge file and its reference answers
// from the seed; `measure` sees only those files. See perfbench/README.md
// for why each workload exists and which layers it exercises.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/types.hpp"
#include "util/status.hpp"

namespace perfbench {

enum class WorkloadKind { kPageRankStream, kSsspFrontier, kServeBfs };

struct Workload {
  WorkloadKind kind;
  const char* name;
};

graphsd::Result<Workload> ParseWorkload(const std::string& name);

// pagerank-stream: web-like graph, ~9.9M edges.
inline constexpr graphsd::VertexId kWebVertices = 360000;
inline constexpr std::uint32_t kWebAvgDegree = 16;
inline constexpr std::uint32_t kPageRankIterations = 10;

// sssp-frontier: weighted right/down grid; the root is drawn from the
// seed among the top-left kGridRootSpan × kGridRootSpan corner, so every
// seed reaches nearly the whole grid in ~600 BSP iterations.
inline constexpr graphsd::VertexId kGridSide = 300;
inline constexpr double kGridMaxWeight = 100.0;
inline constexpr graphsd::VertexId kGridRootSpan = 4;

// serve-bfs: a web-like graph small enough for hundreds of queries a run.
// The clients draw every query's root uniformly among the vertices with an
// out-edge; `prepare` draws kServeSoloRoots of them (with reference
// answers) for the solo jobs the traced run attributes.
inline constexpr graphsd::VertexId kServeVertices = 20000;
inline constexpr std::uint32_t kServeAvgDegree = 16;
inline constexpr std::uint32_t kServeSoloRoots = 8;
inline constexpr std::uint32_t kServeConnections = 4;

// Every dataset: P = 8 intervals, varint-delta compressed sub-blocks.
inline constexpr std::uint32_t kIntervals = 8;
inline constexpr const char* kCodec = "varint-delta";

// Files `prepare` leaves in the work directory for `measure`.
inline constexpr const char* kEdgeFile = "edges.gsde";
inline constexpr const char* kAnswerFile = "answer.f64";  // reference values
inline constexpr const char* kRootsFile = "roots.txt";    // one root per line

/// Reads the roots `prepare` drew, in order.
graphsd::Result<std::vector<graphsd::VertexId>> ReadRoots(
    const std::string& dir);

}  // namespace perfbench
