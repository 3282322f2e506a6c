// Extension (design-choice ablation from DESIGN.md): sensitivity to the
// interval count P.
//
// Larger P shrinks the memory footprint per processing step and raises the
// fraction of sub-blocks FCIU can cross-iterate immediately (i < j covers
// (P-1)/2P of the grid... the secondary fraction approaches 1/2 from
// below), but multiplies index/file overheads and fragments selective
// reads. The sweep shows a shallow optimum rather than monotone behavior.
#include <cstdio>

#include "common/bench_datasets.hpp"
#include "common/table.hpp"
#include "graph/edge_io.hpp"
#include "graph/reference_algorithms.hpp"
#include "util/stats.hpp"
#include "partition/baseline_preprocessors.hpp"

using namespace graphsd::bench;

int main() {
  PrintFigureHeader(
      "Extension: interval-count sweep",
      "GraphSD execution and preprocessing vs P",
      "shallow optimum: tiny P starves cross-iteration, huge P fragments "
      "selective reads and index I/O");

  auto device = MakeBenchDevice();
  const DatasetSpec& spec = Specs()[2];  // uk_sim

  TablePrinter table({"P", "Preprocess(s)", "PR(s)", "CC(s)", "SSSP(s)",
                      "CC read"});
  for (const std::uint32_t p : {2u, 4u, 8u, 16u}) {
    // Build a dedicated copy at this P (bypasses the shared cache).
    const std::string root = BenchDataRoot() + "/psweep_p" + std::to_string(p);
    const PreparedDataset base = Prepare(*device, spec);  // for the raw file
    graphsd::partition::PreprocessOptions options;
    options.num_intervals = p;
    options.name = spec.name;
    device->ResetAccounting();
    auto preprocess = graphsd::partition::PreprocessGraphSD(
        base.raw_path, *device, root + "/d", options);
    if (!preprocess.ok()) {
      std::fprintf(stderr, "preprocess failed: %s\n",
                   preprocess.status().ToString().c_str());
      return 1;
    }
    // CC needs the symmetrized variant at the same P.
    auto raw = graphsd::ReadBinaryEdgeList(*device, base.raw_path);
    if (!raw.ok()) return 1;
    graphsd::partition::GridBuildOptions build;
    build.num_intervals = p;
    build.name = spec.name + "_sym";
    if (!graphsd::partition::BuildGrid(graphsd::Symmetrize(*raw), *device,
                                       root + "/sym", build)
             .ok()) {
      return 1;
    }

    PreparedDataset sized;
    sized.dir = root + "/d";
    sized.sym_dir = root + "/sym";
    sized.raw_path = base.raw_path;

    const graphsd::core::EngineOptions paper =
        graphsd::core::PaperEngineOptions();
    const auto pr = RunGraphSD(*device, sized, Algo::kPr, paper);
    const auto cc = RunGraphSD(*device, sized, Algo::kCc, paper);
    const auto sssp = RunGraphSD(*device, sized, Algo::kSssp, paper);
    table.AddRow({std::to_string(p),
                  Fmt(preprocess->io_seconds + preprocess->wall_seconds),
                  Fmt(pr.TotalSeconds()), Fmt(cc.TotalSeconds()),
                  Fmt(sssp.TotalSeconds()),
                  graphsd::FormatBytes(cc.io.TotalReadBytes())});
  }
  table.Print();
  return 0;
}
