// Extension of Figure 12: buffer-capacity sweep.
//
// The paper fixes the memory budget at 5% of the graph; this sweep varies
// the §4.3 buffer capacity from 0 to 40% of the edge payload and reports
// execution time, hit counts and bytes served from memory for PR (dense,
// every secondary sub-block is reloaded each round) and CC (sparse tail).
// Expected: monotone improvement with diminishing returns once every
// secondary sub-block fits.
#include <cstdio>

#include "common/bench_datasets.hpp"
#include "common/table.hpp"
#include "util/stats.hpp"

using namespace graphsd::bench;

int main() {
  PrintFigureHeader(
      "Extension: buffer-capacity sweep",
      "Figure 12 generalized: priority-buffer capacity 0-40% of edges",
      "monotone improvement, saturating once all secondary sub-blocks fit");

  auto device = MakeBenchDevice();
  const PreparedDataset dataset = Prepare(*device, Specs()[3]);  // ukunion
  const std::uint64_t edge_bytes = dataset.num_edges * (graphsd::kEdgeBytes +
                                                        graphsd::kWeightBytes);

  TablePrinter table({"Capacity", "PR(s)", "PR hits", "CC(s)", "CC hits",
                      "CC saved"});
  double previous_pr = 0;
  for (const double percent : {0.0, 1.0, 2.5, 5.0, 10.0, 20.0, 40.0}) {
    graphsd::core::EngineOptions options = graphsd::core::PaperEngineOptions();
    options.enable_buffering = percent > 0;
    options.buffer_capacity_bytes =
        static_cast<std::uint64_t>(edge_bytes * percent / 100.0);
    const auto pr = RunGraphSD(*device, dataset, Algo::kPr, options);
    const auto cc = RunGraphSD(*device, dataset, Algo::kCc, options);
    table.AddRow({Fmt(percent, 1) + "%", Fmt(pr.TotalSeconds()),
                  std::to_string(pr.buffer_hits), Fmt(cc.TotalSeconds()),
                  std::to_string(cc.buffer_hits),
                  graphsd::FormatBytes(cc.buffer_bytes_saved)});
    if (previous_pr > 0) {
      // Sanity: more cache never makes the modeled time meaningfully worse.
      if (pr.TotalSeconds() > previous_pr * 1.02) {
        std::printf("WARNING: non-monotone at %.1f%%\n", percent);
      }
    }
    previous_pr = pr.TotalSeconds();
  }
  table.Print();
  return 0;
}
