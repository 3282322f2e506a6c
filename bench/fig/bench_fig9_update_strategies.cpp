// Figure 9: effect of the update strategy — GraphSD vs GraphSD-b1 (no
// cross-iteration update) vs GraphSD-b2 (no selective update), execution
// time and I/O traffic on the Twitter2010 proxy.
//
// Expected shape: GraphSD beats b1 (paper: 1.7x) and b2 (paper: 2.8x);
// b2 is worse than b1 (state-awareness matters more than cross-iteration);
// traffic ratios ~1.6x / ~5.4x.
#include <cmath>
#include <cstdio>

#include "common/bench_datasets.hpp"
#include "common/table.hpp"
#include "util/stats.hpp"

using namespace graphsd::bench;

int main() {
  PrintFigureHeader(
      "Figure 9", "Effect of different update strategies (Twitter2010)",
      "GraphSD outperforms b1 by 1.7x and b2 by 2.8x; traffic 1.6x / 5.4x "
      "lower; b2 worse than b1");

  auto device = MakeBenchDevice();
  const PreparedDataset dataset = Prepare(*device, Specs()[0]);

  graphsd::core::EngineOptions full = graphsd::core::PaperEngineOptions();
  // b1: cross-iteration disabled.
  graphsd::core::EngineOptions b1 = graphsd::core::PaperEngineOptions();
  b1.enable_cross_iteration = false;
  // b2: selective disabled.
  graphsd::core::EngineOptions b2 = graphsd::core::PaperEngineOptions();
  b2.enable_selective = false;

  TablePrinter time_table(
      {"Algo", "GraphSD(s)", "b1(s)", "b2(s)", "b1/GSD", "b2/GSD"});
  TablePrinter traffic_table(
      {"Algo", "GraphSD", "b1", "b2", "b1/GSD", "b2/GSD"});

  double b1_product = 1;
  double b2_product = 1;
  int count = 0;
  // The frontier algorithms, where both mechanisms engage (PR is covered by
  // Figure 12's buffering analysis; the paper's Figure 9 highlights PR-D,
  // CC and SSSP where active sets shrink).
  for (const Algo algo : {Algo::kPr, Algo::kPrDelta, Algo::kCc, Algo::kSssp}) {
    const auto gsd = RunGraphSD(*device, dataset, algo, full);
    const auto r1 = RunGraphSD(*device, dataset, algo, b1);
    const auto r2 = RunGraphSD(*device, dataset, algo, b2);
    const double t = gsd.TotalSeconds();
    time_table.AddRow({AlgoName(algo), Fmt(t), Fmt(r1.TotalSeconds()),
                       Fmt(r2.TotalSeconds()),
                       FmtSpeedup(r1.TotalSeconds() / t),
                       FmtSpeedup(r2.TotalSeconds() / t)});
    traffic_table.AddRow(
        {AlgoName(algo), graphsd::FormatBytes(gsd.io.TotalBytes()),
         graphsd::FormatBytes(r1.io.TotalBytes()),
         graphsd::FormatBytes(r2.io.TotalBytes()),
         FmtSpeedup(static_cast<double>(r1.io.TotalBytes()) /
                    gsd.io.TotalBytes()),
         FmtSpeedup(static_cast<double>(r2.io.TotalBytes()) /
                    gsd.io.TotalBytes())});
    b1_product *= r1.TotalSeconds() / t;
    b2_product *= r2.TotalSeconds() / t;
    ++count;
  }

  std::printf("(a) execution time:\n");
  time_table.Print();
  std::printf("\n(b) I/O traffic:\n");
  traffic_table.Print();
  std::printf("\nGeomean: b1/GraphSD = %.2fx (paper: 1.7x), b2/GraphSD = "
              "%.2fx (paper: 2.8x)\n",
              std::pow(b1_product, 1.0 / count),
              std::pow(b2_product, 1.0 / count));
  return 0;
}
