// Figure 12: effect of the sub-block buffering scheme — all four
// algorithms on the UKUnion proxy with the priority buffer on vs off.
//
// Expected shape: buffering improves execution time by up to ~21% (it
// removes the second-pass reload of cached secondary sub-blocks in FCIU).
#include <cstdio>

#include "common/bench_datasets.hpp"
#include "common/table.hpp"
#include "util/stats.hpp"

using namespace graphsd::bench;

int main() {
  PrintFigureHeader(
      "Figure 12", "Effect of the buffering scheme (UKUnion)",
      "buffering improves performance by up to 21%");

  auto device = MakeBenchDevice();
  const PreparedDataset dataset = Prepare(*device, Specs()[3]);  // ukunion

  TablePrinter table({"Algo", "WithBuffer(s)", "NoBuffer(s)", "Improvement",
                      "BufferHits", "BytesSaved"});
  graphsd::core::EngineOptions with = graphsd::core::PaperEngineOptions();
  graphsd::core::EngineOptions without = graphsd::core::PaperEngineOptions();
  without.enable_buffering = false;

  double best = 0;
  for (const Algo algo : {Algo::kPr, Algo::kPrDelta, Algo::kCc, Algo::kSssp}) {
    const auto r_with = RunGraphSD(*device, dataset, algo, with);
    const auto r_without = RunGraphSD(*device, dataset, algo, without);
    const double improvement =
        100.0 * (r_without.TotalSeconds() - r_with.TotalSeconds()) /
        r_without.TotalSeconds();
    best = std::max(best, improvement);
    table.AddRow({AlgoName(algo), Fmt(r_with.TotalSeconds()),
                  Fmt(r_without.TotalSeconds()), Fmt(improvement, 1) + "%",
                  std::to_string(r_with.buffer_hits),
                  graphsd::FormatBytes(r_with.buffer_bytes_saved)});
  }
  table.Print();
  std::printf("\nBest improvement: %.1f%% (paper: up to 21%%)\n", best);
  return 0;
}
