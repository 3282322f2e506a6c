// Figure 11: overhead of the state-aware I/O scheduling strategy on the
// Twitter2010 proxy — the compute time spent evaluating the benefit model
// versus the I/O time it saves.
//
// Expected shape: evaluation overhead is negligible (paper: 3.4 s of
// evaluation buys 158 s of I/O on PR-D).
#include <cstdio>

#include "common/bench_datasets.hpp"
#include "common/table.hpp"

using namespace graphsd::bench;

int main() {
  PrintFigureHeader(
      "Figure 11", "Overheads of the state-aware I/O scheduling strategy",
      "benefit-evaluation compute is orders of magnitude below the I/O time "
      "it saves");

  auto device = MakeBenchDevice();
  const PreparedDataset dataset = Prepare(*device, Specs()[0]);  // twitter

  TablePrinter table({"Algo", "EvalOverhead(s)", "ReducedIO(s)", "Ratio"});
  // Reduced I/O = what the always-full engine pays minus what the adaptive
  // engine pays (the scheduler's contribution is choosing on-demand when it
  // wins).
  graphsd::core::EngineOptions adaptive = graphsd::core::PaperEngineOptions();
  graphsd::core::EngineOptions b3 = graphsd::core::PaperEngineOptions();
  b3.enable_selective = false;

  for (const Algo algo : {Algo::kPrDelta, Algo::kCc, Algo::kSssp}) {
    const auto r_adaptive = RunGraphSD(*device, dataset, algo, adaptive);
    const auto r_b3 = RunGraphSD(*device, dataset, algo, b3);
    const double saved = r_b3.io_seconds - r_adaptive.io_seconds;
    const double overhead = r_adaptive.scheduler_seconds;
    table.AddRow({AlgoName(algo), Fmt(overhead, 4), Fmt(saved, 2),
                  overhead > 0 ? FmtSpeedup(saved / overhead) : "inf"});
  }
  table.Print();
  std::printf("\n(paper's example: 3.4s of evaluation vs 158s of reduced "
              "I/O on PR-D)\n");
  return 0;
}
