// perfbench: the GraphSD end-to-end benchmark harness.
//
//   perfbench prepare --workload W --seed N --dir D
//       generates the workload's edge file and reference answers into D;
//   perfbench measure --workload W --seed N --dir D --seconds S --trace 0|1
//       measures for S seconds, checks every output, and prints the metric
//       table followed by the result object as the last stdout line;
//   perfbench clients ... --window 0|1
//       serve-bfs's client process, spawned by `measure`;
//   perfbench footprint --workload W --seed N --dir D
//       a batch workload's footprint job, spawned by `measure`.
//
// perfbench/run.py builds this binary and runs both phases.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hpp"
#include "phases.hpp"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench prepare|measure --workload W --seed N "
               "--dir D [--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string phase = argv[1];
  std::string workload_name;
  MeasureOptions options;
  for (int k = 2; k + 1 < argc; k += 2) {
    const std::string flag = argv[k];
    const std::string value = argv[k + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--window") {
      options.window = value == "1";
    } else {
      return Usage();
    }
  }
  auto workload = ParseWorkload(workload_name);
  if (!workload.ok() || options.dir.empty()) {
    if (!workload.ok()) {
      std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    }
    return Usage();
  }
  options.workload = *workload;
  options.self_path = argv[0];

  if (phase == "prepare") {
    const graphsd::Status status =
        Prepare(options.workload, options.seed, options.dir);
    if (!status.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (phase == "clients") {
    const graphsd::Status status = RunServeClients(options);
    if (!status.ok()) {
      std::fprintf(stderr, "clients failed: %s\n", status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (phase == "footprint") {
    const graphsd::Status status = RunFootprint(options);
    if (!status.ok()) {
      std::fprintf(stderr, "footprint failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (phase != "measure") return Usage();

  const HostFingerprint host = Fingerprint(options.dir);
  std::printf("host: nproc=%u cpu=\"%s\" fs=%s o_direct=%s build=%s\n",
              host.nproc, host.cpu_model.c_str(), host.filesystem.c_str(),
              host.o_direct ? "yes" : "no", host.build_type.c_str());
  if (!host.o_direct) {
    std::fprintf(stderr,
                 "perfbench: O_DIRECT reads do not work on this filesystem "
                 "(%s); the real:ssd device would silently read through the "
                 "page cache, so the benchmark refuses to run\n",
                 host.filesystem.c_str());
    return 3;
  }
  const double ref_before = RefKernelMs();
  graphsd::Result<RunResult> result =
      options.workload.kind == WorkloadKind::kServeBfs ? MeasureServe(options)
                                                       : MeasureBatch(options);
  if (!result.ok()) {
    std::fprintf(stderr, "measure failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const double ref_after = RefKernelMs();
  std::printf("host.ref_ms: before %.3f, after %.3f\n", ref_before, ref_after);
  if (options.trace) {
    result->Add("host.ref_ms", Median({ref_before, ref_after}), "ms");
  }
  for (const Metric& m : result->metrics) {
    if (!std::isfinite(m.value)) result->Fail(m.name + " is not finite");
  }
  PrintResult(*result);
  return 0;
}
