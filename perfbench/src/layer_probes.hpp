// Layer micro-probes: the harness times its own calls into one module's
// public functions on the workload's dataset, so each per-layer rate has
// an anchor measured outside the engine.
#pragma once

#include <string>

#include "bench_util.hpp"
#include "partition/grid_dataset.hpp"

namespace perfbench {

struct ProbeRates {
  double apply_serial_medges_s = 0;   // core: ShardedDstApply, 1 shard
  double apply_sharded_medges_s = 0;  // core: ShardedDstApply, pool-wide
  double decode_mib_s = 0;            // partition/compress: DecodeSubBlock
  double crc32c_gib_s = 0;            // util: Crc32c
  double read_mib_s = 0;              // io: whole-file O_DIRECT ReadAt
  double read_runs_mib_s = 0;         // partition: SubBlockReader::ReadRuns
};

/// `dataset` is the workload's compressed dataset (opened on a real:ssd
/// device); `raw_dir` holds an uncompressed build of the same graph,
/// because selective range reads exist only on the raw layout.
graphsd::Result<ProbeRates> RunLayerProbes(
    const graphsd::partition::GridDataset& dataset, const std::string& raw_dir);

}  // namespace perfbench
