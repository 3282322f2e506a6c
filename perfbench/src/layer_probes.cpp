#include "layer_probes.hpp"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/sharded_apply.hpp"
#include "io/device.hpp"
#include "util/crc32c.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

using graphsd::Result;
using graphsd::Status;
using graphsd::partition::GridDataset;
using graphsd::partition::SubBlock;
using graphsd::partition::SubBlockPayload;

namespace {

constexpr int kReps = 3;

struct Block {
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  SubBlockPayload payload;  // undecoded frame
  SubBlock decoded;
};

Result<std::vector<Block>> FetchAll(const GridDataset& dataset) {
  std::vector<Block> blocks;
  const std::uint32_t p = dataset.p();
  for (std::uint32_t i = 0; i < p; ++i) {
    for (std::uint32_t j = 0; j < p; ++j) {
      if (dataset.manifest().EdgesIn(i, j) == 0) continue;
      Block block;
      block.i = i;
      block.j = j;
      GRAPHSD_ASSIGN_OR_RETURN(block.payload,
                               dataset.FetchSubBlock(i, j, false));
      blocks.push_back(std::move(block));
    }
  }
  return blocks;
}

// Decodes every frame kReps times; keeps the last decode of each block.
Result<double> DecodeRate(const GridDataset& dataset, std::vector<Block>& blocks) {
  std::vector<double> seconds;
  std::uint64_t bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    double total = 0;
    bytes = 0;
    for (Block& block : blocks) {
      SubBlockPayload copy;
      copy.frame = block.payload.frame;
      const double start = NowSeconds();
      GRAPHSD_RETURN_IF_ERROR(dataset.DecodeSubBlock(block.i, block.j, copy));
      total += NowSeconds() - start;
      bytes += copy.block.SizeBytes();
      block.decoded = std::move(copy.block);
    }
    seconds.push_back(total);
  }
  return static_cast<double>(bytes) / kMiB / Median(seconds);
}

// A PageRank-shaped apply (sum a source contribution into the destination)
// over every decoded sub-block, restricted to the block's column interval
// exactly as the executors call it.
double ApplyRate(const GridDataset& dataset, const std::vector<Block>& blocks,
                 graphsd::ThreadPool& pool, std::size_t shards) {
  const auto& boundaries = dataset.manifest().boundaries;
  std::vector<double> contrib(dataset.num_vertices());
  for (std::size_t v = 0; v < contrib.size(); ++v) contrib[v] = 1.0 / (v + 1.0);
  std::vector<double> acc(dataset.num_vertices(), 0.0);
  std::uint64_t edges = 0;
  for (const Block& block : blocks) edges += block.decoded.edges.size();
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    const double start = NowSeconds();
    for (const Block& block : blocks) {
      graphsd::core::ShardedDstApply(
          pool, shards, graphsd::core::ExecContext{}.parallel_grain,
          block.decoded, false, boundaries[block.j], boundaries[block.j + 1],
          [&](const graphsd::Edge& e, graphsd::Weight) {
            acc[e.dst] += contrib[e.src];
          });
    }
    seconds.push_back(NowSeconds() - start);
  }
  return static_cast<double>(edges) / 1e6 / Median(seconds);
}

double Crc32cRate() {
  std::vector<std::uint8_t> data(32u << 20);
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<std::uint8_t>(k * 131u + (k >> 12));
  }
  std::vector<double> seconds;
  volatile std::uint32_t sink = 0;
  for (int rep = 0; rep < 2 * kReps; ++rep) {
    const double start = NowSeconds();
    sink = sink ^ graphsd::Crc32c(0, data.data(), data.size());
    seconds.push_back(NowSeconds() - start);
  }
  return static_cast<double>(data.size()) / (kMiB * 1024.0) / Median(seconds);
}

// Whole edge files through a fresh real:ssd device (O_DIRECT, so every
// byte comes from the device, not the page cache).
Result<double> DeviceReadRate(const GridDataset& dataset,
                              const std::vector<Block>& blocks) {
  std::vector<double> seconds;
  std::uint64_t bytes = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto device = graphsd::io::MakeRealSsdDevice();
    double total = 0;
    bytes = 0;
    for (const Block& block : blocks) {
      GRAPHSD_ASSIGN_OR_RETURN(
          graphsd::io::DeviceFile file,
          device->Open(graphsd::partition::SubBlockEdgesPath(
                           dataset.dir(), block.i, block.j),
                       graphsd::io::OpenMode::kRead));
      GRAPHSD_ASSIGN_OR_RETURN(const std::uint64_t size, file.Size());
      std::vector<std::uint8_t> buffer(size);
      const double start = NowSeconds();
      GRAPHSD_RETURN_IF_ERROR(file.ReadAt(0, buffer));
      total += NowSeconds() - start;
      bytes += size;
    }
    seconds.push_back(total);
  }
  return static_cast<double>(bytes) / kMiB / Median(seconds);
}

// Selective reads of every 16th source vertex's edge list per sub-block of
// the raw build: the SCIU read shape on the layout that supports it.
Result<double> ReadRunsRate(const std::string& raw_dir) {
  auto index_device = graphsd::io::MakePosixDevice();
  GRAPHSD_ASSIGN_OR_RETURN(GridDataset raw,
                           GridDataset::Open(*index_device, raw_dir));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> runs;
  for (std::uint32_t i = 0; i < raw.p(); ++i) {
    for (std::uint32_t j = 0; j < raw.p(); ++j) {
      if (raw.manifest().EdgesIn(i, j) == 0) continue;
      GRAPHSD_ASSIGN_OR_RETURN(const std::vector<std::uint32_t> offsets,
                               raw.LoadIndex(i, j));
      std::vector<std::pair<std::uint64_t, std::uint64_t>> cell_runs;
      for (std::size_t v = 0; v + 1 < offsets.size(); v += 16) {
        if (offsets[v + 1] > offsets[v]) {
          cell_runs.emplace_back(offsets[v], offsets[v + 1]);
        }
      }
      if (cell_runs.empty()) continue;
      cells.emplace_back(i, j);
      runs.push_back(std::move(cell_runs));
    }
  }
  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    auto device = graphsd::io::MakeRealSsdDevice();
    GRAPHSD_ASSIGN_OR_RETURN(GridDataset dataset,
                             GridDataset::Open(*device, raw_dir));
    double total = 0;
    std::uint64_t bytes = 0;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      GRAPHSD_ASSIGN_OR_RETURN(
          graphsd::partition::SubBlockReader reader,
          dataset.OpenSubBlockReader(cells[c].first, cells[c].second, false));
      std::vector<graphsd::Edge> edges;
      const double start = NowSeconds();
      GRAPHSD_RETURN_IF_ERROR(reader.ReadRuns(runs[c], edges, nullptr));
      total += NowSeconds() - start;
      bytes += edges.size() * sizeof(graphsd::Edge);
    }
    rates.push_back(static_cast<double>(bytes) / kMiB / total);
  }
  return Median(rates);
}

}  // namespace

Result<ProbeRates> RunLayerProbes(const GridDataset& dataset,
                                  const std::string& raw_dir) {
  ProbeRates rates;
  GRAPHSD_ASSIGN_OR_RETURN(std::vector<Block> blocks, FetchAll(dataset));
  GRAPHSD_ASSIGN_OR_RETURN(rates.decode_mib_s, DecodeRate(dataset, blocks));
  graphsd::ThreadPool pool(0);
  rates.apply_serial_medges_s = ApplyRate(dataset, blocks, pool, 1);
  rates.apply_sharded_medges_s = ApplyRate(dataset, blocks, pool, pool.size());
  rates.crc32c_gib_s = Crc32cRate();
  GRAPHSD_ASSIGN_OR_RETURN(rates.read_mib_s, DeviceReadRate(dataset, blocks));
  GRAPHSD_ASSIGN_OR_RETURN(rates.read_runs_mib_s, ReadRunsRate(raw_dir));
  return rates;
}

}  // namespace perfbench
