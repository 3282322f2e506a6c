#include "io/prefetch.hpp"

#include <algorithm>
#include <thread>

#include "obs/metrics.hpp"

namespace graphsd::io {

PrefetchPipeline::PrefetchPipeline(std::size_t depth)
    : PrefetchPipeline(
          depth, DecodeThreadsFor(depth, std::thread::hardware_concurrency())) {}

PrefetchPipeline::PrefetchPipeline(std::size_t depth,
                                   std::size_t decode_threads)
    : depth_(depth) {
  if (depth_ == 0) return;
  // One loader thread, always: see the header for why parallel readers
  // would break read-sequence parity with the synchronous path.
  loader_ = std::make_unique<ThreadPool>(1);
  if (decode_threads > 0) {
    decoders_ = std::make_unique<ThreadPool>(decode_threads);
  }
  queue_ = std::make_unique<ReadQueue>(*loader_, depth_);
}

PrefetchPipeline::~PrefetchPipeline() {
  // Queue first (drains in-flight reads, which may still start decodes),
  // then the decode pool drains and joins, then the loader joins.
  queue_.reset();
  decoders_.reset();
  loader_.reset();
}

std::size_t PrefetchPipeline::DecodeThreadsFor(std::size_t depth,
                                               std::size_t cores) {
  if (depth <= 1 || cores <= 1) return 0;
  return std::min(depth - 1, cores - 1);
}

void PrefetchPipeline::Decode(std::function<void()> job) {
  if (decoders_ != nullptr) {
    decoders_->Submit(std::move(job));
  } else {
    job();
  }
}

void PrefetchPipeline::Drain() {
  if (queue_ == nullptr) return;
  queue_->Drain();
  // Decode jobs are packaged tasks: they never throw into the pool.
  if (decoders_ != nullptr) decoders_->Wait();
}

void PrefetchPipeline::PublishMetrics(obs::MetricsRegistry& metrics) const {
  metrics.GetGauge("prefetch.depth").Set(static_cast<double>(depth_));
  metrics.GetGauge("prefetch.decode_threads")
      .Set(static_cast<double>(decode_threads()));
  metrics.GetGauge("prefetch.submitted")
      .Set(queue_ != nullptr ? static_cast<double>(queue_->submitted()) : 0.0);
  metrics.GetGauge("prefetch.skipped")
      .Set(queue_ != nullptr ? static_cast<double>(queue_->skipped()) : 0.0);
}

}  // namespace graphsd::io
