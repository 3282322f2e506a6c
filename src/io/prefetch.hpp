// Asynchronous prefetch pipeline: overlap device reads and frame decode
// with compute.
//
// A PrefetchPipeline has two stages behind a bounded ReadQueue
// (io/read_queue.hpp):
//
//   * One reader. Fetch closures run on a dedicated single-worker loader
//     pool, ahead of the consumer, in plan order. The modeled device is
//     serial (one head position, one virtual clock) and a single worker
//     runs tasks in submission order, so the performed read sequence — and
//     with it byte counts, sequential/random classification and
//     fault-injection behavior — exactly matches the synchronous path.
//   * A decode stage. A unit's optional decode closure (GSDF frame decode)
//     runs once its read has succeeded, on a small decode pool, so several
//     frames decode at once while the consumer applies an earlier unit.
//     The pool is sized from the look-ahead depth and the core count
//     (DecodeThreadsFor); a pipeline without decode threads (depth 1, or a
//     single core) decodes on the loader right after the read.
//
// PrefetchStream<Payload> is the planning front-end the executors use: a
// fixed, ordered plan of fetch units consumed strictly FIFO with a
// look-ahead window of `depth` units. Each unit may carry a skip probe
// (evaluated on the consumer thread at issue time) so already-resident
// sub-blocks are never re-read. With a null or disabled pipeline the
// stream degrades to running each fetch and decode inline at Take(), i.e.
// the synchronous path is the same code minus the look-ahead.
//
// Memory: the window holds at most `depth` issued units, read or decoded,
// beyond the unit the consumer is applying.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "io/read_queue.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::obs {
class MetricsRegistry;
}  // namespace graphsd::obs

namespace graphsd::io {

class PrefetchPipeline {
 public:
  /// `depth` is the look-ahead window in fetch units; 0 disables the
  /// pipeline entirely (no thread is started). The decode stage gets
  /// DecodeThreadsFor(depth, hardware concurrency) threads.
  explicit PrefetchPipeline(std::size_t depth);

  /// Same, with the decode stage pinned to `decode_threads` (0 = decode on
  /// the loader). Lets tests exercise the pool on any host.
  PrefetchPipeline(std::size_t depth, std::size_t decode_threads);

  ~PrefetchPipeline();

  PrefetchPipeline(const PrefetchPipeline&) = delete;
  PrefetchPipeline& operator=(const PrefetchPipeline&) = delete;

  /// Decode threads for a `depth`-unit look-ahead on `cores` cores: one
  /// fewer than the depth (a one-unit window has nothing to decode in
  /// parallel) and one fewer than the cores (the engine thread applies).
  static std::size_t DecodeThreadsFor(std::size_t depth, std::size_t cores);

  bool enabled() const noexcept { return queue_ != nullptr; }
  std::size_t depth() const noexcept { return depth_; }
  std::size_t decode_threads() const noexcept {
    return decoders_ != nullptr ? decoders_->size() : 0;
  }

  /// The shared read queue. Valid only when enabled().
  ReadQueue& queue() noexcept { return *queue_; }

  /// Runs `job` on the decode pool, or inline when there is none. Called
  /// by the loader once a unit's read has succeeded.
  void Decode(std::function<void()> job);

  /// Forwards a cancellation token to the read queue (no-op when the
  /// pipeline is disabled): a tripped token drains queued fetches as
  /// kCancelled instead of performing their device I/O.
  void set_cancellation(const CancellationToken* cancel) noexcept {
    if (queue_ != nullptr) queue_->set_cancellation(cancel);
  }

  /// Blocks until no read or decode is in flight. Streams already drain
  /// their own units; engines call this at round boundaries so per-round
  /// I/O accounting snapshots see a quiesced device.
  void Drain();

  /// Publishes depth, decode threads and lifetime queue counters as
  /// `prefetch.*` gauges (snapshot semantics: safe to call repeatedly, last
  /// write wins).
  void PublishMetrics(obs::MetricsRegistry& metrics) const;

 private:
  std::size_t depth_;
  std::unique_ptr<ThreadPool> loader_;
  std::unique_ptr<ThreadPool> decoders_;  // null: decode on the loader
  std::unique_ptr<ReadQueue> queue_;
};

/// FIFO stream of planned fetches with bounded look-ahead. Single consumer
/// thread; the pipeline's threads only ever touch the payload a unit's
/// closures were handed (publication happens-before Take() returns it, via
/// the queue's mutex and the decode's future).
template <typename Payload>
class PrefetchStream {
 public:
  struct Unit {
    /// Evaluated on the consumer thread when the unit is issued (which in
    /// synchronous mode is also when it is consumed). True = don't fetch.
    std::function<bool()> skip;
    /// Optional. Runs on the consumer thread when the unit is issued,
    /// before its fetch: sizes the payload so the pipeline's threads fill
    /// memory the consumer's thread allocated.
    std::function<void(Payload&)> prepare;
    /// Performs the accounted reads and fills the payload. Runs on the
    /// loader thread when prefetching, inline at Take() otherwise.
    std::function<Status(Payload&)> fetch;
    /// Optional second stage over what `fetch` read (frame decode). Runs
    /// only after a successful fetch, on the decode stage when prefetching,
    /// inline at Take() otherwise. A decode failure fails this unit alone:
    /// it never poisons the reads of later units.
    std::function<Status(Payload&)> decode;
  };

  struct Item {
    bool fetched = false;  // false: the skip probe fired
    Status status = Status::Ok();
    Payload payload{};
  };

  /// `pipeline` may be null or disabled (synchronous mode). The plan is
  /// consumed in order by Take(); issuing starts immediately.
  PrefetchStream(PrefetchPipeline* pipeline, std::vector<Unit> plan)
      : pipeline_(pipeline != nullptr && pipeline->enabled() ? pipeline
                                                             : nullptr),
        plan_(std::move(plan)) {
    if (pipeline_ != nullptr) FillWindow();
  }

  /// Waits out any reads and decodes the consumer never took (error
  /// unwinds).
  ~PrefetchStream() {
    for (Pending& pending : window_) {
      if (!pending.issued) continue;
      // A decode is only started by a successful read.
      const Status read = pipeline_->queue().Wait(pending.ticket);
      if (read.ok() && pending.decoded.valid()) pending.decoded.wait();
    }
  }

  PrefetchStream(const PrefetchStream&) = delete;
  PrefetchStream& operator=(const PrefetchStream&) = delete;

  /// Consumes the next planned unit, in plan order.
  Item Take() {
    GRAPHSD_CHECK(consumed_ < plan_.size());
    Item item;
    if (pipeline_ == nullptr) {
      Unit& unit = plan_[consumed_++];
      if (unit.skip && unit.skip()) return item;
      item.fetched = true;
      if (unit.prepare) unit.prepare(item.payload);
      item.status = unit.fetch(item.payload);
      if (item.status.ok() && unit.decode) {
        item.status = unit.decode(item.payload);
      }
      return item;
    }
    Pending pending = std::move(window_.front());
    window_.pop_front();
    ++consumed_;
    FillWindow();
    if (!pending.issued) return item;
    item.fetched = true;
    item.status = pipeline_->queue().Wait(pending.ticket);
    if (item.status.ok() && pending.decoded.valid()) {
      item.status = pending.decoded.get();
    }
    item.payload = std::move(*pending.payload);
    return item;
  }

  std::size_t consumed() const noexcept { return consumed_; }
  std::size_t planned() const noexcept { return plan_.size(); }

 private:
  struct Pending {
    bool issued = false;
    ReadQueue::Ticket ticket = 0;
    // Heap slot the pipeline writes into; stable across deque shuffles.
    std::unique_ptr<Payload> payload;
    // The decode's result; invalid when the unit has no decode stage.
    std::future<Status> decoded;
  };

  void FillWindow() {
    while (issued_ < plan_.size() && window_.size() < pipeline_->depth()) {
      Unit& unit = plan_[issued_++];
      Pending pending;
      if (!(unit.skip && unit.skip())) {
        pending.issued = true;
        pending.payload = std::make_unique<Payload>();
        Payload* out = pending.payload.get();
        if (unit.prepare) unit.prepare(*out);
        std::shared_ptr<std::packaged_task<Status()>> decode;
        if (unit.decode) {
          decode = std::make_shared<std::packaged_task<Status()>>(
              [fn = std::move(unit.decode), out] { return fn(*out); });
          pending.decoded = decode->get_future();
        }
        pending.ticket = pipeline_->queue().Submit(
            [fetch = std::move(unit.fetch), decode, out,
             pipeline = pipeline_]() -> Status {
              Status status = fetch(*out);
              if (status.ok() && decode != nullptr) {
                pipeline->Decode([decode] { (*decode)(); });
              }
              return status;
            });
      }
      window_.push_back(std::move(pending));
    }
  }

  PrefetchPipeline* pipeline_;  // null = synchronous mode
  std::vector<Unit> plan_;
  std::size_t issued_ = 0;
  std::size_t consumed_ = 0;
  std::deque<Pending> window_;
};

}  // namespace graphsd::io
