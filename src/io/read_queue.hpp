// Bounded in-flight queue of asynchronous read tasks: the reader stage of
// the prefetch pipeline (io/prefetch.hpp).
//
// A ReadQueue admits at most `depth` Status-returning tasks onto a
// caller-supplied ThreadPool at once; Submit blocks when the window is
// full. Tickets are redeemed in any order, but the prefetch pipeline
// submits and waits strictly FIFO on a single-worker pool — one reader
// thread — which is what keeps prefetched execution bit-identical to the
// synchronous path. A task counts as in flight until it returns; the
// pipeline's decode stage runs after that, on its own threads, so decodes
// never hold a read slot and a decode failure never reaches this queue.
//
// Error semantics mirror synchronous code: once any task has returned a
// non-OK Status, tasks submitted after it are never executed — their
// tickets resolve to the poisoning status, exactly as a synchronous loop
// would never have issued reads past its first failure. The poison is
// scoped to the outstanding batch: once every submitted ticket has been
// resolved, the next Submit starts clean (a failed round must not poison
// the rounds after it). With a single-worker pool tasks execute strictly
// in submission order, so the set of reads actually performed — including
// retries, which run on the reader thread inside Device::RunWithRetry —
// matches the synchronous path even under injected faults.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "util/cancellation.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace graphsd::io {

class ReadQueue {
 public:
  using Ticket = std::uint64_t;

  /// `depth` is clamped to at least 1. The pool must outlive the queue.
  ReadQueue(ThreadPool& pool, std::size_t depth);

  /// Drains all in-flight tasks.
  ~ReadQueue();

  ReadQueue(const ReadQueue&) = delete;
  ReadQueue& operator=(const ReadQueue&) = delete;

  /// Blocks until fewer than `depth` tasks are in flight, then schedules
  /// `task` on the pool and returns its ticket.
  Ticket Submit(std::function<Status()> task);

  /// Blocks until `ticket`'s task has finished (or been skipped after a
  /// poisoning failure) and returns its Status. Each ticket may be waited
  /// on once.
  Status Wait(Ticket ticket);

  /// Blocks until every submitted task has finished or been skipped.
  /// Unredeemed statuses are dropped.
  void Drain();

  std::size_t depth() const noexcept { return depth_; }

  /// Attaches a cooperative-cancellation token (null detaches). A tripped
  /// token makes every not-yet-executed task resolve to kCancelled without
  /// touching the device — prompt in-flight drain on Ctrl-C. Like the
  /// poison, the cancelled status is surfaced through Wait; tasks already
  /// executing finish normally. Set before the first Submit.
  void set_cancellation(const CancellationToken* cancel) noexcept {
    cancel_ = cancel;
  }

  /// Tasks submitted over the queue's lifetime.
  std::uint64_t submitted() const;

  /// Tasks skipped because an earlier task failed.
  std::uint64_t skipped() const;

 private:
  struct Slot {
    bool done = false;
    bool redeemed = false;
    Status status;
  };

  /// Runs one task on a pool worker; `ticket` indexes its slot.
  void RunTask(Ticket ticket, const std::function<Status()>& task);
  Slot& SlotFor(Ticket ticket);
  void PopRedeemedLocked();

  ThreadPool* pool_;
  std::size_t depth_;
  const CancellationToken* cancel_ = nullptr;

  mutable std::mutex mutex_;
  std::condition_variable window_open_;  // in_flight_ < depth_
  std::condition_variable task_done_;
  std::deque<Slot> slots_;  // slots_[ticket - base_]
  Ticket base_ = 0;
  Ticket next_ticket_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t skipped_ = 0;
  // First failure; set once, then every later task is skipped with it.
  Status poison_ = Status::Ok();
};

}  // namespace graphsd::io
