// PrefetchStream's two stages: reads on the one loader thread, decodes on
// the pipeline's decode pool, units handed back strictly in plan order.
// Registered as tsan_prefetch_stream_smoke: every test here crosses the
// consumer / loader / decoder threads.
#include "io/prefetch.hpp"

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "testing_util.hpp"
#include "util/cancellation.hpp"

namespace graphsd::io {
namespace {

using Stream = PrefetchStream<int>;

// A unit whose fetch writes `value` and whose decode doubles it.
Stream::Unit DoublingUnit(int value) {
  Stream::Unit unit;
  unit.fetch = [value](int& out) {
    out = value;
    return Status::Ok();
  };
  unit.decode = [](int& out) {
    out *= 2;
    return Status::Ok();
  };
  return unit;
}

TEST(PrefetchStream, DecodeThreadsFollowDepthAndCores) {
  EXPECT_EQ(PrefetchPipeline::DecodeThreadsFor(0, 4), 0u);
  EXPECT_EQ(PrefetchPipeline::DecodeThreadsFor(1, 4), 0u);  // one unit
  EXPECT_EQ(PrefetchPipeline::DecodeThreadsFor(2, 4), 1u);
  EXPECT_EQ(PrefetchPipeline::DecodeThreadsFor(4, 4), 3u);
  EXPECT_EQ(PrefetchPipeline::DecodeThreadsFor(8, 4), 3u);  // core-bound
  EXPECT_EQ(PrefetchPipeline::DecodeThreadsFor(4, 1), 0u);
  EXPECT_EQ(PrefetchPipeline(1).decode_threads(), 0u);
  EXPECT_EQ(PrefetchPipeline(0, 3).decode_threads(), 0u);  // disabled
  EXPECT_EQ(PrefetchPipeline(4, 3).decode_threads(), 3u);
}

TEST(PrefetchStream, UnitsComeBackInPlanOrderWhenLaterDecodesFinishFirst) {
  PrefetchPipeline pipeline(4, 3);
  // Unit 0's decode holds until units 1..3 have decoded.
  std::promise<void> later_done;
  std::shared_future<void> later = later_done.get_future().share();
  std::atomic<int> decoded_later{0};
  std::mutex order_mutex;
  std::vector<int> finish_order;
  std::vector<Stream::Unit> plan;
  for (int u = 0; u < 4; ++u) {
    Stream::Unit unit = DoublingUnit(u + 1);
    unit.decode = [&, u, later](int& out) {
      if (u == 0) later.wait();
      out *= 2;
      {
        std::lock_guard<std::mutex> lock(order_mutex);
        finish_order.push_back(u);
      }
      if (u != 0 && ++decoded_later == 3) later_done.set_value();
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan));
  for (int u = 0; u < 4; ++u) {
    Stream::Item item = stream.Take();
    ASSERT_TRUE(item.fetched);
    ASSERT_OK(item.status);
    EXPECT_EQ(item.payload, 2 * (u + 1)) << "unit " << u;
  }
  ASSERT_EQ(finish_order.size(), 4u);
  EXPECT_EQ(finish_order.back(), 0);  // decoded last, consumed first
}

TEST(PrefetchStream, DecodeFailureFailsOnlyItsOwnUnit) {
  for (const std::size_t decode_threads : {0u, 3u}) {
    PrefetchPipeline pipeline(4, decode_threads);
    std::atomic<int> reads{0};
    std::vector<Stream::Unit> plan;
    for (int u = 0; u < 4; ++u) {
      Stream::Unit unit = DoublingUnit(u + 1);
      unit.fetch = [&reads, u](int& out) {
        ++reads;
        out = u + 1;
        return Status::Ok();
      };
      if (u == 1) {
        unit.decode = [](int&) {
          return CorruptDataError("sb_1_0: bad frame");
        };
      }
      plan.push_back(std::move(unit));
    }
    Stream stream(&pipeline, std::move(plan));
    for (int u = 0; u < 4; ++u) {
      Stream::Item item = stream.Take();
      ASSERT_TRUE(item.fetched);
      if (u == 1) {
        EXPECT_EQ(item.status.code(), StatusCode::kCorruptData);
        EXPECT_EQ(item.status.message(), "sb_1_0: bad frame");
      } else {
        EXPECT_OK(item.status);
        EXPECT_EQ(item.payload, 2 * (u + 1));
      }
    }
    // A decode failure never poisons the reads behind it.
    EXPECT_EQ(reads.load(), 4) << decode_threads << " decode threads";
    EXPECT_EQ(pipeline.queue().skipped(), 0u);
  }
}

TEST(PrefetchStream, ReadFailurePoisonsLaterReadsAndSkipsTheirDecodes) {
  PrefetchPipeline pipeline(4, 3);
  std::atomic<int> reads_after_failure{0};
  std::atomic<int> decodes{0};
  std::vector<Stream::Unit> plan;
  for (int u = 0; u < 4; ++u) {
    Stream::Unit unit;
    unit.fetch = [&reads_after_failure, u](int& out) {
      if (u == 1) return IoError("injected");
      if (u > 1) ++reads_after_failure;
      out = u;
      return Status::Ok();
    };
    unit.decode = [&decodes](int&) {
      ++decodes;
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan));
  EXPECT_OK(stream.Take().status);
  for (int u = 1; u < 4; ++u) {
    EXPECT_EQ(stream.Take().status.code(), StatusCode::kIoError) << u;
  }
  EXPECT_EQ(reads_after_failure.load(), 0);
  EXPECT_EQ(decodes.load(), 1);  // unit 0 only
  EXPECT_EQ(pipeline.queue().skipped(), 2u);
}

TEST(PrefetchStream, CancellationDrainsQueuedReadsWithoutDecoding) {
  PrefetchPipeline pipeline(4, 3);
  CancellationToken token;
  pipeline.set_cancellation(&token);
  // Unit 0's read is executing when the token trips: it finishes (and
  // decodes) normally; the reads queued behind it never run.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> started;
  std::atomic<int> later_reads{0};
  std::atomic<int> decodes{0};
  std::vector<Stream::Unit> plan;
  for (int u = 0; u < 4; ++u) {
    Stream::Unit unit;
    unit.fetch = [&, u, opened](int& out) {
      if (u == 0) {
        started.set_value();
        opened.wait();
      } else {
        ++later_reads;
      }
      out = u;
      return Status::Ok();
    };
    unit.decode = [&decodes](int&) {
      ++decodes;
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan));
  started.get_future().wait();
  token.Cancel("stop");
  gate.set_value();
  EXPECT_OK(stream.Take().status);
  for (int u = 1; u < 4; ++u) {
    EXPECT_EQ(stream.Take().status.code(), StatusCode::kCancelled) << u;
  }
  EXPECT_EQ(later_reads.load(), 0);
  EXPECT_EQ(decodes.load(), 1);
  EXPECT_EQ(pipeline.queue().skipped(), 3u);
}

TEST(PrefetchStream, DestructorWaitsForDecodesInFlight) {
  PrefetchPipeline pipeline(4, 3);
  std::atomic<int> finished{0};
  {
    std::vector<Stream::Unit> plan;
    for (int u = 0; u < 4; ++u) {
      Stream::Unit unit = DoublingUnit(u);
      unit.decode = [&finished](int& out) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        out += 1;  // writes the stream-owned payload
        ++finished;
        return Status::Ok();
      };
      plan.push_back(std::move(unit));
    }
    Stream stream(&pipeline, std::move(plan));
    // Destroyed with every unit still in the window.
  }
  EXPECT_EQ(finished.load(), 4);
}

TEST(PrefetchStream, PrepareRunsOnTheIssuingThread) {
  PrefetchPipeline pipeline(4, 3);
  const std::thread::id consumer = std::this_thread::get_id();
  std::atomic<int> prepared_elsewhere{0};
  std::vector<Stream::Unit> plan;
  for (int u = 0; u < 8; ++u) {
    Stream::Unit unit = DoublingUnit(u);
    unit.prepare = [&prepared_elsewhere, consumer](int&) {
      if (std::this_thread::get_id() != consumer) ++prepared_elsewhere;
    };
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan));
  for (int u = 0; u < 8; ++u) EXPECT_EQ(stream.Take().payload, 2 * u);
  EXPECT_EQ(prepared_elsewhere.load(), 0);
}

TEST(PrefetchStream, SynchronousModeFetchesAndDecodesInline) {
  const std::thread::id consumer = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  std::vector<Stream::Unit> plan;
  for (int u = 0; u < 3; ++u) {
    Stream::Unit unit = DoublingUnit(u + 1);
    unit.decode = [&off_thread, consumer, u](int& out) {
      if (std::this_thread::get_id() != consumer) ++off_thread;
      if (u == 2) return CorruptDataError("bad frame");
      out *= 2;
      return Status::Ok();
    };
    plan.push_back(std::move(unit));
  }
  PrefetchPipeline disabled(0);
  Stream stream(&disabled, std::move(plan));
  EXPECT_EQ(stream.Take().payload, 2);
  EXPECT_EQ(stream.Take().payload, 4);
  EXPECT_EQ(stream.Take().status.code(), StatusCode::kCorruptData);
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(PrefetchStream, SkippedUnitsAreNeitherReadNorDecoded) {
  PrefetchPipeline pipeline(2, 1);
  std::atomic<int> work{0};
  std::vector<Stream::Unit> plan;
  for (int u = 0; u < 4; ++u) {
    Stream::Unit unit = DoublingUnit(u);
    if (u % 2 == 1) {
      unit.skip = [] { return true; };
      unit.fetch = [&work](int&) {
        ++work;
        return Status::Ok();
      };
      unit.decode = [&work](int&) {
        ++work;
        return Status::Ok();
      };
    }
    plan.push_back(std::move(unit));
  }
  Stream stream(&pipeline, std::move(plan));
  for (int u = 0; u < 4; ++u) {
    const Stream::Item item = stream.Take();
    EXPECT_EQ(item.fetched, u % 2 == 0) << u;
    if (item.fetched) {
      EXPECT_EQ(item.payload, 2 * u);
    }
  }
  EXPECT_EQ(work.load(), 0);
}

}  // namespace
}  // namespace graphsd::io
