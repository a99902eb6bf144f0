// Tests for the persistent worker pool (harness/pool.h) and the pooled
// sweep executor built on it: chunk coverage, exception propagation, and —
// the contract the paper's figures depend on — bit-identical SweepPoints
// for every thread count and chunk size. The determinism tests carry the
// `pool_smoke` ctest label so they can be run standalone under TSan (cmake
// -DPASERTA_SANITIZE=thread; ctest -L pool_smoke).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "apps/synthetic.h"
#include "common/error.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/pool.h"
#include "obs/metrics.h"
#include "reference_harness.h"

namespace paserta {
namespace {

TEST(WorkerPool, EveryChunkExactlyOnce) {
  WorkerPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3);
  std::vector<std::atomic<int>> counts(257);
  pool.parallel_chunks(257, 4, [&](int chunk, int slot) {
    ASSERT_GE(chunk, 0);
    ASSERT_LT(chunk, 257);
    ASSERT_GE(slot, 0);
    ASSERT_LT(slot, 4);
    counts[static_cast<std::size_t>(chunk)]++;
  });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(WorkerPool, ReusableAcrossCallsAndWorkerCounts) {
  WorkerPool pool(2);
  for (int max_workers : {1, 2, 5}) {
    std::atomic<int> sum{0};
    pool.parallel_chunks(40, max_workers,
                         [&](int chunk, int) { sum += chunk; });
    EXPECT_EQ(sum.load(), 40 * 39 / 2);
  }
}

TEST(WorkerPool, BatchedClaimsCoverEveryChunkOnce) {
  WorkerPool pool(3);
  // Coverage must be exact for any claim batch, including batches larger
  // than the chunk space and batches that do not divide it.
  for (int batch : {1, 2, 5, 64, 1000}) {
    SCOPED_TRACE(testing::Message() << "claim_batch=" << batch);
    std::vector<std::atomic<int>> counts(257);
    pool.parallel_chunks(
        257, 4,
        [&](int chunk, int slot) {
          ASSERT_GE(chunk, 0);
          ASSERT_LT(chunk, 257);
          ASSERT_GE(slot, 0);
          ASSERT_LT(slot, 4);
          counts[static_cast<std::size_t>(chunk)]++;
        },
        /*telemetry=*/nullptr, batch);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
}

TEST(WorkerPool, NonPositiveClaimBatchRejected) {
  WorkerPool pool(1);
  for (int batch : {0, -3}) {
    EXPECT_THROW(
        pool.parallel_chunks(4, 2, [](int, int) {}, nullptr, batch), Error);
  }
}

TEST(WorkerPool, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  // With no background workers every chunk runs on the caller, slot 0, in
  // increasing order.
  std::vector<int> order;
  pool.parallel_chunks(5, 8, [&](int chunk, int slot) {
    EXPECT_EQ(slot, 0);
    order.push_back(chunk);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, ZeroChunksIsANoop) {
  WorkerPool pool(1);
  pool.parallel_chunks(0, 4, [&](int, int) { FAIL() << "no chunks to run"; });
}

TEST(WorkerPool, BodyExceptionPropagatesToCaller) {
  WorkerPool pool(3);
  // One participant runs the chunks in increasing order, so exactly
  // chunks 0..7 run: the throw stops the loop at once.
  int executed = 0;
  EXPECT_THROW(pool.parallel_chunks(1000, 1,
                                    [&](int chunk, int) {
                                      ++executed;
                                      if (chunk == 7)
                                        throw Error("boom in chunk 7");
                                    }),
               Error);
  EXPECT_EQ(executed, 8);

  // Four participants. A participant stops at its first throwing body.
  // Chunk 7 throws, and every chunk past 7 waits for that throw and then
  // throws too, so however late the others see the abort flag, each runs
  // at most one chunk past 7: at most chunks 0..7 plus one per other
  // participant run.
  constexpr int kWorkers = 4;
  std::atomic<int> ran{0};
  std::atomic<bool> thrown{false};
  EXPECT_THROW(pool.parallel_chunks(1000, kWorkers,
                                    [&](int chunk, int) {
                                      ++ran;
                                      if (chunk < 7) return;
                                      if (chunk > 7)
                                        while (!thrown.load())
                                          std::this_thread::yield();
                                      thrown.store(true);
                                      throw Error("boom");
                                    }),
               Error);
  EXPECT_TRUE(thrown.load());
  EXPECT_LE(ran.load(), 8 + (kWorkers - 1));

  // The pool survives and is usable afterwards.
  std::atomic<int> after{0};
  pool.parallel_chunks(10, kWorkers, [&](int, int) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(WorkerPool, NestedCallDegradesToInline) {
  WorkerPool pool(2);
  std::atomic<int> inner_total{0};
  pool.parallel_chunks(4, 2, [&](int, int) {
    // A body starting its own loop must not deadlock; it runs inline.
    pool.parallel_chunks(3, 2, [&](int, int) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 12);
}

// ---------------------------------------------------------------------------
// Telemetry invariants: the serial and pooled paths must attribute time the
// same way — chunks counted per completed body, busy = time inside bodies,
// idle = everything else in the claim loop (including the serial stand-in
// for claims) — so per-slot busy/idle fractions are comparable between
// modes.

struct TelemetryFixture {
  MetricsRegistry reg;
  PoolTelemetry tel;
  TelemetryFixture() {
    tel.chunks = &reg.counter("t.chunks");
    tel.busy_ns = &reg.counter("t.busy_ns");
    tel.idle_ns = &reg.counter("t.idle_ns");
  }
  std::uint64_t total(const std::string& name) {
    for (const auto& row : reg.snapshot().counters)
      if (row.name == name) return row.value;
    return 0;
  }
};

TEST(PoolTelemetryInvariants, SerialAndPooledAccountAlike) {
  constexpr int kChunks = 96;
  const auto body = [](int, int) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };

  TelemetryFixture serial;
  WorkerPool::serial_chunks(kChunks, body, &serial.tel);

  TelemetryFixture pooled;
  WorkerPool pool(3);
  pool.parallel_chunks(kChunks, 4, body, &pooled.tel);

  for (TelemetryFixture* f : {&serial, &pooled}) {
    // Every chunk counted exactly once, and the sleeps dominate busy time.
    EXPECT_EQ(f->total("t.chunks"), static_cast<std::uint64_t>(kChunks));
    EXPECT_GE(f->total("t.busy_ns"), kChunks * 150000ull);
    // The claim loop is timed on BOTH paths: even the serial loop's
    // inter-body stretches must land in idle, not vanish (the historical
    // untimed-claim shortcut made serial busy fractions incomparable).
    EXPECT_GT(f->total("t.idle_ns"), 0ull);
  }

  // Busy/idle split the loop's wall time exactly; neither can exceed the
  // sum of all participants' loop residency. Serial has one participant.
  const std::uint64_t serial_total =
      serial.total("t.busy_ns") + serial.total("t.idle_ns");
  EXPECT_GE(serial_total, kChunks * 150000ull);
}

TEST(WorkerPool, EnsureThreadsGrows) {
  WorkerPool pool(1);
  pool.ensure_threads(3);
  EXPECT_EQ(pool.thread_count(), 3);
  pool.ensure_threads(2);  // never shrinks
  EXPECT_EQ(pool.thread_count(), 3);
}

// ---------------------------------------------------------------------------
// Executor determinism: the SweepPoint outputs must be bit-identical to the
// serial run for every thread count and chunk size.

ExperimentConfig config(int runs, int threads) {
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::intel_xscale();
  cfg.runs = runs;
  cfg.threads = threads;
  cfg.seed = 20260806;
  return cfg;
}

void expect_stat_identical(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  EXPECT_DOUBLE_EQ(a.variance(), b.variance());
  EXPECT_DOUBLE_EQ(a.min(), b.min());
  EXPECT_DOUBLE_EQ(a.max(), b.max());
}

void expect_point_identical(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_DOUBLE_EQ(a.x, b.x);
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.worst_makespan, b.worst_makespan);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  expect_stat_identical(a.npm_energy, b.npm_energy);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    EXPECT_EQ(a.stats[s].scheme, b.stats[s].scheme);
    expect_stat_identical(a.stats[s].norm_energy, b.stats[s].norm_energy);
    expect_stat_identical(a.stats[s].speed_changes, b.stats[s].speed_changes);
    expect_stat_identical(a.stats[s].finish_frac, b.stats[s].finish_frac);
    expect_stat_identical(a.stats[s].busy_frac, b.stats[s].busy_frac);
    expect_stat_identical(a.stats[s].overhead_frac,
                          b.stats[s].overhead_frac);
    expect_stat_identical(a.stats[s].idle_frac, b.stats[s].idle_frac);
    EXPECT_EQ(a.stats[s].deadline_misses, b.stats[s].deadline_misses);
    EXPECT_EQ(a.stats[s].verify_failures, b.stats[s].verify_failures);
  }
}

void expect_sweep_identical(const std::vector<SweepPoint>& a,
                            const std::vector<SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_point_identical(a[i], b[i]);
}

TEST(PoolDeterminism, SweepInvariantAcrossThreadsChunksPointModes) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = {0.3, 0.5, 0.9};

  const std::vector<SweepPoint> baseline =
      sweep_load(app, config(30, 1), loads);

  for (int threads : {1, 2, 5}) {
    for (int chunk : {0, 1, 7, 64}) {
      ExperimentConfig cfg = config(30, threads);
      cfg.chunk_runs = chunk;
      const std::vector<SweepPoint> sweep = sweep_load(app, cfg, loads);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " chunk=" << chunk);
      expect_sweep_identical(baseline, sweep);
    }
  }
}

TEST(PoolDeterminism, PooledMatchesUnpooledRunPoint) {
  const Application app = apps::build_synthetic();
  const SimTime d = SimTime::from_ms(120);
  const SweepPoint ref = reference_point(app, config(40, 1), d, 0.0);
  for (int threads : {1, 3}) {
    const SweepPoint pooled = run_point(app, config(40, threads), d, 0.0);
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_point_identical(ref, pooled);
  }
}

TEST(PoolDeterminism, LoadSweepRunsExactlyOneCanonicalAnalysis) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = sweep_range(0.1, 1.0, 0.1);
  ASSERT_EQ(loads.size(), 10u);

  const std::uint64_t before = canonical_analysis_count();
  const std::vector<SweepPoint> sweep = sweep_load(app, config(5, 2), loads);
  EXPECT_EQ(sweep.size(), 10u);
  EXPECT_EQ(canonical_analysis_count() - before, 1u)
      << "a load sweep must run round 1 once";
}

}  // namespace
}  // namespace paserta
