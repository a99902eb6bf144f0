#include "harness/pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/progress.h"

namespace paserta {

// Every parallel loop has at most 1 caller + kMaxThreads workers, each
// owning one metric shard; keep the two constants from drifting apart.
static_assert(WorkerPool::kMaxThreads + 1 <= kMaxShards,
              "obs::kMaxShards must cover every pool participant slot");

namespace {

/// Set while a thread executes a parallel_chunks body; a nested call from
/// inside a body would deadlock on the run mutex, so it degrades to inline
/// serial execution instead.
thread_local bool t_inside_body = false;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// How long a worker polls for the next job, and the caller for its
/// helpers to drain, before blocking on a condition variable. A blocked
/// thread's CPU goes idle, and waking it again costs a reschedule whose
/// latency swings with the host's load (on a virtual machine, the host
/// has to run the halted vCPU again). Calls that follow each other within
/// this window — a daemon's requests, a sweep's points — so find their
/// helpers awake. Polling yields the CPU on every turn, so a runnable
/// thread of the process is never kept waiting for it.
constexpr std::int64_t kSpinNs = 2'000'000;

/// Yields until `ready()` or kSpinNs have passed.
template <class Ready>
void spin_until(const Ready& ready) {
  const std::int64_t until = now_ns() + kSpinNs;
  while (!ready() && now_ns() < until) sched_yield();
}

/// Accounts one completed chunk into every non-null telemetry sink.
void record_chunk(const PoolTelemetry& tel, int slot, std::int64_t body_ns) {
  if (tel.chunks) tel.chunks->add(slot);
  if (tel.busy_ns) tel.busy_ns->add(slot, static_cast<std::uint64_t>(body_ns));
  if (tel.chunk_seconds)
    tel.chunk_seconds->record(slot, static_cast<double>(body_ns) * 1e-9);
  if (tel.prof != nullptr && tel.ph_busy >= 0)
    tel.prof->add_ns(tel.ph_busy, slot,
                     static_cast<std::uint64_t>(body_ns));
  if (tel.progress) tel.progress->add_done(1);
}

}  // namespace

struct WorkerPool::Impl {
  /// One parallel loop in flight. Slot/active bookkeeping is guarded by
  /// `m`; only the chunk counter and abort flag are lock-free, because they
  /// sit on the claim path of every chunk.
  struct Job {
    const std::function<void(int, int)>* body = nullptr;
    const PoolTelemetry* telemetry = nullptr;
    int chunks = 0;
    int max_workers = 1;
    int claim_batch = 1;
    // 64-bit: each participant's final failed claim overshoots by up to
    // claim_batch, so an int counter could wrap past INT_MAX on chunk
    // spaces near the int limit.
    std::atomic<std::int64_t> next_chunk{0};
    std::atomic<bool> abort{false};
    int next_slot = 1;  // guarded by m (slot 0 is the caller)
    // Participants currently between claim and exit: written under m,
    // also polled without it by the caller's drain spin.
    std::atomic<int> active{0};
    std::exception_ptr error;  // first body exception (guarded by m)
  };

  std::mutex m;
  std::condition_variable wake;   // workers: a new job was published
  std::condition_variable done;   // caller: a participant finished
  Job* job = nullptr;             // guarded by m
  std::uint64_t generation = 0;   // guarded by m; bumped per published job
  std::atomic<std::uint64_t> published{0};  // generation, for lock-free polls
  bool stop = false;              // guarded by m
  std::vector<std::thread> threads;  // guarded by spawn_m
  std::mutex spawn_m;
  std::atomic<int> thread_count{0};
  std::mutex run_m;  // serializes parallel loops

  void run_chunks(Job& job_ref, int slot) {
    if (job_ref.telemetry != nullptr) {
      run_chunks_instrumented(job_ref, slot);
      return;
    }
    for (;;) {
      const std::int64_t c0 = job_ref.next_chunk.fetch_add(
          job_ref.claim_batch, std::memory_order_relaxed);
      if (c0 >= job_ref.chunks) return;
      const std::int64_t c1 =
          std::min<std::int64_t>(job_ref.chunks, c0 + job_ref.claim_batch);
      for (std::int64_t c = c0; c < c1; ++c) {
        if (job_ref.abort.load(std::memory_order_relaxed)) return;
        t_inside_body = true;
        try {
          (*job_ref.body)(static_cast<int>(c), slot);
          t_inside_body = false;
        } catch (...) {
          t_inside_body = false;
          std::lock_guard<std::mutex> lock(m);
          if (!job_ref.error) job_ref.error = std::current_exception();
          job_ref.abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  }

  /// Same claim loop as run_chunks plus per-chunk timing: time inside the
  /// body is busy, everything else between entering and leaving the loop
  /// (claims, the final failed claim) is idle. With a phase profiler in
  /// the telemetry, the same stretches additionally land in its
  /// claim/busy/idle phases — the claim split (counter contention vs
  /// genuine waiting) exists only there, paid for by one extra clock read
  /// per claim.
  void run_chunks_instrumented(Job& job_ref, int slot) {
    const PoolTelemetry& tel = *job_ref.telemetry;
    const bool prof = tel.prof != nullptr;
    std::int64_t mark = now_ns();  // start of the current idle stretch
    std::int64_t prof_mark = mark;  // start of the uncharged profile stretch
    const auto account_idle = [&](std::int64_t until) {
      if (tel.idle_ns && until > mark)
        tel.idle_ns->add(slot, static_cast<std::uint64_t>(until - mark));
      if (prof && tel.ph_idle >= 0 && until > prof_mark) {
        tel.prof->add_ns(tel.ph_idle, slot,
                         static_cast<std::uint64_t>(until - prof_mark));
        prof_mark = until;
      }
    };
    for (;;) {
      const std::int64_t c0 = job_ref.next_chunk.fetch_add(
          job_ref.claim_batch, std::memory_order_relaxed);
      if (prof && tel.ph_claim >= 0) {
        const std::int64_t t_claim = now_ns();
        if (t_claim > prof_mark)
          tel.prof->add_ns(tel.ph_claim, slot,
                           static_cast<std::uint64_t>(t_claim - prof_mark));
        prof_mark = t_claim;
      }
      if (c0 >= job_ref.chunks) break;
      const std::int64_t c1 =
          std::min<std::int64_t>(job_ref.chunks, c0 + job_ref.claim_batch);
      for (std::int64_t c = c0; c < c1; ++c) {
        if (job_ref.abort.load(std::memory_order_relaxed)) {
          account_idle(now_ns());
          return;
        }
        const std::int64_t t0 = now_ns();
        account_idle(t0);
        t_inside_body = true;
        try {
          (*job_ref.body)(static_cast<int>(c), slot);
          t_inside_body = false;
        } catch (...) {
          t_inside_body = false;
          record_chunk(tel, slot, now_ns() - t0);
          std::lock_guard<std::mutex> lock(m);
          if (!job_ref.error) job_ref.error = std::current_exception();
          job_ref.abort.store(true, std::memory_order_relaxed);
          return;
        }
        mark = now_ns();
        prof_mark = mark;  // body time reaches the profiler via record_chunk
        record_chunk(tel, slot, mark - t0);
      }
    }
    account_idle(now_ns());
  }

  void worker_main() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(m);
    for (;;) {
      if (!stop && generation == seen) {
        lock.unlock();
        spin_until([&] {
          return published.load(std::memory_order_acquire) != seen;
        });
        lock.lock();
      }
      wake.wait(lock, [&] { return stop || generation != seen; });
      if (stop) return;
      seen = generation;
      Job* j = job;
      // Job pointer reads, slot claims and the active count all happen
      // under `m`, so a job cleared by the caller can never be entered
      // late and the caller can never observe active == 0 while a
      // participant is between claiming a slot and exiting.
      if (j == nullptr || j->next_slot >= j->max_workers) continue;
      const int slot = j->next_slot++;
      ++j->active;
      lock.unlock();
      run_chunks(*j, slot);
      lock.lock();
      if (--j->active == 0) done.notify_all();
    }
  }

  void spawn(int target) {
    std::lock_guard<std::mutex> lock(spawn_m);
    target = std::min(target, WorkerPool::kMaxThreads);
    while (static_cast<int>(threads.size()) < target) {
      threads.emplace_back([this] { worker_main(); });
      thread_count.store(static_cast<int>(threads.size()),
                         std::memory_order_relaxed);
    }
  }
};

WorkerPool::WorkerPool(int threads) : impl_(new Impl) {
  PASERTA_REQUIRE(threads >= 0, "worker count must be non-negative");
  impl_->spawn(threads);
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->stop = true;
    impl_->published.fetch_add(1, std::memory_order_release);  // end spins
  }
  impl_->wake.notify_all();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

int WorkerPool::thread_count() const {
  return impl_->thread_count.load(std::memory_order_relaxed);
}

void WorkerPool::ensure_threads(int threads) { impl_->spawn(threads); }

void WorkerPool::parallel_chunks(
    int chunk_count, int max_workers,
    const std::function<void(int chunk, int slot)>& body,
    const PoolTelemetry* telemetry, int claim_batch) {
  PASERTA_REQUIRE(chunk_count >= 0, "chunk count must be non-negative");
  PASERTA_REQUIRE(claim_batch >= 1, "claim batch must be positive");
  if (chunk_count == 0) return;
  max_workers = std::clamp(max_workers, 1, chunk_count);

  const int helpers = std::min(max_workers - 1, thread_count());
  if (helpers <= 0 || t_inside_body) {
    // Serial path: no pool involvement, chunks in increasing order. Also
    // the nested-call fallback (a body starting its own loop).
    serial_chunks(chunk_count, body, telemetry);
    return;
  }

  std::lock_guard<std::mutex> run_lock(impl_->run_m);
  Impl::Job job;
  job.body = &body;
  job.telemetry = telemetry;
  job.chunks = chunk_count;
  job.max_workers = max_workers;
  job.claim_batch = claim_batch;
  {
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->job = &job;
    ++impl_->generation;
    impl_->published.store(impl_->generation, std::memory_order_release);
  }
  impl_->wake.notify_all();

  impl_->run_chunks(job, 0);  // the caller is participant slot 0

  const bool time_wait =
      telemetry != nullptr &&
      (telemetry->idle_ns != nullptr || telemetry->prof != nullptr);
  const std::int64_t wait_start = time_wait ? now_ns() : 0;
  {
    // All chunks have been handed out (or the job aborted), so any late
    // worker runs zero body calls; wait for in-flight participants only.
    // The spin is a fast path: the check that counts is the one under m.
    spin_until([&] { return job.active.load(std::memory_order_acquire) == 0; });
    std::unique_lock<std::mutex> lock(impl_->m);
    impl_->done.wait(lock, [&] { return job.active == 0; });
    impl_->job = nullptr;
  }
  if (time_wait) {
    // The caller's wait for helpers to drain is slot 0 idle time.
    const auto wait_ns = static_cast<std::uint64_t>(now_ns() - wait_start);
    if (telemetry->idle_ns) telemetry->idle_ns->add(0, wait_ns);
    if (telemetry->prof != nullptr && telemetry->ph_idle >= 0)
      telemetry->prof->add_ns(telemetry->ph_idle, 0, wait_ns);
  }
  if (job.error) std::rethrow_exception(job.error);
}

void WorkerPool::serial_chunks(
    int chunk_count, const std::function<void(int chunk, int slot)>& body,
    const PoolTelemetry* telemetry) {
  PASERTA_REQUIRE(chunk_count >= 0, "chunk count must be non-negative");
  const bool was_inside = t_inside_body;
  t_inside_body = true;
  try {
    if (telemetry == nullptr) {
      for (int c = 0; c < chunk_count; ++c) body(c, 0);
    } else {
      // Mirror run_chunks_instrumented's accounting exactly: time inside
      // bodies is busy, everything else in the loop (the serial stand-in
      // for claims, including the trailing exit) is idle, so per-slot
      // busy/idle fractions compare 1:1 between the serial and pooled
      // modes.
      const PoolTelemetry& tel = *telemetry;
      std::int64_t mark = now_ns();
      const auto account_idle = [&](std::int64_t until) {
        if (tel.idle_ns && until > mark)
          tel.idle_ns->add(0, static_cast<std::uint64_t>(until - mark));
        // Serial mode has no claim counter: the whole between-body stretch
        // is the profiler's idle phase, like the untimed claim stand-in.
        if (tel.prof != nullptr && tel.ph_idle >= 0 && until > mark)
          tel.prof->add_ns(tel.ph_idle, 0,
                           static_cast<std::uint64_t>(until - mark));
      };
      for (int c = 0; c < chunk_count; ++c) {
        const std::int64_t t0 = now_ns();
        account_idle(t0);
        body(c, 0);
        mark = now_ns();
        record_chunk(tel, 0, mark - t0);
      }
      account_idle(now_ns());
    }
  } catch (...) {
    t_inside_body = was_inside;
    throw;
  }
  t_inside_body = was_inside;
}

WorkerPool& WorkerPool::process_pool() {
  static WorkerPool pool(hardware_threads());
  return pool;
}

int WorkerPool::hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

}  // namespace paserta
