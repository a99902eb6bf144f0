// Throughput measurement for the Monte-Carlo hot loop and for whole sweeps.
//
// Point mode times run_point on a fixed configuration across a list of
// thread counts and reports runs/sec. Sweep mode times a whole load sweep
// (the paper's §5.1 shape) per thread count through sweep_load and reports
// points/sec and scaling efficiency across thread counts. Both are emitted
// as small self-contained JSON documents. Lives in the library — rather
// than inlined in the bench binary — so the timing plumbing and the JSON
// shape are unit-testable; bench_throughput is a thin wrapper over this
// module.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace paserta {

/// Section-level hardware-counter columns (cycles per Monte-Carlo run and
/// instructions per cycle), filled by one extra *untimed* profiled pass at
/// a single-threaded configuration — the bench thread is the worker there,
/// so its perf_event group sees the whole run without perturbing the timed
/// repetitions. NaN (rendered as JSON null) when the host denies
/// perf_event_open; bench_compare skips non-numeric fields, so history
/// entries with and without the columns coexist.
struct HwColumns {
  double cycles_per_run = std::numeric_limits<double>::quiet_NaN();
  double ipc = std::numeric_limits<double>::quiet_NaN();
};

struct ThroughputSample {
  int threads = 1;
  double seconds = 0.0;       // wall time of the timed run_point call
  double runs_per_sec = 0.0;  // runs / seconds
};

struct ThroughputReport {
  std::string label;  // e.g. "fig4a@load=0.5"
  int runs = 0;       // Monte-Carlo runs per measurement
  int schemes = 0;    // schemes per run (the NPM baseline is extra)
  HwColumns hw;       // measured at threads = 1
  std::vector<ThroughputSample> samples;
};

/// Times run_point(app, cfg, deadline, ...) once per entry of
/// `thread_counts` (cfg.threads is overridden), after one untimed warm-up
/// at the first thread count to fault in code and allocator state. With
/// `reps` > 1 each thread count is timed that many times and the fastest
/// repetition is reported: scheduler noise on a shared host is one-sided
/// (contention only ever slows a run down), so the minimum is the least
/// contaminated estimate of the code's actual throughput and keeps
/// recorded history entries comparable across machine epochs.
ThroughputReport measure_throughput(const Application& app,
                                    ExperimentConfig cfg, SimTime deadline,
                                    const std::vector<int>& thread_counts,
                                    const std::string& label, int reps = 1);

/// Renders the report as a JSON object (pretty-printed, newline-terminated).
std::string throughput_to_json(const ThroughputReport& report);

struct BatchThroughputSample {
  int batch = 0;              // requested ExperimentConfig::batch (0 = auto)
  int lanes = 0;              // lanes per engine call it resolved to
  double seconds = 0.0;       // wall time of the timed run_point call
  double runs_per_sec = 0.0;  // runs / seconds
};

struct BatchThroughputReport {
  std::string label;  // e.g. "fig4a@load=0.5"
  int runs = 0;
  int schemes = 0;
  int threads = 1;  // worker count the section was measured at
  HwColumns hw;     // measured at the first batch entry
  std::vector<BatchThroughputSample> samples;
};

/// Times run_point once per entry of `batches` (cfg.batch is overridden;
/// cfg.threads is forced to 1 so the section isolates the engine choice
/// from thread scaling), after one untimed warm-up. run_point outputs are
/// bit-identical at every lane count, so the section measures pure
/// scheduling overhead differences: the auto-over-one-lane speedup gated
/// by tools/bench_compare --check. `reps` keeps the fastest repetition (see
/// measure_throughput).
BatchThroughputReport measure_batch_throughput(const Application& app,
                                               ExperimentConfig cfg,
                                               SimTime deadline,
                                               const std::vector<int>& batches,
                                               const std::string& label,
                                               int reps = 1);

/// Renders the report as a JSON object (pretty-printed, newline-terminated).
std::string batch_throughput_to_json(const BatchThroughputReport& report);

struct DedupThroughputSample {
  int runs = 0;  // Monte-Carlo runs of this rung of the ladder
  // Dedup forced off: every run simulated.
  double off_seconds = 0.0;
  double off_runs_per_sec = 0.0;
  // Dedup forced on: distinct scenarios simulated once, replayed after.
  double on_seconds = 0.0;
  double on_runs_per_sec = 0.0;
  /// off_seconds / on_seconds at this run count — what tools/bench_compare
  /// --dedup-floor gates.
  double speedup = 0.0;
  /// Cache hit rate of the dedup-on measurement: hits / (hits + misses).
  double hit_rate = 0.0;
  /// Distinct scenarios simulated (= dedup misses) at this run count.
  std::uint64_t distinct = 0;
};

struct DedupThroughputReport {
  std::string label;  // e.g. "fig4a-alpha1.0@load=0.5"
  int schemes = 0;
  int threads = 1;  // worker count the section was measured at
  HwColumns hw;     // dedup-off path at the first run count
  std::vector<DedupThroughputSample> samples;
};

/// Times run_point with dedup forced off vs. forced on, once per entry of
/// `run_counts` (cfg.runs is overridden; cfg.threads is forced to 1 so the
/// section isolates replay from thread scaling), after one untimed warm-up
/// per path. Dedup replay is bit-identical, so the section measures pure
/// scheduling wins: the speedup grows with the duplicate fraction, which
/// is why the bench feeds it a discrete workload (alpha = 1: OR forks are
/// the only randomness, so the scenario space is tiny and the hit rate
/// approaches 1). `reps` keeps the fastest repetition per path (see
/// measure_throughput).
DedupThroughputReport measure_dedup_throughput(
    const Application& app, ExperimentConfig cfg, SimTime deadline,
    const std::vector<int>& run_counts, const std::string& label,
    int reps = 1);

/// Renders the report as a JSON object (pretty-printed, newline-terminated).
std::string dedup_throughput_to_json(const DedupThroughputReport& report);

struct SweepThroughputSample {
  int threads = 1;
  // sweep_load (persistent pool, chunked claiming, point overlap, one
  // canonical analysis for the whole sweep).
  double pooled_seconds = 0.0;
  double pooled_points_per_sec = 0.0;
  /// Pooled scaling efficiency relative to the report's first sample:
  /// (pooled_pps / pooled_pps_first) * threads_first / threads.
  double efficiency = 0.0;
};

struct SweepThroughputReport {
  std::string label;
  int points = 0;   // sweep points per measurement
  int runs = 0;     // Monte-Carlo runs per point
  int schemes = 0;  // schemes per run (the NPM baseline is extra)
  /// Hardware threads of the measuring host (hardware_concurrency at
  /// measurement time, 0 = unknown). Recorded as provenance: thread
  /// scaling above this count is physically impossible, so consumers
  /// (tools/bench_compare's efficiency gate) normalize the recorded
  /// efficiency by min(threads, host_threads) before judging it.
  int host_threads = 0;
  HwColumns hw;  // pooled path at threads = 1, per Monte-Carlo run
  std::vector<SweepThroughputSample> samples;
};

/// Times sweep_load(app, cfg, loads) once per entry of `thread_counts`,
/// after one untimed warm-up at the first thread count. `reps` > 1 keeps
/// the fastest of that many repetitions per thread count (see
/// measure_throughput for the rationale).
SweepThroughputReport measure_sweep_throughput(
    const Application& app, ExperimentConfig cfg,
    const std::vector<double>& loads, const std::vector<int>& thread_counts,
    const std::string& label, int reps = 1);

/// Renders the report as a JSON object (pretty-printed, newline-terminated).
std::string sweep_throughput_to_json(const SweepThroughputReport& report);

/// Runs one pooled load sweep with metrics collection into a scoped local
/// registry and renders the pool-balance picture as a JSON object:
/// per-slot chunk counts and busy/idle time, plus the chunk-latency
/// histogram totals. bench_throughput appends this as the "pool" section
/// of its history entries so load-balance regressions are visible next to
/// the throughput numbers.
std::string measure_pool_balance_json(const Application& app,
                                      ExperimentConfig cfg,
                                      const std::vector<double>& loads);

// ---- measurement history ---------------------------------------------
//
// BENCH_throughput.json is a *history*: a JSON array of measurement
// entries, one appended per bench_throughput --out run, so regressions can
// be traced to a revision instead of the previous numbers being destroyed
// by every refresh. Both functions are pure string transforms (no file
// I/O) so the splicing is unit-testable; the bench binary owns the file.

/// Wraps one measurement document (a JSON object, e.g. the {"point":...,
/// "sweep":...} composite bench_throughput emits) into a history entry by
/// splicing provenance fields in front of the document's own:
/// {"git_rev": <rev>, "dirty": <bool>, "date": <date>, <document
/// fields...>}. `dirty` records whether the working tree had uncommitted
/// changes at measurement time — a number from a dirty tree cannot be
/// attributed to its git_rev.
std::string throughput_history_entry(const std::string& git_rev, bool dirty,
                                     const std::string& date,
                                     const std::string& doc);

/// Appends `entry` to the history array `existing` (the current file
/// content). Empty/blank input starts a new one-entry array; a legacy
/// single-object baseline (the pre-history file format) is preserved as
/// the array's first entry. Returns the new file content.
std::string throughput_history_append(const std::string& existing,
                                      const std::string& entry);

}  // namespace paserta
