// Experiment harness: the Monte-Carlo driver behind every figure.
//
// One *point* fixes an application (with its ACETs), a CPU count, a power
// model, overheads and a deadline, then evaluates all requested schemes on
// `runs` shared scenarios (same actual times and OR choices for every
// scheme — paired comparison) and reports energy normalized to NPM on the
// same scenario, exactly the quantity the paper plots.
//
// Sweeps vary either the load (deadline = W / load, paper §5.1) or alpha
// (ACET/WCET ratio, paper §5.2).
//
// Execution model: runs are partitioned into chunked index ranges claimed
// atomically from the persistent WorkerPool (harness/pool.h) — no per-point
// thread spawn/join. A load sweep additionally (a) runs the
// deadline-independent canonical offline analysis exactly once through an
// OfflineCache and (b) overlaps its points on the pool, so the machine
// stays saturated even when `runs` per point is small. All of this is
// unobservable in the output: every run draws from its own seed-derived
// stream and results accumulate in run order, so SweepPoints are
// bit-identical for every thread count, chunk size and point interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/offline.h"
#include "core/policy.h"
#include "graph/program.h"
#include "obs/metrics.h"
#include "power/power_model.h"

namespace paserta {

class Tracer;            // obs/trace.h
class ProgressReporter;  // obs/progress.h
class Profiler;          // obs/prof.h

/// Scenario-dedup memoization (DESIGN.md §15): simulate each distinct
/// scenario of a point once, replay the cached per-run record for every
/// duplicate draw. Replay is bit-identical — a duplicate run's values, its
/// counters and its position in the run-ordered accumulation are exactly
/// what re-simulating would produce — so the knob is output-invisible.
enum class DedupMode {
  /// On when the compiled sampler proves the point's scenario space is
  /// finite (OR choices only, no gaussian draws) and no larger than the
  /// run count, so replay is guaranteed to pay; off otherwise. (The
  /// paper's fig4 apps at alpha < 1 draw gaussian execution times, which
  /// makes virtually every scenario distinct — memoizing them would only
  /// burn memory.)
  kAuto,
  /// Always memoize — including unbounded scenario spaces, where the
  /// cache grows with the distinct-draw count (tests use this to pin the
  /// all-miss path; it is never faster there).
  kOn,
  /// Never memoize.
  kOff,
};

struct ExperimentConfig {
  int cpus = 2;
  LevelTable table = LevelTable::transmeta_tm5400();
  Overheads overheads;
  double c_ef = 1e-9;
  double idle_fraction = 0.05;
  std::vector<Scheme> schemes = {Scheme::SPM, Scheme::GSS, Scheme::SS1,
                                 Scheme::SS2, Scheme::AS};
  int runs = 1000;
  std::uint64_t seed = 42;
  /// Maximum concurrent workers for the Monte-Carlo loop (1 = serial, no
  /// pool involvement). Results are bit-identical for any value: each run
  /// draws from its own seed-derived stream and accumulation happens in
  /// run order.
  int threads = 1;
  /// Runs per atomically-claimed work unit (0 = auto). Any value yields
  /// identical results; smaller chunks balance better, larger chunks touch
  /// the shared counter less.
  int chunk_runs = 0;
  /// Scenarios simulated in lockstep per engine call (sim/batch_engine.h):
  /// 0 = auto (32), N >= 1 = N lanes. Purely a scheduling knob: the
  /// batched engine is bit-identical to the scalar one run-for-run at
  /// every width, so every output (energies, counters, CSV) is the same
  /// for every value. Configurations that observe the engine per run
  /// (verify_traces' completeness traversal, per-run tracer spans) take
  /// the scalar per-run path regardless.
  int batch = 0;
  /// Scenario-dedup outcome memoization (see DedupMode). Configurations
  /// that need genuinely per-run engine work — verify_traces, audit's
  /// three-way re-accounting, a per-run tracer — force the uncached path
  /// regardless, because a replayed run performs no engine work to verify,
  /// re-account or span. Output is bit-identical for every mode.
  DedupMode dedup = DedupMode::kAuto;
  /// Canonical-schedule priority rule (paper evaluates LTF).
  ListHeuristic heuristic = ListHeuristic::LongestTaskFirst;
  /// Speculative-floor rounding mode (see PolicyOptions).
  PolicyOptions policy_options;
  /// Verify every trace against the model invariants (slower; used by
  /// tests, off by default in benches).
  bool verify_traces = false;

  // --- Observability (obs/). Everything below is strictly write-only with
  // respect to the simulation: enabling any of it cannot change a single
  // output bit (regression-tested), only record what happened.
  /// Collect engine SimCounters per (point, scheme) onto SweepPoint::
  /// metrics, and pool-balance metrics (chunk counts/latency, busy/idle
  /// time per slot) into `registry`. Off = zero instrumentation cost
  /// beyond a few null checks.
  bool collect_metrics = false;
  /// Registry receiving the pool metrics and engine counter totals; null
  /// with collect_metrics on = MetricsRegistry::global().
  MetricsRegistry* registry = nullptr;
  /// Span tracer: the harness records sweep / offline-analysis / chunk
  /// spans (and per-simulation spans at Tracer::Detail::kRuns) for Chrome
  /// trace export (obs/chrome_trace.h). Null = no tracing.
  Tracer* tracer = nullptr;
  /// Live progress: registered with the total chunk count up front, ticked
  /// once per completed chunk. Null = silent.
  ProgressReporter* progress = nullptr;
  /// Cycle-level phase profiler (obs/prof.h): the harness charges the
  /// offline analyze/apply, sampler compile, pool claim/busy/idle, per-run
  /// sample/simulate, batch setup/drain, stage flush and finalize phases.
  /// Null = every ProfScope is a single pointer test. Strictly write-only
  /// like the rest of this block: output is bit-identical with profiling
  /// on or off (prof_identity suite).
  Profiler* prof = nullptr;
  /// Self-auditing observability: every run is re-accounted three ways and
  /// the books must agree — (1) the engine asserts the attribution
  /// ledger's integer time-conservation invariant (SimOptions::audit);
  /// (2) the run's exported SimCounters are folded back to joules via
  /// attribution_energy() and must equal the engine's busy/overhead/idle
  /// energies *exactly* (bitwise — both sides are the same fold over the
  /// same integers); (3) the power-trace reconstruction's integral must
  /// match total_energy() to 1e-9 relative. Audit forces per-run traces
  /// internally (for check 3) but stays write-only for the simulation:
  /// sweep results are bit-identical with audit on or off. Slower
  /// (~trace + curve build per run); meant for validation runs and CI, not
  /// benches.
  bool audit = false;
};

struct SchemeStats {
  Scheme scheme = Scheme::NPM;
  RunningStat norm_energy;    // E / E_NPM per run
  RunningStat speed_changes;  // voltage transitions per run
  RunningStat finish_frac;    // finish time / deadline per run
  // Energy breakdown, as fractions of the scheme's own total energy.
  RunningStat busy_frac;
  RunningStat overhead_frac;
  RunningStat idle_frac;
  std::uint32_t deadline_misses = 0;
  std::uint32_t verify_failures = 0;
};

/// Engine telemetry totals of one point (ExperimentConfig::collect_metrics):
/// SimCounters summed over all runs, per scheme plus the NPM baseline.
/// Summation happens per (slot, scheme) cell in fixed slot order, so the
/// totals are identical for every thread count and chunk interleaving.
struct PointMetrics {
  std::vector<SimCounters> schemes;  // parallel to ExperimentConfig::schemes
  SimCounters npm;

  bool enabled() const { return !schemes.empty(); }
};

/// Dedup-layer telemetry of one point (zero unless the point's
/// configuration resolved to dedup). hits + misses always equals the run
/// count; misses is the number of distinct scenarios actually simulated.
struct DedupStats {
  bool enabled = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Heap footprint of the fingerprint tables and cached records (all
  /// per-slot shards plus the shared publish store).
  std::uint64_t bytes = 0;
};

struct SweepPoint {
  double x = 0.0;  // the swept parameter (load or alpha)
  SimTime deadline{};
  SimTime worst_makespan{};
  RunningStat npm_energy;  // absolute joules, for reference
  /// Runs whose NPM baseline consumed zero energy (degenerate workload:
  /// no computation and zero idle power). Normalized energy is undefined
  /// for them, so they are counted here and excluded from norm_energy.
  std::uint32_t degenerate_runs = 0;
  std::vector<SchemeStats> stats;
  /// Empty unless ExperimentConfig::collect_metrics was on.
  PointMetrics metrics;
  /// Dedup-layer telemetry (ExperimentConfig::dedup).
  DedupStats dedup;

  const SchemeStats& of(Scheme s) const;
};

/// Lanes per batched engine call that `config` resolves to, or 0 for the
/// scalar per-run observed path (verify_traces or a Tracer::Detail::kRuns
/// tracer). run_point's workers use exactly this rule; exposed so benches
/// and tests can label measurements with it.
int resolved_batch_lanes(const ExperimentConfig& config);

/// Whether `config` resolves to scenario-dedup memoization for a workload
/// whose compiled sampler reports `scenario_space` distinct scenarios
/// (ScenarioSampler::scenario_space(); 0 = unbounded). run_point's workers
/// use exactly this rule; exposed so benches and tests can label
/// measurements with it.
bool resolved_dedup(const ExperimentConfig& config,
                    std::uint64_t scenario_space);

/// Evaluates one point. `deadline` must be >= the canonical worst-case
/// makespan for the guarantee to hold (the harness does not enforce it, so
/// infeasible what-if points can be explored; misses are counted). With a
/// `cache`, the deadline-independent canonical analysis is looked up there
/// instead of recomputed (sweeps pass one cache for all their points).
SweepPoint run_point(const Application& app, const ExperimentConfig& config,
                     SimTime deadline, double x_value,
                     OfflineCache* cache = nullptr);

/// Load sweep: deadline = W / load for each load in `loads` (0 < load <= 1).
/// Performs exactly one canonical offline analysis (shared across points
/// via OfflineCache) and overlaps the points on the worker pool.
std::vector<SweepPoint> sweep_load(const Application& app,
                                   const ExperimentConfig& config,
                                   const std::vector<double>& loads);

/// Alpha sweep at a fixed load: for each alpha the application's ACETs are
/// redrawn as N(alpha*wcet, ((1-alpha)wcet/3)^2) (clamped), the offline
/// analysis is redone, and the point is evaluated. The deadline derives
/// from WCETs only, so it is computed once; one application buffer is
/// reused across alphas (each redraw overwrites every ACET). Points run in
/// sequence — they share that buffer — but each point's runs use the pool.
std::vector<SweepPoint> sweep_alpha(const Application& app,
                                    const ExperimentConfig& config,
                                    double load,
                                    const std::vector<double>& alphas);

/// Uniformly spaced sweep values [from, to] with step `step` (inclusive).
std::vector<double> sweep_range(double from, double to, double step);

}  // namespace paserta
