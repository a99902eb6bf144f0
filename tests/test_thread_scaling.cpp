// Thread-scaling bit-identity suite: the contract the parallel-path
// restructure (per-slot staging buffers, per-slot sampler clones, batched
// chunk claiming — DESIGN.md §13) must preserve is that the rendered
// figure output is *byte-identical* to the serial reference of
// tests/reference_harness.h at every thread count and chunk size, with
// audit and observability enabled. The full fig4a load sweep is rendered
// to CSV per configuration and compared as strings, so any reordering,
// dropped run, staging-merge mistake or float-accumulation change fails
// loudly. The suite carries the pool_smoke ctest label, so the pooled
// portion also runs under ThreadSanitizer in CI (cmake
// -DPASERTA_SANITIZE=thread; ctest -L pool_smoke).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/figures.h"
#include "harness/report.h"
#include "obs/metrics.h"
#include "reference_harness.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

// Small enough to keep the 9-configuration sweep (and its TSan run) fast,
// large enough that every chunk-size regime below is distinct: chunk=1
// makes one chunk per run, chunk=kRuns one chunk per point, and the
// default auto size lands in between.
constexpr int kRuns = 40;

std::string render_csv(const FigureDef& fig,
                       const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  print_figure(os, fig.id, fig.caption, points, fig.x_name);
  return os.str();
}

// Serial reference (tests/reference_harness.h): one offline analysis per
// point, draw_scenario per run, the reference simulator per scheme.
// Everything the harness layers on top — persistent pool, chunk claiming,
// staging merge, offline cache, compiled samplers, the simulation kernel,
// audit, metrics — must be unobservable against this.
std::string reference_csv(const FigureDef& fig, const Application& app) {
  return render_csv(fig, reference_sweep_load(app, fig.config, fig.xs));
}

// verify_traces adds per-lane traces and their verification to the chunk
// pipeline at the configured width: both settings must match the
// reference, and no trace may fail verification.
TEST(ThreadScalingBitIdentity, Fig4aSweepMatchesSerialReference) {
  const FigureDef fig = paper_figure("fig4a", kRuns);
  const Application app = figure_workload(fig);
  const std::string ref_csv = reference_csv(fig, app);
  ASSERT_FALSE(ref_csv.empty());

  for (bool verify : {false, true}) {
    for (int threads : {1, 2, 4}) {
      for (int chunk : {0, 1, kRuns}) {
        ExperimentConfig cfg = fig.config;
        cfg.threads = threads;
        cfg.chunk_runs = chunk;
        cfg.verify_traces = verify;
        // Audit re-accounts every run three ways and metrics route through
        // the per-(point, slot, scheme) cells; both must stay write-only
        // for the simulation at every thread count.
        cfg.audit = true;
        cfg.collect_metrics = true;
        MetricsRegistry reg;  // scoped: keep the global registry clean
        cfg.registry = &reg;
        ASSERT_EQ(resolved_batch_lanes(cfg), 32);
        const std::vector<SweepPoint> points = sweep_load(app, cfg, fig.xs);
        SCOPED_TRACE(testing::Message() << "verify_traces=" << verify
                                        << " threads=" << threads
                                        << " chunk_runs=" << chunk);
        EXPECT_EQ(render_csv(fig, points), ref_csv);
        for (const SweepPoint& pt : points)
          for (const SchemeStats& st : pt.stats)
            EXPECT_EQ(st.verify_failures, 0u);
      }
    }
  }
}

// The batched engine (sim/batch_engine.h) under the same contract: the
// rendered fig4a sweep must stay byte-identical to the serial reference
// at every (thread count x batch size), with audit and metrics on. Batch
// sizes cover one lane (1), a small size that leaves sub-batch
// remainders wherever a claimed chunk's run count is not a multiple of 8,
// auto (0), and lanes = the whole point.
TEST(ThreadScalingBitIdentity, Fig4aSweepIdenticalAcrossBatchSizes) {
  const FigureDef fig = paper_figure("fig4a", kRuns);
  const Application app = figure_workload(fig);
  const std::string ref_csv = reference_csv(fig, app);
  ASSERT_FALSE(ref_csv.empty());

  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 8, 0, kRuns}) {
      ExperimentConfig cfg = fig.config;
      cfg.threads = threads;
      cfg.batch = batch;
      cfg.audit = true;
      cfg.collect_metrics = true;
      MetricsRegistry reg;
      cfg.registry = &reg;
      const std::string csv = render_csv(fig, sweep_load(app, cfg, fig.xs));
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      EXPECT_EQ(csv, ref_csv);
    }
  }
}

void expect_counters_eq(const SimCounters& a, const SimCounters& b) {
  EXPECT_EQ(a.dispatches, b.dispatches);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.or_fires, b.or_fires);
  EXPECT_EQ(a.speed_changes, b.speed_changes);
  EXPECT_EQ(a.spec_picks, b.spec_picks);
  EXPECT_EQ(a.greedy_picks, b.greedy_picks);
  EXPECT_EQ(a.reclaimed_slack_ps, b.reclaimed_slack_ps);
  EXPECT_EQ(a.levels, b.levels);
  EXPECT_EQ(a.busy_ps, b.busy_ps);
  EXPECT_EQ(a.compute_ps, b.compute_ps);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.idle_ps, b.idle_ps);
}

// Scenario-dedup memoization (DESIGN.md §15) under the same contract, in
// the regime the cache exists for: the fig4a ATR graph at alpha = 1, where
// ACET = WCET leaves the OR forks as the only randomness and the scenario
// space collapses to a handful of outcomes (most runs replay a cached
// record). The rendered sweep CSV and the per-point engine-counter totals
// (including the integer attribution ledger) must be byte-identical with
// dedup forced on vs. forced off, at every (thread count x batch size).
TEST(ThreadScalingBitIdentity, DedupOnMatchesOffOnDiscreteWorkload) {
  const FigureDef fig = paper_figure("fig4a", kRuns);
  Application app = figure_workload(fig);
  assign_alpha(app.graph, 1.0);  // ACET = WCET: discrete scenario space

  // Reference: dedup forced off, serial, one lane, metrics on.
  ExperimentConfig ref_cfg = fig.config;
  ref_cfg.threads = 1;
  ref_cfg.batch = 1;
  ref_cfg.dedup = DedupMode::kOff;
  ref_cfg.collect_metrics = true;
  MetricsRegistry ref_reg;
  ref_cfg.registry = &ref_reg;
  const std::vector<SweepPoint> ref_points =
      sweep_load(app, ref_cfg, fig.xs);
  const std::string ref_csv = render_csv(fig, ref_points);
  ASSERT_FALSE(ref_csv.empty());
  for (const SweepPoint& pt : ref_points) EXPECT_FALSE(pt.dedup.enabled);

  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 0}) {
      ExperimentConfig cfg = fig.config;
      cfg.threads = threads;
      cfg.batch = batch;
      cfg.dedup = DedupMode::kOn;
      cfg.collect_metrics = true;
      MetricsRegistry reg;
      cfg.registry = &reg;
      const std::vector<SweepPoint> points = sweep_load(app, cfg, fig.xs);
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      EXPECT_EQ(render_csv(fig, points), ref_csv);
      ASSERT_EQ(points.size(), ref_points.size());
      for (std::size_t p = 0; p < points.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "point=" << p);
        // The dedup layer actually engaged and accounted for every run.
        EXPECT_TRUE(points[p].dedup.enabled);
        EXPECT_EQ(points[p].dedup.hits + points[p].dedup.misses,
                  static_cast<std::uint64_t>(kRuns));
        EXPECT_GT(points[p].dedup.hits, 0u);
        // Engine-counter totals (with attribution ledgers) are bitwise
        // equal to the uncached reference.
        const PointMetrics& m = points[p].metrics;
        const PointMetrics& rm = ref_points[p].metrics;
        ASSERT_EQ(m.schemes.size(), rm.schemes.size());
        for (std::size_t s = 0; s < m.schemes.size(); ++s)
          expect_counters_eq(m.schemes[s], rm.schemes[s]);
        expect_counters_eq(m.npm, rm.npm);
      }
    }
  }
}

// Configurations whose purpose is per-run engine work (audit's three-way
// re-accounting, verify_traces) must force the uncached path even when
// dedup is requested — a replayed run performs no engine work to audit.
TEST(ThreadScalingBitIdentity, AuditAndVerifyForceDedupOff) {
  ExperimentConfig cfg;
  cfg.runs = 100;
  cfg.dedup = DedupMode::kOn;
  EXPECT_TRUE(resolved_dedup(cfg, 4));
  cfg.audit = true;
  EXPECT_FALSE(resolved_dedup(cfg, 4));
  cfg.audit = false;
  cfg.verify_traces = true;
  EXPECT_FALSE(resolved_dedup(cfg, 4));
  cfg.verify_traces = false;

  // And end-to-end: an audited sweep with dedup requested reports the
  // layer as disabled while the output stays identical to the reference.
  const FigureDef fig = paper_figure("fig4a", kRuns);
  Application app = figure_workload(fig);
  assign_alpha(app.graph, 1.0);
  ExperimentConfig ref_cfg = fig.config;
  ref_cfg.threads = 1;
  ref_cfg.dedup = DedupMode::kOff;
  const std::string ref_csv =
      render_csv(fig, sweep_load(app, ref_cfg, fig.xs));
  ExperimentConfig audit_cfg = fig.config;
  audit_cfg.threads = 2;
  audit_cfg.dedup = DedupMode::kOn;
  audit_cfg.audit = true;
  const std::vector<SweepPoint> points = sweep_load(app, audit_cfg, fig.xs);
  for (const SweepPoint& pt : points) {
    EXPECT_FALSE(pt.dedup.enabled);
    EXPECT_EQ(pt.dedup.hits, 0u);
  }
  EXPECT_EQ(render_csv(fig, points), ref_csv);
}

}  // namespace
}  // namespace paserta
