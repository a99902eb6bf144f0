// Batched-engine bit-identity suite: simulate_batch (sim/batch_engine.h)
// must reproduce the scalar engine run-for-run — energies, finish times,
// traces, counters and the attribution ledger, bitwise — and run_point
// must produce byte-identical points for every batch size. The suite
// cross-validates on randomized AND/OR applications (apps/random_app.h),
// so the lockstep dispatch loop is exercised across graph shapes no
// hand-written workload covers: nested OR forks, loops, empty
// alternatives, wide sections. Batch sizes deliberately include odd
// remainders (runs not divisible by the lane count) and lane counts
// larger than the run count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/random_app.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"

namespace paserta {
namespace {

Application random_app(std::uint64_t seed) {
  apps::RandomAppConfig cfg;
  cfg.max_segments = 5;
  cfg.max_section_tasks = 6;
  Rng rng(seed);
  return apps::random_application(rng, cfg, "rnd" + std::to_string(seed));
}

// TaskRecord has padding, so never memcmp — field by field.
void expect_trace_eq(const std::vector<TaskRecord>& a,
                     const std::vector<TaskRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "trace record " << i);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].cpu, b[i].cpu);
    EXPECT_EQ(a[i].eo, b[i].eo);
    EXPECT_EQ(a[i].dispatch_time.ps, b[i].dispatch_time.ps);
    EXPECT_EQ(a[i].exec_start.ps, b[i].exec_start.ps);
    EXPECT_EQ(a[i].finish.ps, b[i].finish.ps);
    EXPECT_EQ(a[i].level, b[i].level);
    EXPECT_EQ(a[i].level_before, b[i].level_before);
    EXPECT_EQ(a[i].switched, b[i].switched);
    EXPECT_EQ(a[i].chosen_alt, b[i].chosen_alt);
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

void expect_stat_eq(const RunningStat& a, const RunningStat& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_point_eq(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.deadline.ps, b.deadline.ps);
  expect_stat_eq(a.npm_energy, b.npm_energy);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "scheme " << i);
    EXPECT_EQ(a.stats[i].scheme, b.stats[i].scheme);
    expect_stat_eq(a.stats[i].norm_energy, b.stats[i].norm_energy);
    expect_stat_eq(a.stats[i].speed_changes, b.stats[i].speed_changes);
    expect_stat_eq(a.stats[i].finish_frac, b.stats[i].finish_frac);
    expect_stat_eq(a.stats[i].busy_frac, b.stats[i].busy_frac);
    expect_stat_eq(a.stats[i].overhead_frac, b.stats[i].overhead_frac);
    expect_stat_eq(a.stats[i].idle_frac, b.stats[i].idle_frac);
    EXPECT_EQ(a.stats[i].deadline_misses, b.stats[i].deadline_misses);
    EXPECT_EQ(a.stats[i].verify_failures, b.stats[i].verify_failures);
  }
  ASSERT_EQ(a.metrics.enabled(), b.metrics.enabled());
  if (a.metrics.enabled()) {
    expect_counters_eq(a.metrics.npm, b.metrics.npm);
    ASSERT_EQ(a.metrics.schemes.size(), b.metrics.schemes.size());
    for (std::size_t i = 0; i < a.metrics.schemes.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "scheme counters " << i);
      expect_counters_eq(a.metrics.schemes[i], b.metrics.schemes[i]);
    }
  }
}

// Engine level: simulate_batch vs the scalar workspace loop on the same
// pre-drawn scenarios, every scheme, with traces, audit and per-lane
// counters on. Any divergence in the lockstep dispatch order, the
// division-free duration math or the ledger fold fails here with the
// exact field named.
TEST(BatchEngine, MatchesScalarEngineOnRandomApps) {
  const PowerModel pm(LevelTable::transmeta_tm5400());
  Overheads ovh;
  constexpr std::size_t kLanes = 17;  // odd: exercises divergence retirement

  for (std::uint64_t app_seed : {1u, 7u, 13u}) {
    const Application app = random_app(app_seed);
    OfflineOptions oo;
    oo.cpus = 2;
    oo.overhead_budget = ovh.worst_case_budget(pm.table());
    const SimTime w = canonical_worst_makespan(app, oo.cpus,
                                               oo.overhead_budget,
                                               oo.heuristic);
    oo.deadline = SimTime{2 * w.ps};  // load 0.5
    const OfflineResult off = analyze_offline(app, oo);

    const ScenarioSampler sampler(app.graph);
    ScenarioBatch batch;
    batch.ensure(kLanes, app.graph.size());
    std::vector<RunScenario> scenarios(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      // Two draws from identically seeded streams: the slab fill must
      // consume the stream exactly like the per-run draw.
      Rng a(Rng::stream_seed(app_seed, l));
      Rng b(Rng::stream_seed(app_seed, l));
      sampler.draw_into(a, scenarios[l]);
      sampler.draw_into(b, batch, l);
    }

    for (Scheme scheme : {Scheme::NPM, Scheme::SPM, Scheme::GSS, Scheme::SS1,
                          Scheme::SS2, Scheme::AS}) {
      SCOPED_TRACE(testing::Message()
                   << "app seed " << app_seed << " scheme "
                   << static_cast<int>(scheme));
      // Scalar oracle: one policy reset, one workspace, per-run loop.
      auto policy = make_policy(scheme);
      policy->reset(off, pm);
      SimWorkspace sws;
      SimOptions so;
      so.record_trace = true;
      so.audit = true;
      std::vector<SimResult> want(kLanes);
      std::vector<SimCounters> want_cells(kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        so.counters = &want_cells[l];
        want[l] = simulate(app, off, pm, ovh, *policy, scenarios[l], sws, so);
      }

      BatchWorkspace bws;
      BatchSimOptions bo;
      bo.record_trace = true;
      bo.audit = true;
      std::vector<SimCounters> got_cells(kLanes);
      bo.lane_cells = got_cells.data();
      std::vector<SimResult> got(kLanes);
      simulate_batch(app, off, pm, ovh, scheme, PolicyOptions{}, batch,
                     kLanes, bws, got.data(), bo);

      for (std::size_t l = 0; l < kLanes; ++l) {
        SCOPED_TRACE(testing::Message() << "lane " << l);
        EXPECT_EQ(want[l].busy_energy, got[l].busy_energy);
        EXPECT_EQ(want[l].overhead_energy, got[l].overhead_energy);
        EXPECT_EQ(want[l].idle_energy, got[l].idle_energy);
        EXPECT_EQ(want[l].finish_time.ps, got[l].finish_time.ps);
        EXPECT_EQ(want[l].speed_changes, got[l].speed_changes);
        EXPECT_EQ(want[l].dispatched, got[l].dispatched);
        EXPECT_EQ(want[l].deadline_met, got[l].deadline_met);
        expect_trace_eq(want[l].trace, got[l].trace);
        expect_counters_eq(want_cells[l], got_cells[l]);
      }
    }
  }
}

// Harness level: run_point output (stats, metrics, degenerate counts) is
// identical for every batch size against the scalar per-run observed path
// (which a per-run tracer selects),
// including lane counts that leave odd remainders (50 % 3, 50 % 8) and
// one larger than the run count. Audit and metrics stay on, so the
// counter export paths (shared cell vs per-lane cells) are both covered.
TEST(BatchEngine, RunPointMatchesScalarAcrossBatchSizes) {
  constexpr int kRuns = 50;
  for (std::uint64_t app_seed : {2u, 11u}) {
    const Application app = random_app(app_seed);
    ExperimentConfig cfg;
    cfg.runs = kRuns;
    cfg.seed = 99;
    cfg.audit = true;
    cfg.collect_metrics = true;
    MetricsRegistry ref_reg;
    cfg.registry = &ref_reg;
    const SimTime w = canonical_worst_makespan(
        app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
        cfg.heuristic);
    const SimTime deadline{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(w.ps) / 0.5))};

    Tracer run_tracer(Tracer::Detail::kRuns);
    ExperimentConfig ref_cfg = cfg;
    ref_cfg.tracer = &run_tracer;
    ASSERT_EQ(resolved_batch_lanes(ref_cfg), 0);
    const SweepPoint ref = run_point(app, ref_cfg, deadline, 0.5);

    for (int b : {0, 1, 3, 8, 64, kRuns}) {
      SCOPED_TRACE(testing::Message()
                   << "app seed " << app_seed << " batch " << b);
      ExperimentConfig bcfg = cfg;
      bcfg.batch = b;
      MetricsRegistry reg;
      bcfg.registry = &reg;
      EXPECT_GT(resolved_batch_lanes(bcfg), 0);
      expect_point_eq(ref, run_point(app, bcfg, deadline, 0.5));
    }
  }
}

// verify_traces needs the scalar engine's completeness traversal and a
// per-run tracer needs one span per simulation, so such configurations must
// resolve to the scalar observed path no matter what batch size was
// requested — silently degrading verification would be worse than the
// lost batching. Every other configuration gets real lanes.
TEST(BatchEngine, ScalarOnlyFacilitiesForceScalarResolution) {
  ExperimentConfig cfg;
  cfg.batch = 64;
  EXPECT_EQ(resolved_batch_lanes(cfg), 64);
  cfg.verify_traces = true;
  EXPECT_EQ(resolved_batch_lanes(cfg), 0);
  cfg.verify_traces = false;
  Tracer run_tracer(Tracer::Detail::kRuns);
  cfg.tracer = &run_tracer;
  EXPECT_EQ(resolved_batch_lanes(cfg), 0);
  Tracer chunk_tracer(Tracer::Detail::kChunks);
  cfg.tracer = &chunk_tracer;
  EXPECT_EQ(resolved_batch_lanes(cfg), 64);
  cfg.tracer = nullptr;
  cfg.batch = 0;
  EXPECT_EQ(resolved_batch_lanes(cfg), 32);  // auto
  cfg.batch = 1;
  EXPECT_EQ(resolved_batch_lanes(cfg), 1);  // one lane, not scalar
}

}  // namespace
}  // namespace paserta
