// Kernel bit-identity suite: simulate_batch (sim/batch_engine.h) and its
// one-lane front end simulate() must reproduce the reference simulator
// (tests/reference_engine.h) run-for-run — energies, finish times, traces,
// counters and the attribution ledger, bitwise — and run_point must
// reproduce the reference harness (tests/reference_harness.h) for every
// batch size. The suite
// cross-validates on randomized AND/OR applications (apps/random_app.h),
// so the lockstep dispatch loop is exercised across graph shapes no
// hand-written workload covers: nested OR forks, loops, empty
// alternatives, wide sections. Batch sizes deliberately include odd
// remainders (runs not divisible by the lane count) and lane counts
// larger than the run count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/random_app.h"
#include "graph/program.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/power_model.h"
#include "reference_engine.h"
#include "reference_harness.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"
#include "sim/scenario.h"

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

// Engine level: simulate_batch and the one-lane simulate() vs the
// reference simulator on the same pre-drawn scenarios, every scheme, with
// traces, audit and per-lane counters on. Any divergence in the lockstep
// dispatch order, the division-free duration math or the ledger fold
// fails here with the exact field named.
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
      // Reference oracle, and the one-lane front end through one reused
      // workspace; both reset the policy per run.
      auto policy = make_policy(scheme);
      SimWorkspace sws;
      SimOptions so;
      so.audit = true;
      std::vector<SimResult> want(kLanes);
      std::vector<SimCounters> want_cells(kLanes);
      for (std::size_t l = 0; l < kLanes; ++l) {
        policy->reset(off, pm);
        want[l] = reference_simulate(app, off, pm, ovh, *policy, scenarios[l],
                                     &want_cells[l]);
        policy->reset(off, pm);
        SimCounters one_cell;
        so.counters = &one_cell;
        const SimResult one =
            simulate(app, off, pm, ovh, *policy, scenarios[l], sws, so);
        SCOPED_TRACE(testing::Message() << "one-lane simulate, lane " << l);
        EXPECT_EQ(want[l].total_energy(), one.total_energy());
        EXPECT_EQ(want[l].finish_time.ps, one.finish_time.ps);
        expect_trace_eq(want[l].trace, one.trace);
        expect_counters_eq(want_cells[l], one_cell);
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

// The speed choice compares freq * avail with f_max * wcet as exact 128-bit
// products. One-task applications without overheads put a task's slack
// avail (its EET, dispatched at t = 0) at the largest value whose product
// with f_max fits 64 bits and one picosecond either side, with WCETs on
// and next to every level's boundary, and take wcet * f_max past 2^64; the
// kernel must pick every level, and count every floor-vs-greedy decision,
// as the reference engine does.
TEST(BatchEngine, SpeedChoiceIsExactPastSixtyFourBitProducts) {
  Overheads ovh;
  ovh.speed_compute_cycles = 0;
  ovh.speed_change_time = SimTime::zero();
  for (const LevelTable& table :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    const PowerModel pm(table);
    const Freq f_max = table.f_max();
    const auto limit =
        static_cast<std::int64_t>(~std::uint64_t{0} / f_max);
    struct Case {
      std::int64_t avail;
      std::int64_t wcet;
    };
    std::vector<Case> cases;
    for (std::int64_t da : {-1, 0, 1}) {
      const std::int64_t avail = limit + da;
      for (std::size_t lv = 0; lv < table.size(); ++lv) {
        // The WCET whose greedy requirement ceil(f_max * wcet / avail) is
        // level lv's frequency, rounded down, and its neighbours.
        const auto w = static_cast<std::int64_t>(
            static_cast<__int128>(table.level(lv).freq) * avail / f_max);
        for (std::int64_t dw : {-1, 0, 1}) cases.push_back({avail, w + dw});
      }
    }
    // wcet * f_max at and past 2^64.
    cases.push_back({2 * (limit + 1), limit + 1});
    cases.push_back({3 * limit, 2 * limit});
    cases.push_back({limit + 2, limit + 1});

    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << table.name() << " avail " << c.avail
                                      << " wcet " << c.wcet);
      Program prog;
      prog.task("t", SimTime{c.wcet}, SimTime{c.wcet / 2});
      const Application app = build_application("wide", prog);
      std::uint32_t task = 0;
      while (app.graph.node(NodeId{task}).is_dummy()) ++task;
      OfflineOptions oo;
      oo.cpus = 1;
      oo.deadline = SimTime{c.avail};
      OfflineResult off = analyze_offline(app, oo);
      // Place the task's EET exactly on the wanted slack.
      oo.deadline = SimTime{c.avail + (c.avail - off.eet_table()[task].ps)};
      off = analyze_offline(app, oo);
      ASSERT_EQ(off.eet_table()[task].ps, c.avail);
      const RunScenario sc = worst_case_scenario(app.graph);
      for (Scheme scheme :
           {Scheme::GSS, Scheme::SS1, Scheme::SS2, Scheme::AS}) {
        SCOPED_TRACE(testing::Message() << to_string(scheme));
        auto policy = make_policy(scheme);
        policy->reset(off, pm);
        SimCounters want_cell;
        const SimResult want =
            reference_simulate(app, off, pm, ovh, *policy, sc, &want_cell);
        policy->reset(off, pm);
        SimWorkspace ws;
        SimOptions so;
        SimCounters got_cell;
        so.counters = &got_cell;
        const SimResult got = simulate(app, off, pm, ovh, *policy, sc, ws, so);
        EXPECT_EQ(want.total_energy(), got.total_energy());
        EXPECT_EQ(want.finish_time.ps, got.finish_time.ps);
        expect_trace_eq(want.trace, got.trace);
        expect_counters_eq(want_cell, got_cell);
      }
    }
  }
}

// Harness level: run_point output (stats, metrics, degenerate counts) is
// identical to the reference harness for every batch size, including lane
// counts that leave odd remainders (50 % 3, 50 % 8), one larger than the
// run count, and the one lane a per-run tracer selects. Audit and metrics
// stay on, so the counter export paths (shared cell vs per-lane cells)
// are both covered.
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

    const SweepPoint ref = reference_point(app, cfg, deadline, 0.5);

    Tracer run_tracer(Tracer::Detail::kRuns);
    ExperimentConfig traced_cfg = cfg;
    traced_cfg.tracer = &run_tracer;
    traced_cfg.batch = 8;
    ASSERT_EQ(resolved_batch_lanes(traced_cfg), 1);
    {
      SCOPED_TRACE(testing::Message() << "app seed " << app_seed
                                      << " per-run tracer");
      expect_point_eq(ref, run_point(app, traced_cfg, deadline, 0.5));
    }

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

// verify_traces runs through the chunk pipeline at the configured width
// (each lane records and verifies its own trace), and a per-run tracer
// resolves to one lane so it can record one span per simulation. Every
// other configuration gets the requested lanes.
TEST(BatchEngine, ObservedConfigurationsResolveLanes) {
  ExperimentConfig cfg;
  cfg.batch = 64;
  EXPECT_EQ(resolved_batch_lanes(cfg), 64);
  cfg.verify_traces = true;
  EXPECT_EQ(resolved_batch_lanes(cfg), 64);
  cfg.verify_traces = false;
  Tracer run_tracer(Tracer::Detail::kRuns);
  cfg.tracer = &run_tracer;
  EXPECT_EQ(resolved_batch_lanes(cfg), 1);
  Tracer chunk_tracer(Tracer::Detail::kChunks);
  cfg.tracer = &chunk_tracer;
  EXPECT_EQ(resolved_batch_lanes(cfg), 64);
  cfg.tracer = nullptr;
  cfg.batch = 0;
  EXPECT_EQ(resolved_batch_lanes(cfg), 32);  // auto
  cfg.batch = 1;
  EXPECT_EQ(resolved_batch_lanes(cfg), 1);
}

// One span per simulation under a per-run tracer: NPM plus every scheme,
// once per run, each labelled with its own run index.
TEST(BatchEngine, PerRunTracerRecordsOneSpanPerSimulation) {
  const Application app = random_app(5);
  ExperimentConfig cfg;
  cfg.runs = 12;
  Tracer tracer(Tracer::Detail::kRuns);
  cfg.tracer = &tracer;
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  (void)run_point(app, cfg, SimTime{2 * w.ps}, 0.5);
  std::size_t spans = 0;
  std::set<std::pair<std::string, std::int64_t>> labels;
  for (const TraceEvent& ev : tracer.events()) {
    const std::string name = ev.name;
    bool simulation = name == "NPM";
    for (Scheme s : cfg.schemes) simulation = simulation || name == to_string(s);
    if (!simulation) continue;
    ++spans;
    labels.emplace(name, ev.run);
  }
  const std::size_t want =
      static_cast<std::size_t>(cfg.runs) * (cfg.schemes.size() + 1);
  EXPECT_EQ(spans, want);
  EXPECT_EQ(labels.size(), want);
}

}  // namespace
}  // namespace paserta
