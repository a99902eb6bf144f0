// run_points suite: one pooled call over points that each carry their own
// model (application, cpus, table, runs, seed, schemes, heuristic, dedup)
// must reproduce run_point on every point alone, bit for bit — statistics,
// engine counters and dedup accounting — at every thread count, lane count
// and chunk size; and the call's engine counters must reach the registry
// as exactly the sum of its points' PointMetrics. A completion callback
// must see every point once, in order, on the calling thread, equal to
// what the call returns. Points that draw the same scenario stream (same
// application, seed and run count) share each draw, and schemes whose
// kernel plans are equal share each engine call: both must be invisible
// against the serial reference harness (tests/reference_harness.h), which
// draws and simulates every (run, scheme) on its own. Labeled pool_smoke,
// so CI also runs it under ASan/UBSan and TSan.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/atr.h"
#include "apps/mpeg.h"
#include "apps/random_app.h"
#include "apps/synthetic.h"
#include "core/offline.h"
#include "harness/experiment.h"
#include "harness/figures.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "reference_harness.h"
#include "sim/batch_engine.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

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
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.worst_makespan, b.worst_makespan);
  expect_stat_eq(a.npm_energy, b.npm_energy);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    SCOPED_TRACE(testing::Message() << "scheme " << s);
    EXPECT_EQ(a.stats[s].scheme, b.stats[s].scheme);
    expect_stat_eq(a.stats[s].norm_energy, b.stats[s].norm_energy);
    expect_stat_eq(a.stats[s].speed_changes, b.stats[s].speed_changes);
    expect_stat_eq(a.stats[s].finish_frac, b.stats[s].finish_frac);
    expect_stat_eq(a.stats[s].busy_frac, b.stats[s].busy_frac);
    expect_stat_eq(a.stats[s].overhead_frac, b.stats[s].overhead_frac);
    expect_stat_eq(a.stats[s].idle_frac, b.stats[s].idle_frac);
    EXPECT_EQ(a.stats[s].deadline_misses, b.stats[s].deadline_misses);
    EXPECT_EQ(a.stats[s].verify_failures, b.stats[s].verify_failures);
  }
  ASSERT_EQ(a.metrics.enabled(), b.metrics.enabled());
  if (a.metrics.enabled()) {
    expect_counters_eq(a.metrics.npm, b.metrics.npm);
    ASSERT_EQ(a.metrics.schemes.size(), b.metrics.schemes.size());
    for (std::size_t s = 0; s < a.metrics.schemes.size(); ++s)
      expect_counters_eq(a.metrics.schemes[s], b.metrics.schemes[s]);
  }
  // Which slot simulates a shared first encounter varies with the
  // interleaving, so misses may too; the flag and the run count may not.
  EXPECT_EQ(a.dedup.enabled, b.dedup.enabled);
  EXPECT_EQ(a.dedup.hits + a.dedup.misses, b.dedup.hits + b.dedup.misses);
}

Application random_app() {
  apps::RandomAppConfig cfg;
  cfg.max_segments = 4;
  cfg.max_section_tasks = 5;
  Rng rng(77);
  return apps::random_application(rng, cfg, "rnd77");
}

/// A mixed call: four applications (one shared by two points), 2/3/4
/// CPUs, both tables, both heuristics, runs 1 and values that are not a
/// multiple of chunk_runs=7, distinct seeds and scheme lists, and one
/// point that memoizes (dedup on).
struct Mix {
  std::vector<std::unique_ptr<Application>> apps;
  std::vector<std::unique_ptr<ExperimentConfig>> models;
  std::vector<std::unique_ptr<OfflineResult>> offs;
  std::vector<PointSpec> specs;

  void add(const Application* app, ExperimentConfig model, double load) {
    const SimTime w = canonical_worst_makespan(
        *app, model.cpus, model.overheads.worst_case_budget(model.table),
        model.heuristic);
    OfflineOptions opt;
    opt.cpus = model.cpus;
    opt.deadline = deadline_for(w, load);
    opt.overhead_budget = model.overheads.worst_case_budget(model.table);
    opt.heuristic = model.heuristic;
    offs.push_back(
        std::make_unique<OfflineResult>(analyze_offline(*app, opt)));
    models.push_back(std::make_unique<ExperimentConfig>(std::move(model)));
    PointSpec spec;
    spec.app = app;
    spec.off = offs.back().get();
    spec.deadline = opt.deadline;
    spec.x = load;
    spec.config = models.back().get();
    specs.push_back(spec);
  }

  Mix() {
    for (Application a : {apps::build_atr(), apps::build_synthetic(),
                          apps::build_mpeg(), random_app()})
      apps.push_back(std::make_unique<Application>(std::move(a)));
    const Application* atr = apps[0].get();
    const Application* synthetic = apps[1].get();
    const Application* mpeg = apps[2].get();
    const Application* rnd = apps[3].get();

    ExperimentConfig m;
    m.cpus = 2;
    m.runs = 37;
    m.seed = 1;
    add(atr, m, 0.5);

    m = ExperimentConfig{};
    m.cpus = 4;
    m.table = LevelTable::intel_xscale();
    m.runs = 1;
    m.seed = 7;
    m.schemes = {Scheme::GSS, Scheme::AS};
    add(synthetic, m, 0.7);

    m = ExperimentConfig{};
    m.cpus = 3;
    m.runs = 64;
    m.seed = 3;
    m.heuristic = ListHeuristic::ShortestTaskFirst;
    m.schemes = {Scheme::AS, Scheme::SPM, Scheme::SS1};
    add(mpeg, m, 0.4);

    m = ExperimentConfig{};
    m.cpus = 2;
    m.table = LevelTable::intel_xscale();
    m.runs = 50;
    m.seed = 9;
    m.dedup = DedupMode::kOn;
    m.schemes = {Scheme::SS2};
    add(atr, m, 0.9);

    m = ExperimentConfig{};
    m.cpus = 2;
    m.runs = 23;
    m.seed = 11;
    add(rnd, m, 0.6);

    m = ExperimentConfig{};
    m.cpus = 2;
    m.runs = 100;
    m.seed = 5;
    m.schemes = {Scheme::SS1, Scheme::GSS};
    add(synthetic, m, 1.0);
  }
};

TEST(RunPoints, MixedSpecsMatchRunPointAlone) {
  const Mix mix;
  std::vector<SweepPoint> alone;
  for (const PointSpec& spec : mix.specs) {
    ExperimentConfig cfg = *spec.config;
    cfg.collect_metrics = true;
    MetricsRegistry reg;
    cfg.registry = &reg;
    alone.push_back(run_point(*spec.app, cfg, spec.deadline, spec.x));
  }
  ASSERT_TRUE(alone[3].dedup.enabled);

  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 32}) {
      for (int chunk : {0, 7}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads << " batch="
                                        << batch << " chunk=" << chunk);
        ExperimentConfig exec;
        exec.threads = threads;
        exec.batch = batch;
        exec.chunk_runs = chunk;
        exec.collect_metrics = true;
        MetricsRegistry reg;
        exec.registry = &reg;
        const std::vector<SweepPoint> pooled = run_points(mix.specs, exec);
        ASSERT_EQ(pooled.size(), alone.size());
        for (std::size_t p = 0; p < pooled.size(); ++p) {
          SCOPED_TRACE(testing::Message() << "point " << p);
          expect_point_eq(alone[p], pooled[p]);
        }
      }
    }
  }
}

/// The names and values flushing `c` under `prefix` must add — written out
/// independently of the harness's flush.
void add_flat(std::map<std::string, std::uint64_t>& out,
              const std::string& prefix, const SimCounters& c) {
  out[prefix + ".dispatches"] += c.dispatches;
  out[prefix + ".tasks"] += c.tasks;
  out[prefix + ".or_fires"] += c.or_fires;
  out[prefix + ".speed_changes"] += c.speed_changes;
  out[prefix + ".spec_picks"] += c.spec_picks;
  out[prefix + ".greedy_picks"] += c.greedy_picks;
  out[prefix + ".reclaimed_slack_ps"] += c.reclaimed_slack_ps;
  out[prefix + ".idle_ps"] += c.idle_ps;
  for (std::uint32_t l = 0; l < c.levels; ++l) {
    const std::string level = ".L" + std::to_string(l);
    out[prefix + ".busy_ps" + level] += c.busy_ps[l];
    if (c.compute_ps[l] != 0)
      out[prefix + ".compute_ps" + level] += c.compute_ps[l];
    for (std::uint32_t to = 0; to < c.levels; ++to) {
      const std::uint64_t n = c.transitions[l * c.levels + to];
      if (n != 0)
        out[prefix + ".transitions" + level + "_L" + std::to_string(to)] += n;
    }
  }
}

TEST(RunPoints, EngineCountersEqualTheSumOfPointMetrics) {
  const Mix mix;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExperimentConfig exec;
    exec.threads = threads;
    exec.collect_metrics = true;
    MetricsRegistry reg;
    exec.registry = &reg;
    const std::vector<SweepPoint> points = run_points(mix.specs, exec);

    std::map<std::string, std::uint64_t> expected;
    for (std::size_t p = 0; p < points.size(); ++p) {
      const std::vector<Scheme>& schemes = mix.specs[p].config->schemes;
      for (std::size_t s = 0; s < schemes.size(); ++s)
        add_flat(expected, std::string("engine.") + to_string(schemes[s]),
                 points[p].metrics.schemes[s]);
      add_flat(expected, "engine.NPM", points[p].metrics.npm);
    }
    std::map<std::string, std::uint64_t> got;
    for (const auto& row : reg.snapshot().counters)
      if (row.name.rfind("engine.", 0) == 0 &&
          row.name.rfind("engine.dedup.", 0) != 0)
        got[row.name] = row.value;
    EXPECT_EQ(got, expected);
  }
}

TEST(RunPoints, OnPointHandsOverEveryPointInOrderOnTheCallingThread) {
  const Mix mix;
  for (int threads : {1, 2, 4}) {
    for (int chunk : {0, 7}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " chunk=" << chunk);
      ExperimentConfig exec;
      exec.threads = threads;
      exec.chunk_runs = chunk;
      exec.collect_metrics = true;
      MetricsRegistry reg;
      exec.registry = &reg;
      const std::thread::id caller = std::this_thread::get_id();
      std::vector<std::size_t> order;
      std::vector<SweepPoint> seen;
      bool off_caller = false;
      const std::vector<SweepPoint> points = run_points(
          mix.specs, exec, [&](std::size_t i, const SweepPoint& point) {
            order.push_back(i);
            seen.push_back(point);
            off_caller = off_caller || std::this_thread::get_id() != caller;
          });
      EXPECT_FALSE(off_caller);
      ASSERT_EQ(order.size(), points.size());
      for (std::size_t p = 0; p < points.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "point " << p);
        EXPECT_EQ(order[p], p);
        expect_point_eq(points[p], seen[p]);
      }
    }
  }
}

TEST(RunPoints, OnPointExceptionAbortsTheCallAfterEarlierPoints) {
  const Mix mix;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExperimentConfig exec;
    exec.threads = threads;
    std::vector<std::size_t> order;
    EXPECT_THROW(run_points(mix.specs, exec,
                            [&](std::size_t i, const SweepPoint&) {
                              order.push_back(i);
                              if (i == 2) throw std::runtime_error("stop");
                            }),
                 std::runtime_error);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  }
}

// ---- Groups: one draw per shared scenario stream -------------------------

// A load sweep is one group (every point has the same application, seed and
// run count): each lane group is drawn once and simulated into every point.
// Every point must still equal the reference harness, bit for bit and
// counter for counter, at every thread count, chunk size and lane count.
// The loads span the degenerate cases of the paper's figures: SS2 collapses
// to SS1 at low load, and SPM runs at f_max (equal to NPM) on XScale at high
// load, so plan sharing runs inside the group too.
TEST(RunPointsGroups, GroupedSweepLoadMatchesReferencePoint) {
  const Application app = apps::build_atr();
  for (const LevelTable& table :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    ExperimentConfig cfg = paper_figure("fig4a", 40).config;
    cfg.table = table;
    cfg.collect_metrics = true;
    MetricsRegistry ref_reg;
    cfg.registry = &ref_reg;
    const std::vector<double> loads = {0.15, 0.3, 0.55, 0.9, 1.0};
    const std::vector<SweepPoint> ref = reference_sweep_load(app, cfg, loads);
    for (int threads : {1, 2, 4}) {
      for (int chunk : {0, 7}) {
        for (int batch : {1, 8, 32}) {
          SCOPED_TRACE(testing::Message()
                       << table.name() << " threads=" << threads
                       << " chunk=" << chunk << " batch=" << batch);
          ExperimentConfig run = cfg;
          run.threads = threads;
          run.chunk_runs = chunk;
          run.batch = batch;
          MetricsRegistry reg;
          run.registry = &reg;
          const std::vector<SweepPoint> got = sweep_load(app, run, loads);
          ASSERT_EQ(got.size(), ref.size());
          for (std::size_t p = 0; p < got.size(); ++p) {
            SCOPED_TRACE(testing::Message() << "load " << loads[p]);
            expect_point_eq(ref[p], got[p]);
          }
        }
      }
    }
  }
}

/// Specs that interleave two applications, two seeds and two run counts,
/// each combination twice: four-point groups whose members are not
/// adjacent in spec order, and groups that differ in one key field only.
struct Interleaved {
  Application atr = apps::build_atr();
  Application synthetic = apps::build_synthetic();
  std::vector<std::unique_ptr<ExperimentConfig>> models;
  std::vector<std::unique_ptr<OfflineResult>> offs;
  std::vector<PointSpec> specs;

  Interleaved() {
    const double loads[] = {0.35, 0.8};
    for (int rep = 0; rep < 2; ++rep)
      for (int runs : {19, 33})
        for (std::uint64_t seed : {3u, 4u})
          for (const Application* app : {&atr, &synthetic}) {
            auto model = std::make_unique<ExperimentConfig>();
            model->runs = runs;
            model->seed = seed;
            model->collect_metrics = true;
            OfflineOptions opt;
            opt.cpus = model->cpus;
            opt.overhead_budget =
                model->overheads.worst_case_budget(model->table);
            opt.heuristic = model->heuristic;
            const SimTime w = canonical_worst_makespan(
                *app, opt.cpus, opt.overhead_budget, opt.heuristic);
            const double load = loads[(specs.size() / 3) % 2];
            opt.deadline = deadline_for(w, load);
            offs.push_back(
                std::make_unique<OfflineResult>(analyze_offline(*app, opt)));
            PointSpec spec;
            spec.app = app;
            spec.off = offs.back().get();
            spec.deadline = opt.deadline;
            spec.x = load;
            spec.config = model.get();
            models.push_back(std::move(model));
            specs.push_back(spec);
          }
  }
};

TEST(RunPointsGroups, InterleavedSeedsAppsAndRunCountsMatchRunPointAlone) {
  const Interleaved mix;
  std::vector<SweepPoint> alone;
  for (const PointSpec& spec : mix.specs) {
    ExperimentConfig cfg = *spec.config;
    MetricsRegistry reg;
    cfg.registry = &reg;
    alone.push_back(run_point(*spec.app, cfg, spec.deadline, spec.x));
  }
  for (int threads : {1, 4}) {
    for (int chunk : {0, 7}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " chunk=" << chunk);
      ExperimentConfig exec;
      exec.threads = threads;
      exec.chunk_runs = chunk;
      exec.collect_metrics = true;
      MetricsRegistry reg;
      exec.registry = &reg;
      std::vector<std::size_t> order;
      const std::vector<SweepPoint> pooled = run_points(
          mix.specs, exec,
          [&](std::size_t i, const SweepPoint& point) {
            order.push_back(i);
            SCOPED_TRACE(testing::Message() << "on_point " << i);
            expect_point_eq(alone[i], point);
          });
      ASSERT_EQ(pooled.size(), alone.size());
      ASSERT_EQ(order.size(), alone.size());
      for (std::size_t p = 0; p < pooled.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "point " << p);
        EXPECT_EQ(order[p], p);
        expect_point_eq(alone[p], pooled[p]);
      }
    }
  }

  // Eight groups of two points each draw once per lane group: at
  // chunk_runs=7 the 19-run groups take 3 draws and the 33-run groups 5,
  // half of the 64 draws the sixteen points would take alone.
  ExperimentConfig exec;
  exec.chunk_runs = 7;
  Profiler prof(Profiler::Mode::kFallback);
  exec.prof = &prof;
  (void)run_points(mix.specs, exec);
  std::uint64_t draws = 0;
  for (const ProfPhaseTotals& t : prof.snapshot())
    if (t.name == "harness.sample") draws = t.count;
  EXPECT_EQ(draws, 4u * 3u + 4u * 5u);
}

// A dedup point is a group of its own, even beside points of the same
// stream; the points of that stream that cannot dedup (verify_traces)
// still share their draws. Each point must equal run_point on it alone —
// statistics, counters and dedup accounting (at one thread, where which
// slot simulates a scenario cannot vary, the misses too).
TEST(RunPointsGroups, DedupPointsDrawAloneAndMatchRunPoint) {
  const FigureDef fig = paper_figure("fig4a", 48);
  Application app = figure_workload(fig);
  assign_alpha(app.graph, 1.0);  // OR forks only: a small scenario space
  ExperimentConfig model = fig.config;
  model.dedup = DedupMode::kOn;
  model.collect_metrics = true;
  ExperimentConfig verified = model;
  verified.verify_traces = true;
  ExperimentConfig few = model;
  few.schemes = {Scheme::SS2, Scheme::NPM};

  const SimTime w = canonical_worst_makespan(
      app, model.cpus, model.overheads.worst_case_budget(model.table),
      model.heuristic);
  std::vector<OfflineResult> offs;
  std::vector<PointSpec> specs;
  const struct {
    const ExperimentConfig* model;
    double load;
  } points[] = {{&model, 0.2}, {&verified, 0.5}, {&few, 0.5},
                {&model, 0.9}, {&verified, 0.9}};
  offs.reserve(std::size(points));
  for (const auto& pt : points) {
    OfflineOptions opt;
    opt.cpus = model.cpus;
    opt.deadline = deadline_for(w, pt.load);
    opt.overhead_budget = model.overheads.worst_case_budget(model.table);
    offs.push_back(analyze_offline(app, opt));
    PointSpec spec;
    spec.app = &app;
    spec.off = &offs.back();
    spec.deadline = opt.deadline;
    spec.x = pt.load;
    spec.config = pt.model;
    specs.push_back(spec);
  }
  std::vector<SweepPoint> alone;
  for (const PointSpec& spec : specs) {
    ExperimentConfig cfg = *spec.config;
    MetricsRegistry reg;
    cfg.registry = &reg;
    alone.push_back(run_point(app, cfg, spec.deadline, spec.x));
  }
  ASSERT_TRUE(alone[0].dedup.enabled);
  ASSERT_FALSE(alone[1].dedup.enabled);
  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 32}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " batch=" << batch);
      ExperimentConfig exec;
      exec.threads = threads;
      exec.batch = batch;
      exec.collect_metrics = true;
      MetricsRegistry reg;
      exec.registry = &reg;
      const std::vector<SweepPoint> got = run_points(specs, exec);
      ASSERT_EQ(got.size(), alone.size());
      for (std::size_t p = 0; p < got.size(); ++p) {
        SCOPED_TRACE(testing::Message() << "point " << p);
        expect_point_eq(alone[p], got[p]);
        if (threads == 1) EXPECT_EQ(alone[p].dedup.misses, got[p].dedup.misses);
      }
    }
  }

  // Four groups (three dedup points, the two verify_traces points): in one
  // chunk of one lane group each, the five points take four draws of every
  // run.
  ExperimentConfig exec;
  exec.chunk_runs = model.runs;
  exec.batch = model.runs;
  Profiler prof(Profiler::Mode::kFallback);
  exec.prof = &prof;
  (void)run_points(specs, exec);
  std::uint64_t draws = 0;
  for (const ProfPhaseTotals& t : prof.snapshot())
    if (t.name == "harness.sample") draws = t.count;
  EXPECT_EQ(draws, 4u);
}

// ---- Equal kernel plans: one engine call per distinct plan --------------

/// Engine calls of one run_point, counted by the profiler's
/// harness.simulate scope (one entry per simulate_batch call).
std::uint64_t engine_calls(const Profiler& prof) {
  for (const ProfPhaseTotals& t : prof.snapshot())
    if (t.name == "harness.simulate") return t.count;
  return 0;
}

/// run_point on one lane group (batch = chunk = runs), with metrics and a
/// profiler on: checks the point against the reference harness and returns
/// how many engine calls it took.
std::uint64_t check_point_against_reference(const Application& app,
                                            ExperimentConfig cfg,
                                            double load) {
  cfg.collect_metrics = true;
  MetricsRegistry reg;
  cfg.registry = &reg;
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  const SimTime deadline = deadline_for(w, load);
  const SweepPoint ref = reference_point(app, cfg, deadline, load);
  Profiler prof(Profiler::Mode::kFallback);
  cfg.prof = &prof;
  cfg.batch = cfg.runs;
  cfg.chunk_runs = cfg.runs;
  expect_point_eq(ref, run_point(app, cfg, deadline, load));
  return engine_calls(prof);
}

TEST(RunPointsSharing, SchemeListedTwiceRunsOnceWithItsOwnCounters) {
  ExperimentConfig cfg;
  cfg.runs = 40;
  cfg.schemes = {Scheme::GSS, Scheme::SS1, Scheme::GSS};
  // NPM, GSS and SS1: the second GSS copies the first one's rows and
  // counter adds.
  EXPECT_EQ(check_point_against_reference(apps::build_atr(), cfg, 0.5), 3u);
}

TEST(RunPointsSharing, Fig6bSpmRunsAtFmaxAndSharesNpmsCall) {
  const FigureDef fig = paper_figure("fig6b", 60);
  const Application app = figure_workload(fig);
  ExperimentConfig cfg = fig.config;
  {
    // The degeneracy itself: at load 0.9 on XScale, SPM's one level is
    // the top level, NPM's.
    const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
    OfflineOptions opt;
    opt.cpus = cfg.cpus;
    opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
    const SimTime w = canonical_worst_makespan(app, opt.cpus,
                                               opt.overhead_budget,
                                               opt.heuristic);
    opt.deadline = deadline_for(w, fig.fixed_load);
    const OfflineResult off = analyze_offline(app, opt);
    const auto spm = make_policy(Scheme::SPM);
    spm->reset(off, pm);
    ASSERT_EQ(spm->static_level(), cfg.table.size() - 1);
  }
  // Six cells (NPM + five schemes), five distinct plans.
  EXPECT_EQ(check_point_against_reference(app, cfg, fig.fixed_load), 5u);
}

TEST(RunPointsSharing, LowLoadSs2CollapsesToSs1AndSharesItsCall) {
  const FigureDef fig = paper_figure("fig4a", 60);
  const Application app = figure_workload(fig);
  for (double load : {0.1, 0.25, 0.4}) {
    SCOPED_TRACE(testing::Message() << "load " << load);
    EXPECT_EQ(check_point_against_reference(app, fig.config, load), 5u);
  }
}

// One slot shares calls for points of both power tables (16 and 5
// levels) in one call: each shared call's counters must reach exactly its
// own point's cells.
TEST(RunPointsSharing, SharedCallsAcrossPowerTablesKeepTheirCounters) {
  Mix mix;
  ExperimentConfig low = paper_figure("fig4a", 30).config;  // SS2 == SS1
  low.collect_metrics = true;
  mix.add(mix.apps[0].get(), low, 0.2);
  ExperimentConfig high = paper_figure("fig6b", 30).config;  // SPM == NPM
  high.collect_metrics = true;
  mix.add(mix.apps[1].get(), high, 0.9);
  mix.add(mix.apps[0].get(), low, 0.25);
  std::vector<SweepPoint> alone;
  for (const PointSpec& spec : mix.specs) {
    ExperimentConfig cfg = *spec.config;
    cfg.collect_metrics = true;
    MetricsRegistry reg;
    cfg.registry = &reg;
    alone.push_back(run_point(*spec.app, cfg, spec.deadline, spec.x));
  }
  for (int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    ExperimentConfig exec;
    exec.threads = threads;
    exec.collect_metrics = true;
    MetricsRegistry reg;
    exec.registry = &reg;
    const std::vector<SweepPoint> pooled = run_points(mix.specs, exec);
    ASSERT_EQ(pooled.size(), alone.size());
    for (std::size_t p = 0; p < pooled.size(); ++p) {
      SCOPED_TRACE(testing::Message() << "point " << p);
      expect_point_eq(alone[p], pooled[p]);
    }
  }
}

// verify_traces and audit need per-run engine work for each scheme, and a
// per-run tracer one span per simulation: no sharing there, and the
// verify counts stay per scheme.
TEST(RunPointsSharing, PerRunEngineWorkKeepsOneCallPerScheme) {
  ExperimentConfig cfg;
  cfg.runs = 30;
  cfg.schemes = {Scheme::GSS, Scheme::SS1, Scheme::GSS};
  ExperimentConfig verify = cfg;
  verify.verify_traces = true;
  EXPECT_EQ(check_point_against_reference(apps::build_atr(), verify, 0.5),
            4u);
  ExperimentConfig audit = cfg;
  audit.audit = true;
  EXPECT_EQ(check_point_against_reference(apps::build_atr(), audit, 0.5), 4u);
}

/// A policy that reports a fixed rule, to build plans with chosen fields.
class RulePolicy final : public SpeedPolicy {
 public:
  explicit RulePolicy(SpeedRule rule) : rule_(rule) {}
  const char* name() const override { return "RULE"; }
  void reset(const OfflineResult&, const PowerModel&) override {}
  SpeedRule rule() const override { return rule_; }

 private:
  SpeedRule rule_;
};

TEST(RunPointsSharing, PlansThatDifferOnlyInThetaAreEqualOnlyWithOneFloor) {
  const Application app = apps::build_atr();
  const PowerModel pm(LevelTable::intel_xscale());
  const LevelTable& t = pm.table();
  OfflineOptions opt;
  const SimTime w = canonical_worst_makespan(app, opt.cpus,
                                             opt.overhead_budget,
                                             opt.heuristic);
  opt.deadline = deadline_for(w, 0.5);
  const OfflineResult off = analyze_offline(app, opt);
  const Overheads ovh;
  const auto plan = [&](Freq low, Freq high, std::int64_t theta_ps) {
    SpeedRule rule;
    rule.form = SpeedRule::Form::StaticSpec;
    rule.f_low = low;
    rule.f_high = high;
    rule.theta = SimTime{theta_ps};
    return KernelPlan(app, off, pm, ovh, RulePolicy(rule));
  };
  const Freq f1 = t.level(1).freq;
  const Freq f2 = t.level(2).freq;
  // Two floors: theta decides when the floor steps up.
  EXPECT_FALSE(plan(f1, f2, 1000).same_rule(plan(f1, f2, 2000)));
  EXPECT_TRUE(plan(f1, f2, 1000).same_rule(plan(f1, f2, 1000)));
  // One floor: theta selects between equal levels.
  EXPECT_TRUE(plan(f2, f2, 1000).same_rule(plan(f2, f2, 2000)));
  EXPECT_FALSE(plan(f1, f1, 0).same_rule(plan(f2, f2, 0)));
  // A static level equal to a dynamic plan's start never merges.
  SpeedRule top;
  top.level = t.size() - 1;
  EXPECT_FALSE(KernelPlan(app, off, pm, ovh, RulePolicy(top))
                   .same_rule(plan(f2, f2, 0)));
}

}  // namespace
}  // namespace paserta
