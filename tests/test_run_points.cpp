// run_points suite: one pooled call over points that each carry their own
// model (application, cpus, table, runs, seed, schemes, heuristic, dedup)
// must reproduce run_point on every point alone, bit for bit — statistics,
// engine counters and dedup accounting — at every thread count, lane count
// and chunk size; and the call's engine counters must reach the registry
// as exactly the sum of its points' PointMetrics. A completion callback
// must see every point once, in order, on the calling thread, equal to
// what the call returns. Labeled pool_smoke, so CI also runs it under
// ASan/UBSan and TSan.
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
#include "obs/metrics.h"

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

}  // namespace
}  // namespace paserta
