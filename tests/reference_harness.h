// Serial reference for the Monte-Carlo harness, used as the oracle of the
// harness's bit-identity suites. It is deliberately simple: one offline
// analysis per point, one draw_scenario walk per run on the run's
// seed-derived stream, a freshly built policy and the reference simulator
// (tests/reference_engine.h) per scheme, and accumulation straight into
// the SweepPoint in run order. It has no pool, staging, compiled sampler,
// simulation kernel or dedup, so run_point and sweep_load are checked
// against code that shares none of those layers.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/offline.h"
#include "core/policy.h"
#include "harness/experiment.h"
#include "reference_engine.h"
#include "sim/scenario.h"
#include "sim/verify.h"

namespace paserta {

/// The SweepPoint run_point(app, cfg, deadline, x) must reproduce. Honours
/// the fields that define the result (platform, schemes, runs, seed,
/// heuristic, policy options, verify_traces, and collect_metrics for the
/// per-scheme counter totals) and ignores every scheduling and
/// observability field, which must not change it.
inline SweepPoint reference_point(const Application& app,
                                  const ExperimentConfig& cfg,
                                  SimTime deadline, double x) {
  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  OfflineOptions opt;
  opt.cpus = cfg.cpus;
  opt.deadline = deadline;
  opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
  opt.heuristic = cfg.heuristic;
  const OfflineResult off = analyze_offline(app, opt);

  SweepPoint point;
  point.x = x;
  point.deadline = deadline;
  point.worst_makespan = off.worst_makespan();
  for (Scheme s : cfg.schemes) {
    point.stats.emplace_back();
    point.stats.back().scheme = s;
  }
  if (cfg.collect_metrics) point.metrics.schemes.resize(cfg.schemes.size());

  // Simulates scheme index `k` of cfg.schemes (NPM at k == size) and adds
  // its counters into that scheme's metrics cell.
  const auto run = [&](std::size_t k, const RunScenario& sc) {
    const bool npm = k == cfg.schemes.size();
    const auto policy =
        make_policy(npm ? Scheme::NPM : cfg.schemes[k], cfg.policy_options);
    policy->reset(off, pm);
    SimCounters* const cell =
        !cfg.collect_metrics ? nullptr
        : npm                ? &point.metrics.npm
                             : &point.metrics.schemes[k];
    return reference_simulate(app, off, pm, cfg.overheads, *policy, sc, cell);
  };
  for (int i = 0; i < cfg.runs; ++i) {
    Rng rng(Rng::stream_seed(cfg.seed, static_cast<std::uint64_t>(i)));
    const RunScenario sc = draw_scenario(app.graph, rng);
    const double npm = run(cfg.schemes.size(), sc).total_energy();
    point.npm_energy.add(npm);
    const bool degenerate = !(npm > 0.0);
    if (degenerate) ++point.degenerate_runs;
    for (std::size_t s = 0; s < cfg.schemes.size(); ++s) {
      const SimResult r = run(s, sc);
      SchemeStats& st = point.stats[s];
      const double total = r.total_energy();
      if (!degenerate) st.norm_energy.add(total / npm);
      st.speed_changes.add(static_cast<double>(r.speed_changes));
      st.finish_frac.add(static_cast<double>(r.finish_time.ps) /
                         static_cast<double>(deadline.ps));
      if (total > 0.0) {
        st.busy_frac.add(r.busy_energy / total);
        st.overhead_frac.add(r.overhead_energy / total);
        st.idle_frac.add(r.idle_energy / total);
      }
      if (!r.deadline_met) ++st.deadline_misses;
      if (cfg.verify_traces && !verify_trace(app, off, sc, r).ok)
        ++st.verify_failures;
    }
  }
  return point;
}

/// The load sweep sweep_load(app, cfg, loads) must reproduce: deadline =
/// ceil(W / load) from the canonical worst-case makespan W, one reference
/// point per load.
inline std::vector<SweepPoint> reference_sweep_load(
    const Application& app, const ExperimentConfig& cfg,
    const std::vector<double>& loads) {
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  std::vector<SweepPoint> points;
  for (double load : loads) {
    const SimTime deadline{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(w.ps) / load))};
    points.push_back(reference_point(app, cfg, deadline, load));
  }
  return points;
}

}  // namespace paserta
