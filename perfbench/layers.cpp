// Per-layer cost from outside the program: every layer function a point
// passes through is called directly and timed around the call. Nothing
// here adds a span inside the library.
#include <cmath>
#include <memory>
#include <unordered_set>

#include "bench.h"
#include "common/rng.h"
#include "core/offline.h"
#include "core/policy.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"
#include "sim/scenario.h"

namespace perfbench {

using namespace paserta;

namespace {

constexpr std::size_t kLanes = 32;  // the harness's auto batch width
constexpr int kReplays = 3;          // best of, like the end-to-end figures

LayerTimes replay_once(const std::vector<LayerPoint>& points) {
  LayerTimes t;
  SimWorkspace ws;
  BatchWorkspace bws;
  ScenarioBatch drawn;
  ScenarioBatch engine_batch;
  std::vector<SimResult> results(kLanes);
  RunScenario sc;
  for (const LayerPoint& lp : points) {
    const Application& app = *lp.app;
    const ExperimentConfig& cfg = lp.cfg;
    const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
    const std::size_t nodes = app.graph.size();

    auto t0 = Clock::now();
    const CanonicalAnalysis canon = analyze_canonical(
        app, CanonicalOptions{cfg.cpus,
                              cfg.overheads.worst_case_budget(cfg.table),
                              cfg.heuristic});
    t.analyze_s += seconds_since(t0);
    const SimTime deadline{static_cast<std::int64_t>(std::ceil(
        static_cast<double>(canon.worst_makespan().ps) / lp.load))};

    t0 = Clock::now();
    const OfflineResult off = apply_deadline(canon, deadline);
    t.apply_s += seconds_since(t0);

    t0 = Clock::now();
    const ScenarioSampler sampler(app.graph);
    t.compile_s += seconds_since(t0);

    std::unique_ptr<SpeedPolicy> npm = make_policy(Scheme::NPM);
    std::vector<std::unique_ptr<SpeedPolicy>> policies;
    for (Scheme s : cfg.schemes)
      policies.push_back(make_policy(s, cfg.policy_options));

    const bool dedup = resolved_dedup(cfg, sampler.scenario_space());
    const std::size_t ops = sampler.op_count();
    std::vector<std::uint64_t> keys(kLanes * (ops == 0 ? 1 : ops));
    std::unordered_set<std::string> seen;
    drawn.ensure(kLanes, nodes);
    engine_batch.ensure(kLanes, nodes);
    sc.actual.resize(nodes);
    sc.or_choice.resize(nodes);
    std::size_t pending = 0;

    const auto flush = [&] {
      if (pending == 0) return;
      const auto e0 = Clock::now();
      simulate_batch(app, off, pm, cfg.overheads, Scheme::NPM,
                     cfg.policy_options, engine_batch, pending, bws,
                     results.data());
      for (Scheme s : cfg.schemes) {
        simulate_batch(app, off, pm, cfg.overheads, s, cfg.policy_options,
                       engine_batch, pending, bws, results.data());
      }
      t.engine_s += seconds_since(e0);
      pending = 0;
    };

    for (int base = 0; base < cfg.runs; base += static_cast<int>(kLanes)) {
      const std::size_t count = std::min<std::size_t>(
          kLanes, static_cast<std::size_t>(cfg.runs - base));
      t0 = Clock::now();
      for (std::size_t l = 0; l < count; ++l) {
        Rng rng(Rng::stream_seed(cfg.seed,
                                 static_cast<std::uint64_t>(base) + l));
        if (dedup) {
          sampler.draw_into(rng, drawn, l, &keys[l * ops]);
        } else {
          sampler.draw_into(rng, drawn, l);
        }
      }
      t.sample_s += seconds_since(t0);

      for (std::size_t l = 0; l < count; ++l) {
        if (dedup) {
          const auto* k = reinterpret_cast<const char*>(&keys[l * ops]);
          if (!seen.emplace(k, ops * sizeof(std::uint64_t)).second) continue;
        }
        std::copy_n(drawn.lane_actual(l), nodes, sc.actual.begin());
        std::copy_n(drawn.lane_choice(l), nodes, sc.or_choice.begin());
        std::copy_n(drawn.lane_actual(l), nodes,
                    engine_batch.lane_actual(pending));
        std::copy_n(drawn.lane_choice(l), nodes,
                    engine_batch.lane_choice(pending));
        if (++pending == kLanes) flush();

        SimOptions so;
        so.record_trace = false;
        const auto s0 = Clock::now();
        npm->reset(off, pm);
        simulate(app, off, pm, cfg.overheads, *npm, sc, ws, so);
        for (auto& p : policies) {
          p->reset(off, pm);
          simulate(app, off, pm, cfg.overheads, *p, sc, ws, so);
        }
        t.scalar_s += seconds_since(s0);
      }
    }
    flush();

    ExperimentConfig one = cfg;
    one.runs = 1;
    one.threads = 1;
    t0 = Clock::now();
    run_point(app, one, deadline, lp.load);
    t.point_s += seconds_since(t0);

    ++t.points;
    t.runs += static_cast<std::uint64_t>(cfg.runs);
  }
  return t;
}

}  // namespace

Application alpha_variant(const Application& app, double alpha,
                          std::uint64_t seed, std::size_t index) {
  Application variant = app;
  Rng acet_rng(seed ^ (0x517CC1B727220A95ULL + index));
  assign_alpha(variant.graph, alpha, &acet_rng);
  return variant;
}

LayerTimes replay_layers(const std::vector<LayerPoint>& points) {
  LayerTimes best = replay_once(points);
  for (int pass = 1; pass < kReplays; ++pass) {
    const LayerTimes t = replay_once(points);
    for (double LayerTimes::*f :
         {&LayerTimes::analyze_s, &LayerTimes::apply_s, &LayerTimes::compile_s,
          &LayerTimes::sample_s, &LayerTimes::engine_s, &LayerTimes::scalar_s,
          &LayerTimes::point_s}) {
      best.*f = std::min(best.*f, t.*f);
    }
  }
  return best;
}

void put_layer_metrics(const LayerTimes& t, Metrics& m) {
  const double pts = static_cast<double>(std::max<std::uint64_t>(t.points, 1));
  const double runs = static_cast<double>(std::max<std::uint64_t>(t.runs, 1));
  m["core.analyze_us"] = 1e6 * t.analyze_s / pts;
  m["core.apply_us"] = 1e6 * t.apply_s / pts;
  m["sim.compile_us"] = 1e6 * t.compile_s / pts;
  m["harness.point_overhead_us"] = 1e6 * t.point_s / pts;
  m["sim.sample_ns_per_run"] = 1e9 * t.sample_s / runs;
  m["sim.engine_ns_per_run"] = 1e9 * t.engine_s / runs;
  m["sim.scalar_ns_per_run"] = 1e9 * t.scalar_s / runs;
}

}  // namespace perfbench
