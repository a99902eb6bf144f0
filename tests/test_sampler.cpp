// Tests for the precompiled ScenarioSampler (sim/sampler.h).
//
// The sampler's contract is *bit-identity* with the legacy draw_scenario
// walk: identical drawn values AND identical RNG stream consumption for any
// seed (DESIGN.md §10). These tests pin that contract at three levels:
// per-draw (scenario arrays and generator state), per-compile (validation
// and template baking), and per-sweep (run_point's sampler path against
// the serial draw_scenario reference of tests/reference_harness.h on the
// paper's fig4a workload, across loads and thread counts).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "apps/atr.h"
#include "apps/mpeg.h"
#include "apps/synthetic.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/offline.h"
#include "graph/graph.h"
#include "harness/experiment.h"
#include "reference_harness.h"
#include "sim/sampler.h"
#include "sim/scenario.h"

namespace paserta {
namespace {

void expect_scenarios_equal(const RunScenario& a, const RunScenario& b) {
  ASSERT_EQ(a.actual.size(), b.actual.size());
  ASSERT_EQ(a.or_choice.size(), b.or_choice.size());
  for (std::size_t i = 0; i < a.actual.size(); ++i) {
    EXPECT_EQ(a.actual[i], b.actual[i]) << "actual[" << i << "]";
    EXPECT_EQ(a.or_choice[i], b.or_choice[i]) << "or_choice[" << i << "]";
  }
}

/// Draw `draws` scenarios through both paths from the same seed and require
/// identical outputs and an RNG stream that stays in lockstep (the
/// interleaved next_u64 comparison fails on the first draw that consumes a
/// different number of variates).
void check_bit_identity(const AndOrGraph& g, std::uint64_t seed, int draws) {
  const ScenarioSampler sampler(g);
  EXPECT_EQ(sampler.node_count(), g.size());
  EXPECT_EQ(sampler.op_count(),
            sampler.gaussian_count() + sampler.fork_count());

  Rng legacy_rng(seed);
  Rng sampler_rng(seed);
  RunScenario legacy;
  RunScenario fast;
  for (int d = 0; d < draws; ++d) {
    draw_scenario(g, legacy_rng, legacy);
    sampler.draw_into(sampler_rng, fast);
    expect_scenarios_equal(legacy, fast);
    ASSERT_EQ(legacy_rng.next_u64(), sampler_rng.next_u64())
        << "RNG streams diverged after draw " << d;
  }
}

TEST(Sampler, BitIdenticalToDrawScenarioAtr) {
  check_bit_identity(apps::build_atr().graph, 42, 200);
}

TEST(Sampler, BitIdenticalToDrawScenarioMpeg) {
  check_bit_identity(apps::build_mpeg().graph, 7, 200);
}

TEST(Sampler, BitIdenticalToDrawScenarioSynthetic) {
  check_bit_identity(apps::build_synthetic().graph, 12345, 200);
}

TEST(Sampler, AllocatingDrawMatchesDrawInto) {
  const AndOrGraph& g = apps::build_atr().graph;
  const ScenarioSampler sampler(g);
  Rng a(99);
  Rng b(99);
  RunScenario into;
  for (int d = 0; d < 20; ++d) {
    const RunScenario fresh = sampler.draw(a);
    sampler.draw_into(b, into);
    expect_scenarios_equal(fresh, into);
  }
}

TEST(Sampler, CountsMatchGraphStructure) {
  const AndOrGraph& g = apps::build_atr().graph;
  const ScenarioSampler sampler(g);
  std::size_t gaussians = 0;
  std::size_t forks = 0;
  for (std::uint32_t v = 0; v < g.size(); ++v) {
    const Node& n = g.node(NodeId{v});
    if (n.kind == NodeKind::Computation && n.acet < n.wcet) ++gaussians;
    if (n.is_or_fork()) ++forks;
  }
  EXPECT_EQ(sampler.gaussian_count(), gaussians);
  EXPECT_EQ(sampler.fork_count(), forks);
}

TEST(Sampler, DegenerateNodesConsumeNoRandomness) {
  // acet == wcet tasks are baked into the template: a draw over a fully
  // degenerate graph must not advance the generator.
  AndOrGraph g;
  const NodeId a = g.add_task("a", SimTime::from_us(5), SimTime::from_us(5));
  const NodeId b = g.add_task("b", SimTime::from_us(9), SimTime::from_us(9));
  g.add_edge(a, b);

  const ScenarioSampler sampler(g);
  EXPECT_EQ(sampler.op_count(), 0u);
  Rng rng(31);
  const RunScenario sc = sampler.draw(rng);
  EXPECT_EQ(sc.actual[0], SimTime::from_us(5));
  EXPECT_EQ(sc.actual[1], SimTime::from_us(9));
  Rng untouched(31);
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

// add_or_edge already rejects probabilities outside (0,1], so corrupt
// weight tables can only come from direct Node mutation; the sampler's
// compile-time validation is the defense-in-depth replacing the per-draw
// checks of Rng::next_discrete. Build a valid fork, then corrupt it.
AndOrGraph valid_fork_graph() {
  AndOrGraph g;
  const NodeId fork = g.add_or("fork");
  const NodeId a = g.add_task("a", SimTime::from_us(2), SimTime::from_us(1));
  const NodeId b = g.add_task("b", SimTime::from_us(2), SimTime::from_us(1));
  g.add_or_edge(fork, a, 0.5);
  g.add_or_edge(fork, b, 0.5);
  return g;
}

TEST(Sampler, CompileRejectsNegativeForkWeight) {
  AndOrGraph g = valid_fork_graph();
  g.node(NodeId{0}).succ_prob[1] = -0.5;
  EXPECT_THROW(ScenarioSampler{g}, Error);
}

TEST(Sampler, CompileRejectsZeroWeightSum) {
  AndOrGraph g = valid_fork_graph();
  g.node(NodeId{0}).succ_prob.assign(2, 0.0);
  EXPECT_THROW(ScenarioSampler{g}, Error);
}

TEST(Sampler, CompileRejectsMissingProbabilities) {
  AndOrGraph g = valid_fork_graph();
  g.node(NodeId{0}).succ_prob.pop_back();
  EXPECT_THROW(ScenarioSampler{g}, Error);
}

// ---------------------------------------------------- sweep regression

/// Bit-exact SweepPoint comparison (EXPECT_EQ on doubles, not *_DOUBLE_EQ:
/// the sampler path promises identical floating-point results, not merely
/// close ones).
void expect_points_bit_identical(const SweepPoint& a, const SweepPoint& b) {
  EXPECT_EQ(a.deadline, b.deadline);
  EXPECT_EQ(a.worst_makespan, b.worst_makespan);
  EXPECT_EQ(a.degenerate_runs, b.degenerate_runs);
  EXPECT_EQ(a.npm_energy.count(), b.npm_energy.count());
  EXPECT_EQ(a.npm_energy.mean(), b.npm_energy.mean());
  EXPECT_EQ(a.npm_energy.variance(), b.npm_energy.variance());
  ASSERT_EQ(a.stats.size(), b.stats.size());
  for (std::size_t s = 0; s < a.stats.size(); ++s) {
    const SchemeStats& x = a.stats[s];
    const SchemeStats& y = b.stats[s];
    EXPECT_EQ(x.scheme, y.scheme);
    EXPECT_EQ(x.norm_energy.mean(), y.norm_energy.mean());
    EXPECT_EQ(x.norm_energy.variance(), y.norm_energy.variance());
    EXPECT_EQ(x.speed_changes.mean(), y.speed_changes.mean());
    EXPECT_EQ(x.finish_frac.mean(), y.finish_frac.mean());
    EXPECT_EQ(x.busy_frac.mean(), y.busy_frac.mean());
    EXPECT_EQ(x.overhead_frac.mean(), y.overhead_frac.mean());
    EXPECT_EQ(x.idle_frac.mean(), y.idle_frac.mean());
    EXPECT_EQ(x.deadline_misses, y.deadline_misses);
    EXPECT_EQ(x.verify_failures, y.verify_failures);
  }
}

/// run_point (precompiled sampler + inline run accounting) must reproduce
/// the serial reference (per-run draw_scenario + the reference simulator)
/// bit-for-bit on the paper's fig4a workload — ATR on
/// the Transmeta table, two CPUs — across multiple loads and thread
/// counts.
TEST(Sampler, SweepBitIdenticalToLegacyFig4a) {
  const Application app = apps::build_atr();
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.table = LevelTable::transmeta_tm5400();
  cfg.runs = 200;
  cfg.seed = 42;

  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(pm.table()));

  for (const double load : {0.5, 0.8}) {
    const SimTime deadline{static_cast<std::int64_t>(
        std::ceil(static_cast<double>(w.ps) / load))};
    const SweepPoint ref = reference_point(app, cfg, deadline, load);
    for (const int threads : {1, 3}) {
      cfg.threads = threads;
      expect_points_bit_identical(run_point(app, cfg, deadline, load), ref);
    }
  }
}

}  // namespace
}  // namespace paserta
