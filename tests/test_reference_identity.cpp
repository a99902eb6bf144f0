// Independent property suite for the simulation kernel: over a few hundred
// generated AND/OR programs (apps::random_application and
// apps::layered_application), every scheme and a FixedLevelPolicy pinned
// at every level must give bit-identical runs from three entry points —
// the reference simulator (tests/reference_engine.h), the one-lane
// simulate() and simulate_batch at 1, 7 and 32 lanes — and every run must
// keep the paper's guarantee and the ledger's books:
//
//  * no scheme misses when the deadline is at least the canonical
//    worst-case makespan W (Theorem 1);
//  * the attribution ledger conserves time: busy + speed-computation +
//    transition picoseconds + idle picoseconds == CPUs x deadline for
//    every run that meets its deadline (no processor's busy time can then
//    exceed the deadline), and the kernel's audit mode asserts the integer
//    busy-time conservation on every lane.
//
// Platforms vary per program (1-4 CPUs, two voltage tables, both
// speculative roundings, loads from 0.35 to 1.0 plus some infeasible
// deadlines whose misses must still agree). Carries the batch_identity
// label, so the sanitizer job runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/layered.h"
#include "apps/random_app.h"
#include "core/offline.h"
#include "core/policy.h"
#include "power/power_model.h"
#include "reference_engine.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/sampler.h"

namespace paserta {
namespace {

constexpr std::size_t kScenarios = 33;  // one full 32-lane batch + 1
constexpr std::size_t kLaneWidths[] = {1, 7, 32};

/// First difference between two runs, or "" when they are bit-identical.
std::string diff_runs(const SimResult& a, const SimResult& b) {
  std::ostringstream os;
  if (a.busy_energy != b.busy_energy) os << "busy_energy ";
  if (a.overhead_energy != b.overhead_energy) os << "overhead_energy ";
  if (a.idle_energy != b.idle_energy) os << "idle_energy ";
  if (a.finish_time != b.finish_time) os << "finish_time ";
  if (a.speed_changes != b.speed_changes) os << "speed_changes ";
  if (a.dispatched != b.dispatched) os << "dispatched ";
  if (a.deadline_met != b.deadline_met) os << "deadline_met ";
  if (a.trace.size() != b.trace.size()) {
    os << "trace size " << a.trace.size() << " vs " << b.trace.size();
    return os.str();
  }
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const TaskRecord& x = a.trace[i];
    const TaskRecord& y = b.trace[i];
    if (x.node != y.node || x.cpu != y.cpu || x.eo != y.eo ||
        x.dispatch_time != y.dispatch_time || x.exec_start != y.exec_start ||
        x.finish != y.finish || x.level != y.level ||
        x.level_before != y.level_before || x.switched != y.switched ||
        x.chosen_alt != y.chosen_alt) {
      os << "trace record " << i;
      break;
    }
  }
  return os.str();
}

std::string diff_counters(const SimCounters& a, const SimCounters& b) {
  std::ostringstream os;
  if (a.dispatches != b.dispatches) os << "dispatches ";
  if (a.tasks != b.tasks) os << "tasks ";
  if (a.or_fires != b.or_fires) os << "or_fires ";
  if (a.speed_changes != b.speed_changes) os << "speed_changes ";
  if (a.spec_picks != b.spec_picks) os << "spec_picks ";
  if (a.greedy_picks != b.greedy_picks) os << "greedy_picks ";
  if (a.reclaimed_slack_ps != b.reclaimed_slack_ps) os << "reclaimed_slack ";
  if (a.levels != b.levels || a.busy_ps != b.busy_ps ||
      a.compute_ps != b.compute_ps || a.transitions != b.transitions)
    os << "ledger ";
  if (a.idle_ps != b.idle_ps) os << "idle_ps ";
  return os.str();
}

/// Runs every policy of one (program, platform) case through the three
/// entry points and checks identity, the no-miss guarantee and ledger
/// conservation. `load` > 1 makes the deadline infeasible (D < W).
/// The workspaces are reused across cases, so geometry changes (graph
/// size, CPU and level counts) are exercised too.
void check_case(const Application& app, const LevelTable& table, int cpus,
                double load, PolicyOptions popt, std::uint64_t seed,
                SimWorkspace& sws, BatchWorkspace& bws) {
  const PowerModel pm(table);
  const Overheads ovh;
  OfflineOptions oo;
  oo.cpus = cpus;
  oo.overhead_budget = ovh.worst_case_budget(table);
  const SimTime w =
      canonical_worst_makespan(app, cpus, oo.overhead_budget, oo.heuristic);
  oo.deadline = SimTime{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(w.ps) / load))};
  const OfflineResult off = analyze_offline(app, oo);
  const bool guaranteed = oo.deadline >= w;

  const ScenarioSampler sampler(app.graph);
  std::vector<RunScenario> scenarios(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    Rng rng(Rng::stream_seed(seed, i));
    sampler.draw_into(rng, scenarios[i]);
  }

  constexpr Scheme kSchemes[] = {Scheme::NPM, Scheme::SPM, Scheme::GSS,
                                 Scheme::SS1, Scheme::SS2, Scheme::AS};
  std::vector<std::pair<std::string, std::unique_ptr<SpeedPolicy>>> policies;
  for (Scheme s : kSchemes)
    policies.emplace_back(to_string(s), make_policy(s, popt));
  for (std::size_t lv = 0; lv < table.size(); ++lv)
    policies.emplace_back("FIXED@" + std::to_string(lv),
                          std::make_unique<FixedLevelPolicy>(lv));

  const std::size_t n = app.graph.size();
  ScenarioBatch batch;
  std::vector<SimResult> got(kScenarios);
  std::vector<SimCounters> got_cells(kScenarios);

  for (std::size_t p = 0; p < policies.size(); ++p) {
    const bool is_scheme = p < std::size(kSchemes);
    SpeedPolicy& policy = *policies[p].second;
    SCOPED_TRACE(testing::Message() << "policy " << policies[p].first);

    std::vector<SimResult> want(kScenarios);
    std::vector<SimCounters> want_cells(kScenarios);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      policy.reset(off, pm);
      want[i] = reference_simulate(app, off, pm, ovh, policy, scenarios[i],
                                   &want_cells[i]);
      if (guaranteed && is_scheme) {
        ASSERT_TRUE(want[i].deadline_met) << "scenario " << i;
      }
      if (want[i].deadline_met) {
        const SimCounters& c = want_cells[i];
        std::uint64_t ledger_ps = c.idle_ps;
        for (std::size_t lv = 0; lv < c.levels; ++lv)
          ledger_ps += c.busy_ps[lv] + c.compute_ps[lv];
        for (const std::uint64_t k : c.transitions)
          ledger_ps += k * static_cast<std::uint64_t>(ovh.speed_change_time.ps);
        ASSERT_EQ(ledger_ps, static_cast<std::uint64_t>(cpus) *
                                 static_cast<std::uint64_t>(off.deadline().ps))
            << "scenario " << i;
      }

      policy.reset(off, pm);
      SimCounters one_cell;
      SimOptions so;
      so.audit = true;
      so.counters = &one_cell;
      const SimResult one =
          simulate(app, off, pm, ovh, policy, scenarios[i], sws, so);
      ASSERT_EQ(diff_runs(want[i], one), "") << "simulate(), scenario " << i;
      ASSERT_EQ(diff_counters(want_cells[i], one_cell), "")
          << "simulate(), scenario " << i;
    }

    policy.reset(off, pm);
    for (const std::size_t width : kLaneWidths) {
      for (std::size_t first = 0; first < kScenarios; first += width) {
        const std::size_t lanes = std::min(width, kScenarios - first);
        batch.ensure(lanes, n);
        for (std::size_t l = 0; l < lanes; ++l) {
          std::copy_n(scenarios[first + l].actual.data(), n,
                      batch.lane_actual(l));
          std::copy_n(scenarios[first + l].or_choice.data(), n,
                      batch.lane_choice(l));
        }
        for (std::size_t l = 0; l < lanes; ++l) got_cells[l] = SimCounters{};
        BatchSimOptions bo;
        bo.record_trace = true;
        bo.audit = true;
        bo.lane_cells = got_cells.data();
        simulate_batch(app, off, pm, ovh, policy, batch, lanes, bws,
                       got.data(), bo);
        for (std::size_t l = 0; l < lanes; ++l) {
          ASSERT_EQ(diff_runs(want[first + l], got[l]), "")
              << "simulate_batch width " << width << ", scenario "
              << first + l;
          ASSERT_EQ(diff_counters(want_cells[first + l], got_cells[l]), "")
              << "simulate_batch width " << width << ", scenario "
              << first + l;
        }
      }
    }
  }
}

double load_for(std::uint64_t seed) {
  // Mostly feasible loads; every ninth case runs past the canonical
  // makespan (D < W) so the miss path is cross-checked too.
  if (seed % 9 == 4) return 1.25;
  constexpr double kLoads[] = {0.35, 0.5, 0.7, 0.85, 1.0};
  return kLoads[seed % 5];
}

PolicyOptions popt_for(std::uint64_t seed) {
  PolicyOptions popt;
  popt.spec_rounding = seed % 2 == 0 ? PolicyOptions::SpecRounding::Up
                                     : PolicyOptions::SpecRounding::Down;
  return popt;
}

LevelTable table_for(std::uint64_t seed) {
  return seed % 3 == 2 ? LevelTable::intel_xscale()
                       : LevelTable::transmeta_tm5400();
}

TEST(ReferenceIdentity, RandomApplications) {
  SimWorkspace sws;
  BatchWorkspace bws;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    apps::RandomAppConfig cfg;
    cfg.max_depth = 1 + static_cast<int>(seed % 3);
    cfg.max_segments = 3 + static_cast<int>(seed % 3);
    Rng rng(0x5EED0000 + seed);
    const Application app = apps::random_application(
        rng, cfg, "random" + std::to_string(seed));
    const int cpus = 1 + static_cast<int>(seed % 4);
    SCOPED_TRACE(testing::Message() << "random app seed " << seed << ", "
                                    << cpus << " CPUs, load "
                                    << load_for(seed));
    check_case(app, table_for(seed), cpus, load_for(seed), popt_for(seed),
               seed, sws, bws);
    if (HasFatalFailure()) return;
  }
}

TEST(ReferenceIdentity, LayeredApplications) {
  SimWorkspace sws;
  BatchWorkspace bws;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    apps::LayeredConfig cfg;
    cfg.layers = 2 + static_cast<int>(seed % 4);
    cfg.max_width = 3 + static_cast<int>(seed % 4);
    Rng rng(0x1A7E0000 + seed);
    const Application app = apps::layered_application(
        rng, cfg, 1 + static_cast<int>(seed % 3), 0.3,
        "layered" + std::to_string(seed));
    const int cpus = 1 + static_cast<int>((seed / 2) % 4);
    SCOPED_TRACE(testing::Message() << "layered app seed " << seed << ", "
                                    << cpus << " CPUs, load "
                                    << load_for(seed));
    check_case(app, table_for(seed), cpus, load_for(seed), popt_for(seed),
               seed, sws, bws);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace paserta
