#include "sim/engine.h"

#include <algorithm>
#include <span>

#include "common/error.h"

namespace paserta {
namespace {

/// The canonical ledger-to-joules fold is: per-level busy times ascending,
/// per-level compute times ascending, then non-zero transition pairs in
/// ascending flat index (== row-major) order, then idle. Both the kernel's
/// end-of-run energy computation (sim/batch_engine.cpp) and the public
/// attribution_energy() build their sums from these pieces in that order,
/// so an exported ledger folds back to the kernel's energies bit-for-bit
/// by construction. The kernel walks its sorted touched-entry lists
/// instead of scanning the L x L matrix — the visit sequence (the non-zero
/// entries, ascending) and hence the FP sum are identical.
double fold_levels(std::span<const std::uint64_t> ps,
                   std::span<const Energy> power) {
  double joules = 0.0;
  for (std::size_t l = 0; l < power.size(); ++l) {
    if (ps[l] != 0)
      joules += power[l] * SimTime{static_cast<std::int64_t>(ps[l])}.sec();
  }
  return joules;
}

double transition_energy(std::size_t idx, std::uint64_t count,
                         std::span<const Energy> power, double switch_sec) {
  const std::size_t from = idx / power.size();
  const std::size_t to = idx % power.size();
  return static_cast<double>(count) * std::max(power[from], power[to]) *
         switch_sec;
}

EnergySplit fold_ledger(std::span<const std::uint64_t> busy_ps,
                        std::span<const std::uint64_t> compute_ps,
                        std::span<const std::uint64_t> transitions,
                        std::uint64_t idle_ps, const PowerModel& pm,
                        const Overheads& ovh) {
  const std::span<const Energy> power = pm.level_powers();
  const double switch_sec = ovh.speed_change_time.sec();
  EnergySplit split;
  split.busy = fold_levels(busy_ps, power);
  split.overhead = fold_levels(compute_ps, power);
  for (std::size_t idx = 0; idx < transitions.size(); ++idx) {
    if (transitions[idx] != 0)
      split.overhead +=
          transition_energy(idx, transitions[idx], power, switch_sec);
  }
  if (idle_ps != 0)
    split.idle = pm.idle_energy(SimTime{static_cast<std::int64_t>(idle_ps)});
  return split;
}

}  // namespace

EnergySplit attribution_energy(const SimCounters& c, const PowerModel& pm,
                               const Overheads& ovh) {
  const std::size_t n = pm.table().size();
  PASERTA_REQUIRE(c.levels == n,
                  "attribution ledger recorded against "
                      << c.levels << " levels, power model has " << n);
  PASERTA_REQUIRE(c.busy_ps.size() == n && c.compute_ps.size() == n &&
                      c.transitions.size() == n * n,
                  "attribution ledger shape does not match its level count");
  return fold_ledger(c.busy_ps, c.compute_ps, c.transitions, c.idle_ps, pm,
                     ovh);
}

std::vector<bool> executed_set(const AndOrGraph& g, const RunScenario& sc) {
  std::vector<std::uint32_t> nup(g.size());
  std::vector<bool> executed(g.size(), false);
  std::vector<NodeId> stack;
  for (NodeId id : g.all_nodes()) {
    const Node& n = g.node(id);
    nup[id.value] =
        n.kind == NodeKind::OrNode
            ? std::min<std::uint32_t>(
                  1, static_cast<std::uint32_t>(n.preds.size()))
            : static_cast<std::uint32_t>(n.preds.size());
    if (nup[id.value] == 0) stack.push_back(id);
  }
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (executed[id.value]) continue;
    executed[id.value] = true;
    const Node& n = g.node(id);
    if (n.is_or_fork()) {
      const int chosen = sc.choice_of(id);
      stack.push_back(n.succs[static_cast<std::size_t>(chosen)]);
    } else {
      for (NodeId s : n.succs) {
        if (nup[s.value] > 0 && --nup[s.value] == 0) stack.push_back(s);
      }
    }
  }
  return executed;
}

SimResult simulate(const Application& app, const OfflineResult& off,
                   const PowerModel& pm, const Overheads& overheads,
                   SpeedPolicy& policy, const RunScenario& scenario,
                   SimWorkspace& workspace, const SimOptions& options) {
  const std::size_t n = app.graph.size();
  PASERTA_REQUIRE(scenario.actual.size() == n && scenario.or_choice.size() == n,
                  "scenario size does not match the application graph");
  ScenarioBatch& batch = workspace.batch;
  batch.ensure(1, n);
  std::copy_n(scenario.actual.data(), n, batch.lane_actual(0));
  std::copy_n(scenario.or_choice.data(), n, batch.lane_choice(0));
  BatchSimOptions bo;
  bo.record_trace = options.record_trace;
  bo.audit = options.audit;
  bo.shared_cell = options.counters;
  SimResult r;
  simulate_batch(app, off, pm, overheads, policy, batch, 1, workspace.kernel,
                 &r, bo);
  if (options.check_completeness) {
    // Debug-only second opinion: recompute the closure from scratch.
    const std::vector<bool> executed = executed_set(app.graph, scenario);
    const auto expected = static_cast<std::uint32_t>(
        std::count(executed.begin(), executed.end(), true));
    PASERTA_ASSERT(r.dispatched == expected,
                   "simulation dispatched " << r.dispatched << " of "
                                            << expected
                                            << " expected nodes (deadlock?)");
  }
  return r;
}

SimResult simulate(const Application& app, const OfflineResult& off,
                   const PowerModel& pm, const Overheads& overheads,
                   SpeedPolicy& policy, const RunScenario& scenario) {
  SimWorkspace workspace;
  SimOptions options;
  options.check_completeness = true;  // one-shot callers keep the full check
  return simulate(app, off, pm, overheads, policy, scenario, workspace,
                  options);
}

SimResult simulate(const Application& app, const OfflineResult& off,
                   const PowerModel& pm, const Overheads& overheads,
                   Scheme scheme, const RunScenario& scenario) {
  auto policy = make_policy(scheme);
  policy->reset(off, pm);
  return simulate(app, off, pm, overheads, *policy, scenario);
}

}  // namespace paserta
