// Reference simulator: the oracle the simulation kernel
// (sim/batch_engine.h) is checked against. It is deliberately simple and
// shares no code with the kernel: it walks the graph's Node structs, keeps
// the ready queue as a sorted set of (EO, node id), the outstanding
// completions as a sorted set of (finish, sequence number), asks the
// policy object for its floor through floor_freq()/on_or_fired(), picks
// the speed as the paper states it — quantize_up(max(required_freq,
// floor)) — scales durations with scale_time, and folds its integer
// ledger into joules through attribution_energy(). Speed is not a goal.
//
// Dispatch rules (paper §3.2, Figure 2): a processor takes the queue head
// when its EO equals the next expected order NEO (an OR node may jump
// ahead); otherwise it sleeps until a completion or a newly dispatchable
// head wakes it. Dummy nodes run in zero time on the dispatching
// processor, which then keeps dispatching at the same instant. Ties break
// by processor index, then by dispatch sequence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/offline.h"
#include "core/policy.h"
#include "graph/program.h"
#include "obs/metrics.h"
#include "power/power_model.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace paserta {

/// Simulates one run of `sc` under `policy`, which must have been reset
/// for this run (AS's floor changes as OR nodes fire). Always records the
/// trace. When `counters` is set, the run's counters and attribution
/// ledger are added into it.
inline SimResult reference_simulate(const Application& app,
                                    const OfflineResult& off,
                                    const PowerModel& pm,
                                    const Overheads& ovh, SpeedPolicy& policy,
                                    const RunScenario& sc,
                                    SimCounters* counters = nullptr) {
  const AndOrGraph& g = app.graph;
  const LevelTable& table = pm.table();
  const std::size_t n = g.size();
  const std::size_t nlevels = table.size();
  const Freq f_max = table.f_max();
  const bool dynamic = policy.kind() == SpeedPolicy::Kind::Dynamic;
  const int ncpus = off.cpus();

  // Unfinished predecessors per node: an OR node fires on its first finished
  // predecessor, every other node waits for all of them.
  std::vector<std::size_t> nup(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    const Node& node = g.node(NodeId{v});
    nup[v] = node.kind == NodeKind::OrNode
                 ? std::min<std::size_t>(1, node.preds.size())
                 : node.preds.size();
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> ready;  // (EO, id)
  // (finish ps, sequence, cpu, node)
  std::set<std::tuple<std::int64_t, std::uint64_t, int, std::uint32_t>>
      completions;
  std::vector<std::size_t> level(
      static_cast<std::size_t>(ncpus),
      dynamic ? nlevels - 1 : policy.static_level());
  std::vector<bool> sleeping(static_cast<std::size_t>(ncpus), false);
  std::vector<SimTime> busy(static_cast<std::size_t>(ncpus));
  std::uint32_t neo = 0;
  std::uint64_t seq = 0;
  SimTime last_activity{};

  SimResult r;
  SimCounters c;
  c.levels = static_cast<std::uint32_t>(nlevels);
  c.busy_ps.assign(nlevels, 0);
  c.compute_ps.assign(nlevels, 0);
  c.transitions.assign(nlevels * nlevels, 0);

  const auto make_ready = [&](std::uint32_t v) {
    ready.emplace(off.eo(NodeId{v}), v);
  };
  const auto release_successors = [&](std::uint32_t v) {
    for (NodeId s : g.node(NodeId{v}).succs) {
      PASERTA_ASSERT(nup[s.value] > 0, "reference: NUP underflow");
      if (--nup[s.value] == 0) make_ready(s.value);
    }
  };
  const auto head_dispatchable = [&] {
    if (ready.empty()) return false;
    const auto [eo, v] = *ready.begin();
    return eo == neo ||
           (eo > neo && g.node(NodeId{v}).kind == NodeKind::OrNode);
  };

  const auto dispatch = [&](auto& self, int cpu, SimTime t) -> void {
    const auto ci = static_cast<std::size_t>(cpu);
    for (;;) {
      if (!head_dispatchable()) {
        sleeping[ci] = true;
        return;
      }
      const auto [eo, v] = *ready.begin();
      ready.erase(ready.begin());
      const NodeId id{v};
      const Node& node = g.node(id);
      neo = eo + 1;
      ++r.dispatched;
      ++c.dispatches;
      last_activity = std::max(last_activity, t);

      if (node.is_dummy()) {
        int chosen_alt = -1;
        if (node.is_or_fork()) {
          chosen_alt = sc.or_choice.at(v);
          ++c.or_fires;
          const NodeId child =
              node.succs.at(static_cast<std::size_t>(chosen_alt));
          nup[child.value] = 0;
          make_ready(child.value);
          if (dynamic) policy.on_or_fired(id, chosen_alt, t, off, pm);
        } else {
          release_successors(v);
          if (node.kind == NodeKind::OrNode && dynamic)
            policy.on_or_fired(id, -1, t, off, pm);
        }
        TaskRecord rec;
        rec.node = id;
        rec.cpu = cpu;
        rec.eo = eo;
        rec.dispatch_time = rec.exec_start = rec.finish = t;
        rec.level = rec.level_before = level[ci];
        rec.chosen_alt = chosen_alt;
        r.trace.push_back(rec);
        continue;
      }

      SimTime start = t;
      const std::size_t before = level[ci];
      bool switched = false;
      if (dynamic) {
        // Speed computation at the current level, then the greedy speed
        // for the slack up to EET (reserving a switch), raised to the
        // policy's floor.
        const SimTime compute =
            cycles_to_time(ovh.speed_compute_cycles, table.level(before).freq);
        c.compute_ps[before] += static_cast<std::uint64_t>(compute.ps);
        busy[ci] += compute;
        start += compute;
        const SimTime avail = off.eet(id) - start - ovh.speed_change_time;
        const Freq greedy = required_freq(f_max, node.wcet, avail);
        const Freq floor = policy.floor_freq(start);
        const std::size_t chosen = table.quantize_up(std::max(greedy, floor));
        if (floor > greedy) ++c.spec_picks;
        else ++c.greedy_picks;
        if (chosen != before) {
          ++c.transitions[before * nlevels + chosen];
          busy[ci] += ovh.speed_change_time;
          start += ovh.speed_change_time;
          ++r.speed_changes;
          ++c.speed_changes;
          switched = true;
          level[ci] = chosen;
        }
      }
      const SimTime actual = sc.actual.at(v);
      PASERTA_ASSERT(actual > SimTime::zero() && actual <= node.wcet,
                     "reference: actual time out of (0, WCET]");
      const SimTime duration =
          scale_time(actual, f_max, table.level(level[ci]).freq);
      const SimTime finish = start + duration;
      c.busy_ps[level[ci]] += static_cast<std::uint64_t>(duration.ps);
      busy[ci] += duration;
      ++c.tasks;
      c.reclaimed_slack_ps += static_cast<std::uint64_t>((duration - actual).ps);

      TaskRecord rec;
      rec.node = id;
      rec.cpu = cpu;
      rec.eo = eo;
      rec.dispatch_time = t;
      rec.exec_start = start;
      rec.finish = finish;
      rec.level = level[ci];
      rec.level_before = before;
      rec.switched = switched;
      r.trace.push_back(rec);
      completions.emplace(finish.ps, seq++, cpu, v);

      // Signal the first sleeping processor if the new head can go.
      if (head_dispatchable()) {
        for (int other = 0; other < ncpus; ++other) {
          if (sleeping[static_cast<std::size_t>(other)]) {
            sleeping[static_cast<std::size_t>(other)] = false;
            self(self, other, t);
            break;
          }
        }
      }
      return;
    }
  };

  for (std::uint32_t v = 0; v < n; ++v)
    if (nup[v] == 0) make_ready(v);
  for (int cpu = 0; cpu < ncpus; ++cpu)
    if (!sleeping[static_cast<std::size_t>(cpu)])
      dispatch(dispatch, cpu, SimTime::zero());
  while (!completions.empty()) {
    const auto [finish_ps, s, cpu, v] = *completions.begin();
    completions.erase(completions.begin());
    const SimTime finish{finish_ps};
    last_activity = std::max(last_activity, finish);
    release_successors(v);
    dispatch(dispatch, cpu, finish);
  }
  PASERTA_ASSERT(ready.empty(), "reference: run ended with ready work");

  r.finish_time = last_activity;
  r.deadline_met = r.finish_time <= off.deadline();
  for (const SimTime b : busy) {
    const SimTime idle = off.deadline() - b;
    if (idle > SimTime::zero()) c.idle_ps += static_cast<std::uint64_t>(idle.ps);
  }
  const EnergySplit e = attribution_energy(c, pm, ovh);
  r.busy_energy = e.busy;
  r.overhead_energy = e.overhead;
  r.idle_energy = e.idle;
  if (counters != nullptr) counters->add(c);
  return r;
}

}  // namespace paserta
