// One-run front end of the simulation kernel (paper §3.2, Figure 2).
//
// simulate() runs one scenario of one scheme: it copies the RunScenario
// into lane 0 of a one-lane ScenarioBatch and runs the kernel of
// sim/batch_engine.h once, so there is one dispatch loop in the library
// whichever entry point a caller uses. The dispatch rules, overheads and
// energy accounting are described there.
//
// The engine keeps no heap state of its own: every per-run buffer lives in
// a caller-owned SimWorkspace that is reused — not reallocated — between
// runs. Trace recording is opt-in via SimOptions::record_trace; the
// convenience overloads without a workspace record traces (the verifier,
// Gantt/SVG tools and tests consume them).
#pragma once

#include <vector>

#include "core/offline.h"
#include "core/policy.h"
#include "graph/program.h"
#include "obs/metrics.h"
#include "power/power_model.h"
#include "sim/batch_engine.h"
#include "sim/sampler.h"
#include "sim/scenario.h"

namespace paserta {

/// Per-run simulation knobs.
struct SimOptions {
  /// Record one TaskRecord per dispatched node into SimResult::trace.
  /// Only the trace verifier, the Gantt/SVG renderers and the trace
  /// analytics need traces; aggregate-only consumers turn this off to keep
  /// the hot loop allocation-free.
  bool record_trace = true;
  /// Debug completeness check: after the run, recompute the taken-path
  /// closure with a full graph traversal (executed_set) and require that
  /// exactly that many nodes were dispatched. The kernel always enforces
  /// the cheap inline equivalent (an empty ready queue and no
  /// partially-released node at the end), so this second walk is pure
  /// defense-in-depth; the convenience simulate() overloads turn it on.
  bool check_completeness = false;
  /// Optional telemetry sink: when set, the run's dispatch counts, DVS
  /// activity, reclaimed-slack time and energy-attribution ledger
  /// (per-level busy/compute picoseconds, per-pair transition counts, idle
  /// picoseconds) are added into the struct (plain accumulation, no
  /// synchronization — the cell must be owned by the calling thread). Null
  /// keeps the hot path increment-free.
  SimCounters* counters = nullptr;
  /// Self-audit: after the run, assert the integer time-conservation
  /// invariant of the attribution ledger — the per-level busy and
  /// speed-computation picoseconds plus (transition count x switch time)
  /// must equal the summed per-CPU busy time exactly. Off by default; the
  /// harness audit path (ExperimentConfig::audit) additionally rebuilds
  /// the energies from exported counters via attribution_energy().
  bool audit = false;
};

/// Reusable scratch space of simulate(): the kernel's workspace and the
/// one-lane scenario slab the run is copied into. One workspace serves one
/// simulation at a time (one per worker thread); buffers grow to the
/// high-water mark of the runs they serve and are then reused without
/// touching the allocator. Construct the object and pass it to simulate().
struct SimWorkspace {
  BatchWorkspace kernel;
  ScenarioBatch batch;
};

/// Simulates one run. `off` must come from analyze_offline on the same
/// application with the same CPU count; `off.feasible()` should hold for
/// the deadline guarantee to apply (the engine still runs otherwise and
/// reports deadline_met = false when it misses). `policy` must have been
/// reset for this run. The workspace overload is the hot-loop entry point:
/// it performs no heap allocation once the workspace buffers have reached
/// their steady-state sizes.
SimResult simulate(const Application& app, const OfflineResult& off,
                   const PowerModel& pm, const Overheads& overheads,
                   SpeedPolicy& policy, const RunScenario& scenario,
                   SimWorkspace& workspace, const SimOptions& options = {});

/// Convenience: simulate with a one-shot internal workspace, recording a
/// full trace and running the debug completeness traversal (used by tools
/// and tests).
SimResult simulate(const Application& app, const OfflineResult& off,
                   const PowerModel& pm, const Overheads& overheads,
                   SpeedPolicy& policy, const RunScenario& scenario);

/// Convenience: build the policy for `scheme`, reset it, and simulate.
SimResult simulate(const Application& app, const OfflineResult& off,
                   const PowerModel& pm, const Overheads& overheads,
                   Scheme scheme, const RunScenario& scenario);

/// The set of nodes that execute under the given fork choices (taken-path
/// closure from the sources). Exposed for the verifier and tests.
std::vector<bool> executed_set(const AndOrGraph& g, const RunScenario& sc);

/// Energy split rebuilt from an attribution ledger (see SimCounters).
struct EnergySplit {
  Energy busy = 0.0;
  Energy overhead = 0.0;
  Energy idle = 0.0;
  Energy total() const { return busy + overhead + idle; }
};

/// Folds an exported attribution ledger back into joules through the power
/// table. This is the kernel's own end-of-run energy computation (the same
/// fold, on the same integers, in the same order), so for a single run's
/// counters the result equals SimResult::busy_energy / overhead_energy /
/// idle_energy bit-for-bit — the invariant audit mode checks. `c.levels`
/// must match `pm`'s level table and `ovh` must be the Overheads the run
/// used. Counters summed over many runs of one (power model, overheads)
/// configuration fold to the same-order energy totals.
EnergySplit attribution_energy(const SimCounters& c, const PowerModel& pm,
                               const Overheads& ovh);

}  // namespace paserta
