// The simulation kernel: the paper's online dispatch loop (§3.2, Figure 2)
// with each scheme's speed choice (§3-4), run over B scenarios of one
// compiled graph in lockstep (DESIGN.md §14). It is the only dispatch
// loop in the library: simulate() (sim/engine.h) is this kernel at one
// lane.
//
// Identical processors share a global ready queue kept in canonical
// execution order (EO). Each idle processor tries to dequeue the head; a
// computation node may be taken only when its EO equals the next expected
// order NEO (OR nodes may jump ahead — their EO skips untaken
// alternatives). Processors that find the head non-dispatchable sleep and
// are signalled when new work at the head becomes dispatchable. Dummy
// AND/OR nodes execute in zero time on the dispatching processor. For
// computation nodes the kernel charges the speed-computation overhead,
// picks the policy's level (greedy slack reclamation against the task's
// estimated end time EET, optionally raised to a speculative floor),
// charges a voltage transition when the level changes, and runs the task
// for actual_time * f_max / f. Energy is integrated over [0, deadline].
//
// Every per-run fixed cost — input validation, the policy's rule as level
// indices, the per-level overhead and reciprocal tables, the initial ready
// set, the AS remaining-work tables — lives in an immutable KernelPlan,
// built once per (point, scheme) by the harness and reused by every call,
// and all per-run mutable state lives in lane-major structure-of-arrays
// slabs (64-byte aligned, one contiguous row per lane): NUP counters, the
// ready set, outstanding completions, per-CPU levels and busy clocks, and
// the energy-attribution ledger. Lanes are independent and every
// per-lane step is exact integer arithmetic, so a lane's result does not
// depend on the lane count; the end-of-run energy is the canonical ledger
// fold shared with attribution_energy(). The tests check the kernel
// against a deliberately simple reference engine (tests/reference_engine.h)
// that shares none of this code.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "core/offline.h"
#include "core/policy.h"
#include "graph/program.h"
#include "obs/metrics.h"
#include "power/power_model.h"
#include "sim/sampler.h"

namespace paserta {

/// Trace record of one dispatched node.
struct TaskRecord {
  NodeId node;
  int cpu = -1;
  std::uint32_t eo = 0;
  SimTime dispatch_time{};  // when dequeued (Figure 2 step 4)
  SimTime exec_start{};     // after overheads
  SimTime finish{};
  std::size_t level = 0;        // level index the task ran at
  std::size_t level_before = 0; // processor's level at dispatch time
  bool switched = false;        // a voltage transition was charged
  int chosen_alt = -1;      // OR forks: selected alternative
};

/// Result of one simulated run of one scheme.
struct SimResult {
  Energy busy_energy = 0.0;        // task execution
  Energy overhead_energy = 0.0;    // speed computation + transitions
  Energy idle_energy = 0.0;        // idle/sleep until the deadline
  SimTime finish_time{};
  std::uint32_t speed_changes = 0;
  std::uint32_t dispatched = 0;
  bool deadline_met = false;
  std::vector<TaskRecord> trace;   // empty unless traces were recorded

  Energy total_energy() const {
    return busy_energy + overhead_energy + idle_energy;
  }
};

/// Batch-wide simulation knobs.
struct BatchSimOptions {
  /// Record one TaskRecord per dispatched node into each lane's
  /// SimResult::trace (audit mode needs per-run traces).
  bool record_trace = false;
  /// Per-lane self-audit: assert the attribution ledger's integer
  /// time-conservation invariant at every lane's end of run.
  bool audit = false;
  /// Per-lane telemetry cells, an array of at least `lanes` entries: lane
  /// l's dispatch counts, DVS activity, reclaimed slack and attribution
  /// ledger are added into lane_cells[l] (plain accumulation: the cells
  /// must be owned by the calling thread). Null = see shared_cell.
  SimCounters* lane_cells = nullptr;
  /// Shared telemetry cell used when lane_cells is null: all lanes export
  /// into it in lane order (integer adds — totals match per-run export).
  /// Null = counting off.
  SimCounters* shared_cell = nullptr;
  /// Phase profiler (obs/prof.h): when set, simulate_batch charges its
  /// per-batch setup (slab reset; the plan build too when it builds one)
  /// to ph_setup and the lockstep dispatch loop to ph_drain, on `slot`.
  /// Write-only like every obs hook — outputs are bit-identical with it
  /// on or off. Null = two pointer tests per batch.
  Profiler* prof = nullptr;
  int ph_setup = -1;
  int ph_drain = -1;
  int slot = 0;
};

/// One simulation kernel input compiled once: an (application, offline
/// result, power model, overheads) tuple with a reset policy's rule. It
/// holds the validated rule as level indices and every table the kernel
/// derives from those inputs — the per-level compute-overhead and
/// reciprocal tables, the initial ready set, the AS remaining-work tables —
/// so a simulate_batch call on it only resets lane state. Immutable once
/// built: any number of threads may run one plan at once. It refers to
/// (does not copy) the application, offline result and power model, which
/// must outlive it. Treat the members as engine-internal.
class KernelPlan {
 public:
  KernelPlan() = default;
  /// Builds the plan of `policy`, which must have been reset against
  /// (off, pm); the kernel reads its rule() here and never again. `off`
  /// must come from analyze_offline on the same application with the same
  /// CPU count.
  KernelPlan(const Application& app, const OfflineResult& off,
             const PowerModel& pm, const Overheads& overheads,
             const SpeedPolicy& policy) {
    assign(app, off, pm, overheads, policy);
  }
  /// Rebuilds the plan in place, reusing its buffers (and its per-level
  /// tables when the level frequencies and the compute cycles are the same
  /// values as before).
  void assign(const Application& app, const OfflineResult& off,
              const PowerModel& pm, const Overheads& overheads,
              const SpeedPolicy& policy);

  /// Whether this plan produces exactly the results, traces and counters of
  /// `other` on every scenario. Both plans must have been built from the
  /// same (application, offline result, power model, overheads); then only
  /// the rules can differ, and two rules agree when they have the same form
  /// and the same initial level and floor levels — and the same switch
  /// point theta where the two floors differ, and the same rounding for AS.
  bool same_rule(const KernelPlan& other) const;

  // --- Everything below is internal to sim/batch_engine.cpp. ---

  // Inputs: tables of the application and offline result.
  std::span<const Node> nodes;
  std::span<const std::uint32_t> eo;
  std::span<const SimTime> eet;
  std::span<const std::uint32_t> nup_init;
  std::span<const std::uint8_t> flags;
  std::span<const SimTime> wcet;
  std::span<const std::uint32_t> succ_off;
  std::span<const std::uint32_t> succ_flat;
  std::span<const std::uint32_t> sources;
  std::span<const Level> levels;
  std::span<const Energy> power;
  const PowerModel* pm = nullptr;
  const LevelTable* table = nullptr;
  Freq f_max = 0;
  SimTime deadline{};
  SimTime switch_time{};
  std::uint32_t ncpus = 0;
  std::uint32_t top_lvl = 0;  // levels.size() - 1
  std::uint32_t nwords = 0;   // ready-bitmap words in use

  // The rule as level indices (valid per form).
  SpeedRule::Form form = SpeedRule::Form::Static;
  std::uint32_t initial_level = 0;
  std::uint32_t spec_low_lvl = 0;
  std::uint32_t spec_high_lvl = 0;
  std::int64_t spec_theta_ps = 0;
  PolicyOptions::SpecRounding rounding = PolicyOptions::SpecRounding::Up;

  // Per-level speed-computation overhead cycles_to_time(cycles, freq).
  std::vector<SimTime> dt_compute;
  std::uint32_t dt_cycles = 0;
  // Exact division-free duration scaling: for each level,
  // ceil(actual * f_max / freq) via a 2^64 reciprocal plus a <=2-step
  // fixup — the identical quotient of scale_time's u64 fast path.
  struct LevelDiv {
    std::uint64_t magic = 0;  // floor(2^64 / freq)
    std::uint64_t den1 = 0;   // freq - 1 (ceil rounding addend)
    Freq freq = 0;
  };
  std::vector<LevelDiv> level_div;
  std::uint64_t actual_limit = 0; // max actual with actual*f_max+den-1 in u64
  // Initial ready-set bitmap (source bits, copied into every lane) and the
  // AS remaining-work tables (empty for the other forms).
  std::vector<std::uint64_t> ready_init_words;
  std::vector<SimTime> as_rem_after;   // per-node E[remaining] (AS)
  std::vector<const SimTime*> as_alt;  // per-node fork alt table (AS)
};

/// Reusable lane-major SoA state of simulate_batch. All mutable per-lane
/// arrays live here as contiguous slabs with cache-line-aligned rows;
/// buffers grow to the high-water mark and are reused. Treat the members
/// as engine-internal: construct once per worker and pass to
/// simulate_batch.
class BatchWorkspace {
 public:
  BatchWorkspace() = default;

  // --- Everything below is internal to sim/batch_engine.cpp. ---

  /// Grows the slabs for `lanes` lanes of an `nodes`-node graph on `cpus`
  /// processors and `levels` voltage levels. Zeroes the ledger slabs when
  /// the geometry changes (rows remap under new strides, so stale values
  /// from a previous geometry must not survive).
  void ensure(std::size_t lanes, std::size_t nodes, std::size_t cpus,
              std::size_t levels, bool trace);

  template <typename T>
  using Slab = std::vector<T, CacheAlignedAlloc<T>>;

  // Geometry of the current slabs.
  std::size_t lanes = 0, nodes = 0, cpus = 0, levels = 0;
  std::size_t sn = 0;   // per-lane stride of node-indexed u32/u64 rows
  std::size_t sc = 0;   // per-lane stride of cpu-indexed rows
  std::size_t sl = 0;   // per-lane stride of level-indexed rows
  std::size_t sll = 0;  // per-lane stride of (level x level) rows
  std::size_t sw = 0;   // per-lane stride of ready-bitmap words

  // Per-lane node state. The ready set is a bitmap over execution order:
  // on any single run path EO values are unique (EO ranges only overlap
  // across mutually exclusive OR alternatives), so "lowest set bit" is
  // exactly the sorted (EO, id) pop order, with O(1) insert.
  // ready_node maps a set bit's EO back to its node id; entries are
  // written at insert time, so a stale value is never read.
  Slab<std::uint32_t> nup;          // [lanes][sn]
  Slab<std::uint64_t> ready_words;  // [lanes][sw] EO-indexed bitmap
  Slab<std::uint32_t> ready_node;   // [lanes][sn] EO -> node id
  // Outstanding completions (at most one per CPU), parallel key/payload.
  Slab<std::int64_t> ev_finish;  // [lanes][sc]
  Slab<std::uint64_t> ev_seq;    // [lanes][sc]
  Slab<std::uint64_t> ev_meta;   // [lanes][sc]
  // Per-CPU state.
  Slab<std::uint32_t> cpu_level;   // [lanes][sc]
  Slab<std::uint8_t> cpu_sleep;    // [lanes][sc]
  Slab<std::int64_t> cpu_busy;     // [lanes][sc]
  // Attribution ledger.
  Slab<std::uint64_t> busy_ps;     // [lanes][sl]
  Slab<std::uint64_t> compute_ps;  // [lanes][sl]
  Slab<std::uint64_t> transitions; // [lanes][sll]
  Slab<std::uint32_t> touched_levels;       // [lanes][sl]
  Slab<std::uint8_t> level_touched;         // [lanes][sl]
  Slab<std::uint32_t> touched_transitions;  // [lanes][sll]
  // Per-lane scalar state, packed so one event turn touches one cache
  // line instead of a dozen slabs.
  struct alignas(64) LaneScalars {
    std::uint32_t ready_n = 0;
    std::uint32_t ev_n = 0;
    std::uint32_t neo = 0;
    std::uint32_t activated = 0;
    std::uint32_t completed = 0;
    std::uint32_t dispatched = 0;
    std::uint32_t speed_changes = 0;
    std::uint32_t touched_levels_n = 0;
    std::uint32_t touched_trans_n = 0;
    std::uint32_t as_floor_lvl = 0;  // adaptive floor as a level index
    std::uint64_t seq = 0;
    std::int64_t last_activity = 0;
  };
  Slab<LaneScalars> lane;      // [lanes]
  Slab<std::uint32_t> active;  // compacted active-lane list
  // Per-lane traces (only sized when tracing).
  std::vector<std::vector<TaskRecord>> traces;

  // Scratch plan of the simulate_batch overloads that take a policy or a
  // scheme (and so of simulate()): rebuilt on every such call.
  KernelPlan scratch_plan;
};

/// Simulates `lanes` scenarios under `plan` in lockstep, writing one
/// SimResult per lane into `results` (an array of at least `lanes`
/// entries). Lane l consumes row l of `batch`, which must have been drawn
/// for the plan's application. Every lane starts from the plan's reset
/// state; the call writes nothing but `ws`, `results` and the options'
/// counter cells.
void simulate_batch(const KernelPlan& plan, const ScenarioBatch& batch,
                    std::size_t lanes, BatchWorkspace& ws, SimResult* results,
                    const BatchSimOptions& options = {});

/// Convenience: builds the plan of `policy` (reset against (off, pm)) into
/// the workspace's scratch plan, and simulates.
void simulate_batch(const Application& app, const OfflineResult& off,
                    const PowerModel& pm, const Overheads& overheads,
                    const SpeedPolicy& policy, const ScenarioBatch& batch,
                    std::size_t lanes, BatchWorkspace& ws, SimResult* results,
                    const BatchSimOptions& options = {});

/// Convenience: make_policy(scheme, popt), reset it, and simulate.
void simulate_batch(const Application& app, const OfflineResult& off,
                    const PowerModel& pm, const Overheads& overheads,
                    Scheme scheme, const PolicyOptions& popt,
                    const ScenarioBatch& batch, std::size_t lanes,
                    BatchWorkspace& ws, SimResult* results,
                    const BatchSimOptions& options = {});

}  // namespace paserta
