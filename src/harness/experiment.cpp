#include "harness/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>

#include "common/aligned.h"
#include "common/error.h"
#include "core/offline.h"
#include "harness/pool.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/batch_engine.h"
#include "sim/engine.h"
#include "sim/fingerprint.h"
#include "sim/power_trace.h"
#include "sim/sampler.h"
#include "sim/scenario.h"
#include "sim/verify.h"

namespace paserta {

const SchemeStats& SweepPoint::of(Scheme s) const {
  for (const auto& st : stats)
    if (st.scheme == s) return st;
  PASERTA_REQUIRE(false, "scheme " << to_string(s) << " not in sweep point");
  return stats.front();  // unreachable
}

namespace {

/// Raw per-run measurements; accumulated into SweepPoint in run order so
/// results are independent of how many worker threads produced them.
struct SchemeOutcome {
  double norm_energy = 0.0;
  double speed_changes = 0.0;
  double finish_frac = 0.0;
  double busy_frac = 0.0;
  double overhead_frac = 0.0;
  double idle_frac = 0.0;
  bool has_norm = false;
  bool has_fracs = false;
  bool missed = false;
  bool verify_failed = false;
};

/// All per-run measurements of one point, laid out run-major in flat
/// preallocated arrays (schemes[run * nschemes + s]): no per-run heap
/// blocks, and both the worker writes and the run-ordered accumulation
/// walk memory sequentially.
struct PointOutcomes {
  std::vector<double> npm_energy;        // one per run
  std::vector<std::uint8_t> degenerate;  // NPM baseline consumed zero energy
  std::vector<SchemeOutcome> schemes;    // runs x cfg.schemes, run-major

  explicit PointOutcomes(int runs, std::size_t nschemes)
      : npm_energy(static_cast<std::size_t>(runs), 0.0),
        degenerate(static_cast<std::size_t>(runs), 0),
        schemes(static_cast<std::size_t>(runs) * nschemes) {}
};

// (The staging buffers use CacheAlignedAlloc from common/aligned.h — the
// same allocator the batched engine's SoA slabs are built on — so two
// slots' staging arrays never share a cache line.)

/// Slot-private staging for one chunk's outcomes. Workers evaluate every
/// run of a claimed chunk into this scratch — cache-line-aligned arrays no
/// other thread ever touches — and then flush the whole chunk into the
/// shared run-major PointOutcomes with one bulk copy per array. The shared
/// store is therefore written at chunk granularity instead of per run
/// field-by-field, so the only lines two workers can ever contend on are
/// the single boundary lines between adjacent chunks, touched once each.
/// The staged values are copied verbatim to the same run-indexed positions
/// the direct path writes, so the merge is unobservable in the output.
struct ChunkStage {
  std::vector<double, CacheAlignedAlloc<double>> npm_energy;
  std::vector<std::uint8_t, CacheAlignedAlloc<std::uint8_t>> degenerate;
  std::vector<SchemeOutcome, CacheAlignedAlloc<SchemeOutcome>> schemes;

  /// Grows the scratch to `chunk_runs` runs of `nschemes` rows (never
  /// shrinks, so a short chunk, or a point with fewer schemes, reuses the
  /// larger buffers). Entries are *not* cleared between chunks: the chunk
  /// pipeline assigns every field.
  void ensure(int chunk_runs, std::size_t nschemes) {
    const auto n = static_cast<std::size_t>(chunk_runs);
    if (npm_energy.size() < n) {
      npm_energy.resize(n);
      degenerate.resize(n);
    }
    if (schemes.size() < n * nschemes) schemes.resize(n * nschemes);
  }

  /// Bulk-copies the first `n` staged runs into `store` at [first, first+n).
  void flush(PointOutcomes& store, int first, int n,
             std::size_t nschemes) const {
    const auto offset = static_cast<std::size_t>(first);
    const auto count = static_cast<std::size_t>(n);
    std::memcpy(store.npm_energy.data() + offset, npm_energy.data(),
                count * sizeof(double));
    std::memcpy(store.degenerate.data() + offset, degenerate.data(), count);
    std::memcpy(store.schemes.data() + offset * nschemes, schemes.data(),
                count * nschemes * sizeof(SchemeOutcome));
  }
};
static_assert(std::is_trivially_copyable_v<SchemeOutcome>,
              "ChunkStage::flush memcpys SchemeOutcome rows");

/// Whether `cfg` carries a Tracer::Detail::kRuns tracer (one span per
/// simulation).
bool traces_runs(const ExperimentConfig& cfg) {
  return cfg.tracer != nullptr &&
         cfg.tracer->detail() == Tracer::Detail::kRuns;
}

/// Lanes per simulate_batch call of the chunk pipeline. The lane count is
/// output-invisible (a lane's result does not depend on the lane count),
/// so auto just picks the measured sweet spot: large enough to amortize
/// the per-batch setup (derived tables, the policy's rule) over many runs,
/// small enough that the batch's lane state stays cache-resident on one
/// core. A Tracer::Detail::kRuns tracer records one span per engine call,
/// so it runs one lane to keep one span per simulation.
int batch_lanes_for(const ExperimentConfig& cfg) {
  if (traces_runs(cfg)) return 1;
  return cfg.batch > 0 ? cfg.batch : 32;
}

// ---- Scenario-dedup outcome memoization (DESIGN.md §15) -----------------
//
// The simulation consumes no randomness: a drawn scenario fully determines
// every output bit of every scheme. So when two runs draw bit-identical
// scenarios (equal fingerprints — see ScenarioSampler's key-emitting
// draw_into), the second run's complete record — NPM energy, degenerate
// flag, every SchemeOutcome row, every SimCounters cell including the
// integer attribution ledger — is *copied* from the first instead of
// re-simulated. The copy lands in the same run-major stage slot and the
// counters integer-add into the same slot cells, so sums, CSVs, metrics
// and ledgers stay bit-identical at every thread count and batch size.
//
// Sharding mirrors the staging design of §13: each (point, slot) owns a
// single-threaded OutcomeShard (fingerprint table + id-major record
// arenas) that its worker consults lock-free on the per-run path; a
// mutex-protected SharedOutcomes store per point lets slots adopt each
// other's records — consulted only on a shard-local first encounter, and
// appended to only in a post-chunk publish, so the lock is off the per-run
// path entirely.

/// Whether a point with model `cfg` resolves to dedup when its compiled
/// sampler reports `space` distinct scenarios (0 = unbounded) and
/// `run_spans` says the call records one span per simulation.
bool dedup_for(const ExperimentConfig& cfg, bool run_spans,
               std::uint64_t space) {
  // Replayed runs perform no engine work, so configurations whose purpose
  // is per-run engine work keep the uncached path: verify_traces, per-run
  // spans, and audit, which re-accounts every run three ways.
  if (cfg.verify_traces || run_spans || cfg.audit) return false;
  switch (cfg.dedup) {
    case DedupMode::kOff:
      return false;
    case DedupMode::kOn:
      return true;
    case DedupMode::kAuto:
      break;
  }
  // Auto: only when the scenario space is provably finite and no larger
  // than the run count, so replay is guaranteed to pay and the cache is
  // bounded by the space, not the draw count.
  return space != 0 && space <= static_cast<std::uint64_t>(cfg.runs);
}

/// Cached outcome records of one (point, slot). Strictly single-threaded:
/// only the owning slot's worker ever touches it (the cross-thread record
/// flow goes through SharedOutcomes). Records are stored id-major in flat
/// arenas parallel to the fingerprint table's dense ids.
struct OutcomeShard {
  FingerprintTable table;
  std::vector<double> npm_energy;        // one per record
  std::vector<std::uint8_t> degenerate;  // one per record
  std::vector<SchemeOutcome> rows;       // id-major x nschemes
  std::vector<SimCounters> cells;        // id-major x (nschemes+1); metrics
  std::vector<std::uint32_t> pending;    // record ids not yet published
  std::uint64_t hits = 0;    // runs replayed from a cached record
  std::uint64_t misses = 0;  // scenarios this shard actually simulated

  explicit OutcomeShard(std::size_t key_words) : table(key_words) {}

  std::uint32_t record_count() const {
    return static_cast<std::uint32_t>(npm_energy.size());
  }

  /// Approximate heap footprint (flat arenas + table; the ledger vectors
  /// inside cached SimCounters are counted at header size only).
  std::uint64_t bytes() const {
    return table.bytes() + npm_energy.capacity() * sizeof(double) +
           degenerate.capacity() +
           rows.capacity() * sizeof(SchemeOutcome) +
           cells.capacity() * sizeof(SimCounters) +
           pending.capacity() * sizeof(std::uint32_t);
  }
};

/// One complete record in transit between stores: shared-store reads copy
/// into this (slot-owned) buffer under the lock, so no simulation or
/// shard mutation ever happens while the shared mutex is held.
struct RecordTmp {
  double npm_energy = 0.0;
  std::uint8_t degenerate = 0;
  std::vector<SchemeOutcome> rows;
  std::vector<SimCounters> cells;  // empty when metrics are off
};

/// Appends `tmp` as the shard's next record (dense id order: the caller
/// interned the key and got exactly record_count() as its id).
void append_record(OutcomeShard& sh, const RecordTmp& tmp, bool metrics) {
  sh.npm_energy.push_back(tmp.npm_energy);
  sh.degenerate.push_back(tmp.degenerate);
  sh.rows.insert(sh.rows.end(), tmp.rows.begin(), tmp.rows.end());
  if (metrics)
    sh.cells.insert(sh.cells.end(), tmp.cells.begin(), tmp.cells.end());
}

/// Replays cached record `id` into stage position `i`: copies the staged
/// values and integer-adds the cached counter cells into the slot cells —
/// exactly the writes re-simulating the scenario would have produced
/// (copies are bitwise, counter adds are integer and order-independent).
void replay_record(const OutcomeShard& sh, std::uint32_t id,
                   ChunkStage& stage, std::size_t i, std::size_t nschemes,
                   SimCounters* slot_cells, std::size_t ncells) {
  stage.npm_energy[i] = sh.npm_energy[id];
  stage.degenerate[i] = sh.degenerate[id];
  std::copy_n(sh.rows.data() + static_cast<std::size_t>(id) * nschemes,
              nschemes, stage.schemes.data() + i * nschemes);
  if (slot_cells != nullptr) {
    const SimCounters* cell =
        sh.cells.data() + static_cast<std::size_t>(id) * ncells;
    for (std::size_t c = 0; c < ncells; ++c) slot_cells[c].add(cell[c]);
  }
}

/// Shared per-point publish store: lets one slot adopt a record another
/// slot already simulated. All access is under `mu`; consulted only on a
/// shard-local first encounter and appended to per chunk, so contention is
/// O(distinct scenarios + chunks), never O(runs). Which slot wins a
/// publish race is output-invisible: both computed bit-identical records.
struct SharedOutcomes {
  std::mutex mu;
  FingerprintTable table;
  std::vector<double> npm_energy;
  std::vector<std::uint8_t> degenerate;
  std::vector<SchemeOutcome> rows;
  std::vector<SimCounters> cells;

  explicit SharedOutcomes(std::size_t key_words) : table(key_words) {}

  /// Copies the record of `key` into `tmp` when present.
  bool find_copy(const std::uint64_t* key, std::size_t nschemes,
                 std::size_t ncells, bool metrics, RecordTmp& tmp) {
    std::lock_guard<std::mutex> lock(mu);
    const std::uint32_t id = table.find(key);
    if (id == FingerprintTable::kNotFound) return false;
    tmp.npm_energy = npm_energy[id];
    tmp.degenerate = degenerate[id];
    const auto r = rows.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(id) * nschemes);
    tmp.rows.assign(r, r + static_cast<std::ptrdiff_t>(nschemes));
    if (metrics) {
      const auto c = cells.begin() + static_cast<std::ptrdiff_t>(
                                         static_cast<std::size_t>(id) * ncells);
      tmp.cells.assign(c, c + static_cast<std::ptrdiff_t>(ncells));
    }
    return true;
  }

  /// Publishes the shard's pending records (first writer per key wins).
  void publish(OutcomeShard& shard, std::size_t nschemes, std::size_t ncells,
               bool metrics) {
    if (shard.pending.empty()) return;
    std::lock_guard<std::mutex> lock(mu);
    for (const std::uint32_t id : shard.pending) {
      bool inserted = false;
      (void)table.intern(shard.table.key(id), inserted);
      if (!inserted) continue;  // another slot published this key first
      // The new dense id equals the arena size: append keeps alignment.
      npm_energy.push_back(shard.npm_energy[id]);
      degenerate.push_back(shard.degenerate[id]);
      const SchemeOutcome* row =
          shard.rows.data() + static_cast<std::size_t>(id) * nschemes;
      rows.insert(rows.end(), row, row + nschemes);
      if (metrics) {
        const SimCounters* cell =
            shard.cells.data() + static_cast<std::size_t>(id) * ncells;
        cells.insert(cells.end(), cell, cell + ncells);
      }
    }
    shard.pending.clear();
  }

  std::uint64_t bytes() {
    std::lock_guard<std::mutex> lock(mu);
    return table.bytes() + npm_energy.capacity() * sizeof(double) +
           degenerate.capacity() +
           rows.capacity() * sizeof(SchemeOutcome) +
           cells.capacity() * sizeof(SimCounters);
  }
};

/// Observability context of one chunk, threaded through the chunk
/// evaluators by the worker that owns the slot. Everything may be
/// null/defaulted: a zero-initialized RunObs makes evaluation
/// observation-free.
struct RunObs {
  Tracer* run_tracer = nullptr;  // non-null only at Tracer::Detail::kRuns
  int slot = 0;
  std::int64_t point = -1;
  /// Slot-owned telemetry cells for this (point, slot): one SimCounters
  /// per scheme in config order, then one for the NPM baseline. Null =
  /// counting off.
  SimCounters* cells = nullptr;
  /// Phase profiler + pre-registered phase ids (run_points resolves
  /// them once per call). Null prof = every scope is a pointer test.
  Profiler* prof = nullptr;
  int ph_sample = -1;    // scenario drawing (nested under pool.busy)
  int ph_simulate = -1;  // engine simulation (nested under pool.busy)
  int ph_flush = -1;     // chunk stage flush (nested under pool.busy)
  int ph_batch_setup = -1;  // batch-engine setup (nested under simulate)
  int ph_batch_drain = -1;  // batch-engine drain (nested under simulate)
};

/// Audit cross-check of one finished run (ExperimentConfig::audit): the
/// exported attribution ledger must fold back to the engine's energy split
/// exactly (same fold over the same integers — see attribution_energy),
/// and the power-trace reconstruction must integrate to the same total
/// within 1e-9 relative. `c` must hold this run's counters alone and `r`
/// must carry its trace.
void audit_run(const Application& app, const OfflineResult& off,
               const PowerModel& pm, const Overheads& ovh,
               const SimCounters& c, const SimResult& r, Scheme scheme) {
  const EnergySplit split = attribution_energy(c, pm, ovh);
  PASERTA_REQUIRE(split.busy == r.busy_energy &&
                      split.overhead == r.overhead_energy &&
                      split.idle == r.idle_energy,
                  "audit(" << to_string(scheme)
                           << "): attribution counters rebuild ("
                           << split.busy << ", " << split.overhead << ", "
                           << split.idle << ") J but the engine reported ("
                           << r.busy_energy << ", " << r.overhead_energy
                           << ", " << r.idle_energy << ") J");
  const PowerTrace trace = build_power_trace(app, off, pm, ovh, r);
  const Energy integral = trace.total_energy();
  const Energy total = r.total_energy();
  const double tol = 1e-9 * std::max(1.0, std::abs(total));
  PASERTA_REQUIRE(std::abs(integral - total) <= tol,
                  "audit(" << to_string(scheme)
                           << "): power-trace integral " << integral
                           << " J deviates from engine total " << total
                           << " J");
}

/// One scheme's per-run outcome from its engine result and the same run's
/// NPM baseline energy. Built from scratch, so it may overwrite a reused
/// staging entry; verify_failed is left false for the caller to set. A
/// degenerate run (zero NPM energy: no computation and
/// zero idle power) has no normalized energy — dividing by it would poison
/// RunningStat with NaN/Inf.
SchemeOutcome scheme_outcome(const SimResult& r, double npm_energy,
                             SimTime deadline) {
  SchemeOutcome so;
  if (npm_energy > 0.0) {
    so.norm_energy = r.total_energy() / npm_energy;
    so.has_norm = true;
  }
  so.speed_changes = static_cast<double>(r.speed_changes);
  so.finish_frac = static_cast<double>(r.finish_time.ps) /
                   static_cast<double>(deadline.ps);
  const Energy total = r.total_energy();
  if (total > 0.0) {
    so.busy_frac = r.busy_energy / total;
    so.overhead_frac = r.overhead_energy / total;
    so.idle_frac = r.idle_energy / total;
    so.has_fracs = true;
  }
  so.missed = !r.deadline_met;
  return so;
}

/// Resolved once per point of a run_points call, before the workers start.
struct PointPlan {
  const ExperimentConfig* model = nullptr;
  std::size_t pm = 0;       // index into the call's power models
  std::size_t sampler = 0;  // index into the call's compiled samplers
  std::size_t group = 0;    // index into the call's groups
  std::size_t cell_begin = 0;  // its nslots x (schemes + NPM) counter cells
  bool dedup = false;
  /// One kernel plan per engine cell: the schemes in model order, then
  /// NPM — the layout of the point's counter cells.
  std::vector<KernelPlan> kernels;
  /// leader[c]: the cell whose engine call produces cell c's results — c
  /// itself, or an earlier cell in engine order (NPM first, then the
  /// schemes) with an equal plan.
  std::vector<std::uint32_t> leader;
};

/// Points of one call that draw the identical scenario stream: the same
/// compiled sampler, model seed and run count, and none of them dedups (a
/// dedup point is a group of its own). The flat chunk space runs over
/// (group, run range), and each lane group is drawn once for all members.
struct PointGroup {
  std::vector<std::size_t> points;  // members, in spec order
  int chunk = 0;                    // runs per chunk
  int chunk_begin = 0;  // the group's first index in the flat chunk space
};

/// One point of a chunk's group, as the chunk pipeline sees it.
struct ChunkMember {
  const PointSpec* spec = nullptr;
  const PointPlan* plan = nullptr;
  ChunkStage* stage = nullptr;
  RunObs obs;  // the point's counter cells and trace label on this slot
};

/// Worker-local state, one set per pool slot, reused across every chunk
/// (and every point) that slot processes. Lazily constructed by the slot's
/// own thread on its first chunk, so every buffer a worker touches per run
/// is allocated by (and stays local to) that worker. `samplers` holds the
/// slot's private copies of the shared compiled ScenarioSamplers, cloned
/// on first use per distinct application: scenario drawing then reads no
/// memory another thread is also streaming through, which keeps the per-
/// run path free of any cross-thread cache traffic (the shared masters
/// are read-only, but private copies also dodge capacity fights on a
/// busy socket and make the no-shared-state property mechanical).
struct WorkerCtx {
  std::vector<ChunkStage> stages;  // one per member of the chunk's group
  std::vector<ChunkMember> members;  // the chunk's group, as evaluated
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  // Chunk-pipeline state (sim/batch_engine.h), sized lazily on first use.
  BatchWorkspace batch_ws;
  ScenarioBatch batch_sc;
  std::vector<SimResult> batch_results;
  std::vector<SimCounters> batch_cells;  // audit/dedup: one cell per lane
  SimCounters share_cell;  // one engine call's counters, for its sharers
  // Dedup-filter scratch (DESIGN.md §15), sized lazily on first use.
  std::vector<std::uint64_t> key;  // one fingerprint (op_count words)
  std::vector<std::pair<int, std::uint32_t>> fill;  // (stage idx, record id)
  RecordTmp rec_tmp;  // shared-store reads copy here under the lock

  explicit WorkerCtx(std::size_t sampler_count) : samplers(sampler_count) {}
};

/// The cell of a point's i-th engine call: NPM first (its energies
/// normalize the others), then the schemes in order.
std::size_t engine_cell(std::size_t i, std::size_t nschemes) {
  return i == 0 ? nschemes : i - 1;
}

/// Empties `c` in place: every counter zero and no ledger, so the next
/// export sizes the ledger for its own power table — into the capacity the
/// ledger vectors keep.
void clear_counters(SimCounters& c) {
  std::vector<std::uint64_t> busy = std::move(c.busy_ps);
  std::vector<std::uint64_t> compute = std::move(c.compute_ps);
  std::vector<std::uint64_t> transitions = std::move(c.transitions);
  busy.clear();
  compute.clear();
  transitions.clear();
  c = SimCounters{};
  c.busy_ps = std::move(busy);
  c.compute_ps = std::move(compute);
  c.transitions = std::move(transitions);
}

/// The chunk pipeline of every configuration: sample a lane group from the
/// slot's sampler once, then for every member point of the group simulate
/// the NPM baseline plus every scheme over it with simulate_batch
/// (`lanes_max` lanes per engine call) — one call per distinct kernel plan,
/// its rows and counters copied to every scheme that shares the plan —
/// verify each lane's trace when verify_traces asks for it, and stage the
/// member's rows. With a `shard` (a dedup point, always a group of its
/// own), the dedup filter (DESIGN.md §15) sits in front of the engine: each
/// draw also emits its fingerprint, a repeated scenario is queued for
/// replay, a record another slot already published is adopted, and only a
/// first encounter takes a lane — duplicates never reach the engine. The
/// lane group's rows then land in the shard's record arena, and every
/// queued run is replayed from there into the stage. Either way the staged
/// values and integer counter sums are exactly what simulating every run of
/// every scheme would produce.
void evaluate_chunk(std::span<const ChunkMember> members,
                    const ScenarioSampler& sampler, std::uint64_t seed,
                    int first, int count, int lanes_max, WorkerCtx& ctx,
                    OutcomeShard* shard, SharedOutcomes* shared) {
  const ChunkMember& lead = members.front();
  const Application& app = *lead.spec->app;
  // A lane group never holds more lanes than the chunk has runs.
  const auto group_max = static_cast<std::size_t>(std::min(lanes_max, count));
  if (ctx.batch_results.size() < group_max)
    ctx.batch_results.resize(group_max);
  ctx.batch_sc.ensure(group_max, app.graph.size());
  if (shard != nullptr) {
    PASERTA_REQUIRE(members.size() == 1, "a dedup point forms its own group");
    ctx.key.resize(sampler.op_count());
  }
  // The dedup record layout: the point's rows and, with metrics, its
  // counter cells (schemes + NPM).
  const std::size_t rec_schemes = lead.plan->model->schemes.size();
  const std::size_t rec_cells = rec_schemes + 1;
  const bool rec_metrics = lead.obs.cells != nullptr;
  const std::uint64_t miss0 = shard != nullptr ? shard->misses : 0;

  // Simulates lanes [0, nlanes), the runs from `run0` on, for member `m` —
  // the NPM baseline first (its energies normalize the others), then every
  // scheme — and writes lane l's record to npm_out[l], degenerate_out[l],
  // rows_out[l * nschemes + s] and, when rec_cells is set, its counters to
  // rec_cells[l * ncells + cell].
  const auto simulate_lanes = [&](const ChunkMember& m, std::size_t nlanes,
                                  int run0, double* npm_out,
                                  std::uint8_t* degenerate_out,
                                  SchemeOutcome* rows_out,
                                  SimCounters* rec_cells) {
    const ExperimentConfig& cfg = *m.plan->model;
    const PointSpec& spec = *m.spec;
    const RunObs& obs = m.obs;
    const std::size_t nschemes = cfg.schemes.size();
    const std::size_t ncells = nschemes + 1;
    const std::vector<std::uint32_t>& leader = m.plan->leader;
    const bool metrics = obs.cells != nullptr;
    // Per-lane counter cells: audit checks each run's ledger alone, and a
    // dedup record caches exactly one run's counters, so replay adds
    // per-run quantities.
    const bool lane_cells = cfg.audit || (rec_cells != nullptr && metrics);
    // The verifier reads a lane's scenario as a RunScenario.
    const auto verify_lane = [&](std::size_t l) {
      const std::size_t n = app.graph.size();
      RunScenario sc;
      sc.actual.assign(ctx.batch_sc.lane_actual(l),
                       ctx.batch_sc.lane_actual(l) + n);
      sc.or_choice.assign(ctx.batch_sc.lane_choice(l),
                          ctx.batch_sc.lane_choice(l) + n);
      return verify_trace(app, *spec.off, sc, ctx.batch_results[l]).ok;
    };
    // One engine call per leading cell; every cell it leads takes the
    // call's rows and counters.
    for (std::size_t i = 0; i < ncells; ++i) {
      const std::size_t cell = engine_cell(i, nschemes);
      if (leader[cell] != cell) continue;
      const Scheme scheme = cell == nschemes ? Scheme::NPM : cfg.schemes[cell];
      bool shared_call = false;
      for (std::size_t d = 0; d < ncells; ++d)
        shared_call = shared_call || (d != cell && leader[d] == cell);
      {
        ProfScope ps(obs.prof, obs.ph_simulate, obs.slot);
        BatchSimOptions bo;
        // Traces are only materialized when something consumes them: the
        // verifier, and audit's power-curve integral check.
        bo.record_trace = cfg.audit || cfg.verify_traces;
        bo.audit = cfg.audit;
        bo.prof = obs.prof;
        bo.ph_setup = obs.ph_batch_setup;
        bo.ph_drain = obs.ph_batch_drain;
        bo.slot = obs.slot;
        if (lane_cells) {
          ctx.batch_cells.assign(nlanes, SimCounters{});
          bo.lane_cells = ctx.batch_cells.data();
        } else if (metrics && shared_call) {
          clear_counters(ctx.share_cell);
          bo.shared_cell = &ctx.share_cell;
        } else if (metrics) {
          bo.shared_cell = obs.cells + cell;
        }
        TraceSpan span(obs.run_tracer, obs.slot, to_string(scheme), obs.point,
                       run0);
        simulate_batch(m.plan->kernels[cell], ctx.batch_sc, nlanes,
                       ctx.batch_ws, ctx.batch_results.data(), bo);
      }
      for (std::size_t d = 0; d < ncells; ++d) {
        if (leader[d] != cell) continue;
        if (lane_cells) {
          for (std::size_t l = 0; l < nlanes; ++l) {
            if (cfg.audit)
              audit_run(app, *spec.off, *m.plan->kernels[d].pm, cfg.overheads,
                        ctx.batch_cells[l], ctx.batch_results[l],
                        d == nschemes ? Scheme::NPM : cfg.schemes[d]);
            if (rec_cells != nullptr)
              rec_cells[l * ncells + d] = ctx.batch_cells[l];
            else if (metrics)
              obs.cells[d].add(ctx.batch_cells[l]);
          }
        } else if (metrics && shared_call) {
          obs.cells[d].add(ctx.share_cell);
        }
      }
      if (cell == nschemes) {
        for (std::size_t l = 0; l < nlanes; ++l) {
          const double npm_energy = ctx.batch_results[l].total_energy();
          npm_out[l] = npm_energy;
          degenerate_out[l] = !(npm_energy > 0.0) ? 1 : 0;
        }
      }
      // The call's rows: built for its first scheme, copied to the rest.
      std::size_t first_row = nschemes;
      for (std::size_t s = 0; s < nschemes; ++s) {
        if (leader[s] != cell) continue;
        for (std::size_t l = 0; l < nlanes; ++l) {
          SchemeOutcome& so = rows_out[l * nschemes + s];
          if (first_row < s) {
            so = rows_out[l * nschemes + first_row];
            continue;
          }
          so = scheme_outcome(ctx.batch_results[l], npm_out[l],
                              spec.deadline);
          if (cfg.verify_traces) so.verify_failed = !verify_lane(l);
        }
        first_row = std::min(first_row, s);
      }
    }
  };

  int k = 0;
  while (k < count) {
    const int group_first = k;
    int lanes = 0;
    // A first encounter whose record another slot already published: the
    // adoption waits until the open group is simulated, because its record
    // id comes after the group's dense lane ids.
    int adopt_run = -1;
    std::uint32_t adopt_id = 0;
    {
      ProfScope ps(lead.obs.prof, lead.obs.ph_sample, lead.obs.slot);
      for (; k < count && lanes < lanes_max; ++k) {
        Rng run_rng(
            Rng::stream_seed(seed, static_cast<std::uint64_t>(first + k)));
        const auto lane = static_cast<std::size_t>(lanes);
        if (shard == nullptr) {
          sampler.draw_into(run_rng, ctx.batch_sc, lane);
          ++lanes;
          continue;
        }
        sampler.draw_into(run_rng, ctx.batch_sc, lane, ctx.key.data());
        bool inserted = false;
        const std::uint32_t id = shard->table.intern(ctx.key.data(), inserted);
        if (inserted && shared != nullptr &&
            shared->find_copy(ctx.key.data(), rec_schemes, rec_cells,
                              rec_metrics, ctx.rec_tmp)) {
          adopt_run = k++;
          adopt_id = id;
          break;
        }
        ctx.fill.emplace_back(k, id);
        if (inserted) ++lanes;  // the lane keeps it until the group runs
      }
    }
    const auto nlanes = static_cast<std::size_t>(lanes);
    if (shard == nullptr) {
      const auto g = static_cast<std::size_t>(group_first);
      for (const ChunkMember& m : members) {
        const std::size_t nschemes = m.plan->model->schemes.size();
        simulate_lanes(m, nlanes, first + group_first,
                       m.stage->npm_energy.data() + g,
                       m.stage->degenerate.data() + g,
                       m.stage->schemes.data() + g * nschemes, nullptr);
      }
      continue;
    }
    if (nlanes > 0) {
      // intern assigned the lane group's ids densely in lane order, so lane
      // l's record id is base + l.
      const std::size_t base = shard->record_count();
      shard->npm_energy.resize(base + nlanes);
      shard->degenerate.resize(base + nlanes);
      shard->rows.resize((base + nlanes) * rec_schemes);
      if (rec_metrics) shard->cells.resize((base + nlanes) * rec_cells);
      simulate_lanes(lead, nlanes, first + group_first,
                     shard->npm_energy.data() + base,
                     shard->degenerate.data() + base,
                     shard->rows.data() + base * rec_schemes,
                     rec_metrics ? shard->cells.data() + base * rec_cells
                                 : nullptr);
      if (shared != nullptr)
        for (std::size_t l = 0; l < nlanes; ++l)
          shard->pending.push_back(static_cast<std::uint32_t>(base + l));
      shard->misses += nlanes;
    }
    for (const auto& [idx, id] : ctx.fill)
      replay_record(*shard, id, *lead.stage, static_cast<std::size_t>(idx),
                    rec_schemes, lead.obs.cells, rec_cells);
    ctx.fill.clear();
    if (adopt_run >= 0) {
      append_record(*shard, ctx.rec_tmp, rec_metrics);
      replay_record(*shard, adopt_id, *lead.stage,
                    static_cast<std::size_t>(adopt_run), rec_schemes,
                    lead.obs.cells, rec_cells);
    }
  }
  if (shard == nullptr) return;
  shard->hits += static_cast<std::uint64_t>(count) - (shard->misses - miss0);
  if (shared != nullptr)
    shared->publish(*shard, rec_schemes, rec_cells, rec_metrics);
}

int chunk_size_for(int runs, const ExperimentConfig& cfg) {
  if (cfg.chunk_runs > 0) return cfg.chunk_runs;
  // Auto: batch enough runs per claim that the shared counter (and the
  // chunk-boundary cache lines of the shared outcome store) are touched
  // O(threads) times per point, not O(runs) — about 8 chunks per worker
  // per point. Floored at 16 so short points still balance, capped so
  // progress ticks and tail imbalance stay bounded. Any value is
  // output-identical; this is purely a scheduling knob.
  const std::int64_t target =
      static_cast<std::int64_t>(runs) /
      (static_cast<std::int64_t>(std::max(1, cfg.threads)) * 8);
  return static_cast<int>(std::clamp<std::int64_t>(target, 16, 2048));
}

/// Consecutive chunks per atomic claim (WorkerPool claim_batch): when a
/// caller forces very fine chunks (chunk_runs=1 makes one chunk per run),
/// claiming them one by one would put the shared counter back on the
/// per-run path; batching restores O(threads) claims without changing
/// chunk semantics. With auto-sized chunks this stays 1.
int claim_batch_for(std::int64_t total_chunks, int max_workers) {
  const std::int64_t target =
      total_chunks / (static_cast<std::int64_t>(std::max(1, max_workers)) * 32);
  return static_cast<int>(std::clamp<std::int64_t>(target, 1, 64));
}

void validate_config(const ExperimentConfig& cfg) {
  PASERTA_REQUIRE(cfg.runs >= 1, "need at least one run");
  PASERTA_REQUIRE(cfg.threads >= 1, "need at least one worker thread");
  PASERTA_REQUIRE(cfg.chunk_runs >= 0, "chunk_runs must be non-negative");
}

/// Latency buckets of the pool chunk histogram: ~log-spaced 10 us .. 10 s.
constexpr double kChunkSecondsBounds[] = {1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
                                          3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
                                          1.0,  3.0,  10.0};

/// Adds one SimCounters total into "<prefix>.<field>" registry counters.
/// Shard 0 is correct: the flush runs on the driving thread after the
/// parallel section has joined.
void flush_sim_counters(MetricsRegistry& reg, const std::string& prefix,
                        const SimCounters& c) {
  reg.counter(prefix + ".dispatches").add(0, c.dispatches);
  reg.counter(prefix + ".tasks").add(0, c.tasks);
  reg.counter(prefix + ".or_fires").add(0, c.or_fires);
  reg.counter(prefix + ".speed_changes").add(0, c.speed_changes);
  reg.counter(prefix + ".spec_picks").add(0, c.spec_picks);
  reg.counter(prefix + ".greedy_picks").add(0, c.greedy_picks);
  reg.counter(prefix + ".reclaimed_slack_ps").add(0, c.reclaimed_slack_ps);
  // Energy-attribution ledger: per-level time counters, transition counts
  // per (from, to) level pair (only the pairs that fired — an L x L matrix
  // of mostly-zero names would drown the export), and total idle time.
  // With the power table and overheads these rebuild the paper's busy /
  // overhead / idle energy split (attribution_energy).
  for (std::uint32_t l = 0; l < c.levels; ++l) {
    const std::string suffix = ".L" + std::to_string(l);
    reg.counter(prefix + ".busy_ps" + suffix).add(0, c.busy_ps[l]);
    if (c.compute_ps[l] != 0)
      reg.counter(prefix + ".compute_ps" + suffix).add(0, c.compute_ps[l]);
  }
  for (std::uint32_t from = 0; from < c.levels; ++from)
    for (std::uint32_t to = 0; to < c.levels; ++to) {
      const std::uint64_t n = c.transitions[from * c.levels + to];
      if (n != 0)
        reg.counter(prefix + ".transitions.L" + std::to_string(from) + "_L" +
                    std::to_string(to))
            .add(0, n);
    }
  reg.counter(prefix + ".idle_ps").add(0, c.idle_ps);
}

/// Flushes the engine counters of a call's points with one registry write
/// per name: totals are summed per (scheme, ledger size) first — a ledger
/// only sums with one of the same power table — so the registry ends with
/// exactly the values (and the names) a flush per point would leave.
void flush_engine_counters(MetricsRegistry& reg,
                           std::span<const PointPlan> plans,
                           std::span<const SweepPoint> points) {
  std::vector<std::pair<std::string, SimCounters>> totals;
  const auto add = [&](std::string prefix, const SimCounters& c) {
    for (auto& [name, total] : totals)
      if (name == prefix && total.levels == c.levels) {
        total.add(c);
        return;
      }
    totals.emplace_back(std::move(prefix), c);
  };
  for (std::size_t p = 0; p < points.size(); ++p) {
    const std::vector<Scheme>& schemes = plans[p].model->schemes;
    for (std::size_t s = 0; s < schemes.size(); ++s)
      add(std::string("engine.") + to_string(schemes[s]),
          points[p].metrics.schemes[s]);
    add("engine.NPM", points[p].metrics.npm);
  }
  for (const auto& [prefix, total] : totals)
    flush_sim_counters(reg, prefix, total);
}

SweepPoint finalize_point(const ExperimentConfig& cfg, const PointSpec& spec,
                          const PointOutcomes& outcomes) {
  SweepPoint point;
  point.x = spec.x;
  point.deadline = spec.deadline;
  point.worst_makespan = spec.off->worst_makespan();
  const std::size_t nschemes = cfg.schemes.size();
  point.stats.resize(nschemes);
  for (std::size_t s = 0; s < nschemes; ++s)
    point.stats[s].scheme = cfg.schemes[s];

  // Accumulate strictly in run order: identical floating-point results for
  // every thread count, chunk size and point interleaving.
  for (std::size_t run = 0; run < outcomes.npm_energy.size(); ++run) {
    point.npm_energy.add(outcomes.npm_energy[run]);
    if (outcomes.degenerate[run]) ++point.degenerate_runs;
    const SchemeOutcome* row = outcomes.schemes.data() + run * nschemes;
    for (std::size_t s = 0; s < nschemes; ++s) {
      const SchemeOutcome& so = row[s];
      SchemeStats& st = point.stats[s];
      if (so.has_norm) st.norm_energy.add(so.norm_energy);
      st.speed_changes.add(so.speed_changes);
      st.finish_frac.add(so.finish_frac);
      if (so.has_fracs) {
        st.busy_frac.add(so.busy_frac);
        st.overhead_frac.add(so.overhead_frac);
        st.idle_frac.add(so.idle_frac);
      }
      if (so.missed) ++st.deadline_misses;
      if (so.verify_failed) ++st.verify_failures;
    }
  }
  return point;
}

CanonicalOptions canonical_options(const ExperimentConfig& cfg) {
  CanonicalOptions opt;
  opt.cpus = cfg.cpus;
  opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
  opt.heuristic = cfg.heuristic;
  return opt;
}

}  // namespace

std::vector<SweepPoint> run_points(std::span<const PointSpec> specs,
                                   const ExperimentConfig& cfg,
                                   const PointDone& on_point) {
  validate_config(cfg);
  const auto model_of = [&](const PointSpec& spec) -> const ExperimentConfig& {
    return spec.config != nullptr ? *spec.config : cfg;
  };
  for (const PointSpec& spec : specs) {
    PASERTA_REQUIRE(model_of(spec).runs >= 1, "need at least one run");
    PASERTA_REQUIRE(spec.deadline > SimTime::zero(),
                    "deadline must be positive");
  }
  if (specs.empty()) return {};

  std::vector<PointPlan> plans(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p)
    plans[p].model = &model_of(specs[p]);
  const int batch_lanes = batch_lanes_for(cfg);

  // --- Observability. Everything in this block is write-only for the
  // simulation (see the determinism contract in obs/metrics.h): the
  // workers below behave identically whether it is active or not.
  MetricsRegistry* const reg =
      cfg.collect_metrics
          ? (cfg.registry != nullptr ? cfg.registry
                                     : &MetricsRegistry::global())
          : nullptr;
  Tracer* const tracer = cfg.tracer;
  Tracer* const run_tracer = traces_runs(cfg) ? tracer : nullptr;
  PoolTelemetry tel;
  const PoolTelemetry* telp = nullptr;
  if (reg != nullptr) {
    tel.chunks = &reg->counter("pool.chunks_completed");
    tel.chunk_seconds =
        &reg->histogram("pool.chunk_seconds", kChunkSecondsBounds);
    tel.busy_ns = &reg->counter("pool.busy_ns");
    tel.idle_ns = &reg->counter("pool.idle_ns");
  }
  tel.progress = cfg.progress;
  // Phase profiler: resolve every phase id once, before the workers start
  // (Profiler::phase takes a mutex; the hot paths then index by id). The
  // pool.* phases are top-level — together with harness.compile/finalize
  // they tile this call's wall time; harness.* / batch.* run-phases are
  // nested inside pool.busy.
  Profiler* const prof = cfg.prof;
  RunObs obs_proto;
  int ph_setup = -1;
  if (prof != nullptr) {
    tel.prof = prof;
    tel.ph_claim = prof->phase("pool.claim", /*top_level=*/true);
    tel.ph_busy = prof->phase("pool.busy", /*top_level=*/true);
    tel.ph_idle = prof->phase("pool.idle", /*top_level=*/true);
    ph_setup = prof->phase("harness.setup", /*top_level=*/true);
    obs_proto.prof = prof;
    obs_proto.ph_sample = prof->phase("harness.sample");
    obs_proto.ph_simulate = prof->phase("harness.simulate");
    obs_proto.ph_flush = prof->phase("harness.stage_flush");
    obs_proto.ph_batch_setup = prof->phase("batch.setup");
    obs_proto.ph_batch_drain = prof->phase("batch.drain");
  }
  if (reg != nullptr || cfg.progress != nullptr || prof != nullptr)
    telp = &tel;

  // Everything between here and the pool run that is not sampler
  // compilation is per-run storage allocation, kernel plans and dedup
  // plumbing; charge it as harness.setup (two scope entries, split around
  // the compile) so the top-level phases keep tiling the call.
  auto setup_scope = std::make_optional<ProfScope>(prof, ph_setup, 0);

  // One power model per distinct point config, and one compiled sampler
  // per distinct application: load-sweep points share both, so a 10-point
  // sweep builds exactly one of each. Samplers are compiled up front on
  // the driving thread; workers clone their own private copies from these
  // masters (WorkerCtx::samplers) instead of reading them shared.
  std::vector<PowerModel> pms;
  std::vector<const ExperimentConfig*> pm_models;
  for (PointPlan& plan : plans) {
    std::size_t j = 0;
    while (j < pm_models.size() && pm_models[j] != plan.model) ++j;
    if (j == pm_models.size()) {
      pm_models.push_back(plan.model);
      pms.emplace_back(plan.model->table, plan.model->c_ef,
                       plan.model->idle_fraction);
    }
    plan.pm = j;
  }
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  std::vector<const Application*> sampler_apps;
  {
    TraceSpan span(tracer, 0, "compile_samplers");
    setup_scope.reset();  // close the setup stretch around the compile
    ProfScope ps(prof, prof != nullptr ? prof->phase("harness.compile", true)
                                       : -1,
                 0);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::size_t j = 0;
      while (j < sampler_apps.size() && sampler_apps[j] != specs[i].app) ++j;
      if (j == sampler_apps.size()) {
        sampler_apps.push_back(specs[i].app);
        samplers.push_back(
            std::make_unique<ScenarioSampler>(specs[i].app->graph));
      }
      plans[i].sampler = j;
    }
  }
  setup_scope.emplace(prof, ph_setup, 0);  // the rest of the set-up

  // Dedup resolution (DESIGN.md §15), per point: the scenario space is a
  // sampler property, the rest is the point's model.
  bool any_dedup = false;
  for (PointPlan& plan : plans) {
    plan.dedup = dedup_for(*plan.model, run_tracer != nullptr,
                           samplers[plan.sampler]->scenario_space());
    any_dedup = any_dedup || plan.dedup;
  }

  // Groups: points that draw the identical scenario stream (same sampler,
  // seed and run count) share every draw. The dedup filter decides per
  // point which draws reach the engine, so a dedup point is a group of its
  // own.
  std::vector<PointGroup> groups;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    PointPlan& plan = plans[p];
    std::size_t g = plan.dedup ? groups.size() : 0;
    for (; g < groups.size(); ++g) {
      const PointPlan& lead = plans[groups[g].points.front()];
      if (!lead.dedup && lead.sampler == plan.sampler &&
          lead.model->seed == plan.model->seed &&
          lead.model->runs == plan.model->runs)
        break;
    }
    if (g == groups.size()) groups.emplace_back();
    plan.group = g;
    groups[g].points.push_back(p);
  }

  // Two bounds, both summed in 64 bits ((runs + chunk - 1) alone can
  // overflow int for runs near INT_MAX) and both checked before any per-run
  // storage is allocated. The per-run storage is each point's own, so the
  // call is bounded by the points' chunk counts, each point counted alone —
  // the same calls are refused whether or not their points share draws.
  // The flat chunk space, the prefix sum of the groups' chunk counts, is
  // the pool's int chunk index; a group's count is one of its points', so
  // the first bound implies the second.
  const auto chunks_of = [](int runs, int chunk) {
    return (static_cast<std::int64_t>(runs) + chunk - 1) / chunk;
  };
  std::int64_t point_chunks = 0;
  for (const PointPlan& plan : plans)
    point_chunks += chunks_of(plan.model->runs,
                              chunk_size_for(plan.model->runs, cfg));
  PASERTA_REQUIRE(point_chunks <= std::numeric_limits<int>::max(),
                  "call too large: "
                      << specs.size() << " points need " << point_chunks
                      << " chunks of per-run storage, counting each point "
                         "alone (chunk_runs="
                      << cfg.chunk_runs
                      << ") — raise chunk_runs or split the sweep");
  std::int64_t group_chunks = 0;
  for (PointGroup& group : groups) {
    const int runs = plans[group.points.front()].model->runs;
    group.chunk = chunk_size_for(runs, cfg);
    group.chunk_begin = static_cast<int>(group_chunks);  // checked below
    group_chunks += chunks_of(runs, group.chunk);
  }
  PASERTA_REQUIRE(group_chunks <= std::numeric_limits<int>::max(),
                  "chunk space overflows int: "
                      << groups.size() << " groups, " << group_chunks
                      << " chunks (chunk_runs=" << cfg.chunk_runs << ")");
  const int total_chunks = static_cast<int>(group_chunks);
  const int max_workers = std::min(cfg.threads, total_chunks);
  const int claim_batch = claim_batch_for(total_chunks, max_workers);
  if (cfg.progress != nullptr) cfg.progress->add_total(total_chunks);

  // Engine-counter cells, one SimCounters row (schemes + NPM) per
  // (point, slot): each worker accumulates into its own slot's row without
  // synchronization, and the rows are summed in fixed slot order after the
  // join, so the totals are thread-count independent.
  const std::size_t nslots =
      static_cast<std::size_t>(std::max(1, max_workers));
  std::size_t ncells_total = 0;
  for (PointPlan& plan : plans) {
    plan.cell_begin = ncells_total;
    ncells_total += nslots * (plan.model->schemes.size() + 1);
  }
  std::vector<SimCounters> cells(cfg.collect_metrics ? ncells_total : 0);

  // Preallocate every per-run slot before the workers start, so the run
  // loop itself writes in place without allocating.
  std::vector<PointOutcomes> outcomes;
  outcomes.reserve(specs.size());
  for (const PointPlan& plan : plans)
    outcomes.emplace_back(plan.model->runs, plan.model->schemes.size());

  // Kernel plans: one per (point, scheme) and the point's NPM baseline,
  // built once here instead of once per engine call. Schemes whose plans
  // are equal share one engine call per lane group — unless the point
  // needs per-run engine work for each scheme (verify_traces, audit, a
  // per-run tracer span), where every scheme keeps its own call.
  for (std::size_t p = 0; p < specs.size(); ++p) {
    PointPlan& plan = plans[p];
    const ExperimentConfig& model = *plan.model;
    const PointSpec& spec = specs[p];
    const std::size_t nschemes = model.schemes.size();
    plan.kernels.resize(nschemes + 1);
    for (std::size_t c = 0; c <= nschemes; ++c) {
      const auto policy = make_policy(
          c == nschemes ? Scheme::NPM : model.schemes[c], model.policy_options);
      policy->reset(*spec.off, pms[plan.pm]);
      plan.kernels[c].assign(*spec.app, *spec.off, pms[plan.pm],
                             model.overheads, *policy);
    }
    const bool share =
        !(model.verify_traces || model.audit || run_tracer != nullptr);
    plan.leader.resize(nschemes + 1);
    for (std::size_t i = 0; i <= nschemes; ++i) {
      const std::size_t c = engine_cell(i, nschemes);
      plan.leader[c] = static_cast<std::uint32_t>(c);
      for (std::size_t j = 0; share && j < i; ++j) {
        const std::size_t e = engine_cell(j, nschemes);
        if (plan.leader[e] == e &&
            plan.kernels[e].same_rule(plan.kernels[c])) {
          plan.leader[c] = static_cast<std::uint32_t>(e);
          break;
        }
      }
    }
  }

  // Dedup stores: when any point dedups, each (group, slot) pair gets a
  // lazily created single-threaded OutcomeShard; with more than one
  // worker, each dedup group (one point) additionally gets a shared publish
  // store so slots can adopt each other's simulated records instead of
  // re-simulating.
  std::vector<std::unique_ptr<OutcomeShard>> shards(
      any_dedup ? groups.size() * nslots : 0);
  std::vector<std::unique_ptr<SharedOutcomes>> shared_stores(
      any_dedup && max_workers > 1 ? groups.size() : 0);
  for (std::size_t g = 0; g < shared_stores.size(); ++g) {
    const PointPlan& lead = plans[groups[g].points.front()];
    if (lead.dedup)
      shared_stores[g] = std::make_unique<SharedOutcomes>(
          samplers[lead.sampler]->op_count());
  }

  std::vector<std::unique_ptr<WorkerCtx>> ctxs(nslots);

  // A point's statistics, PointMetrics and dedup totals, from its outcomes,
  // counter cells and dedup shards — read only once every chunk of the
  // point's group is done.
  std::vector<SweepPoint> points(specs.size());
  const auto finish = [&](std::size_t p) {
    const PointPlan& plan = plans[p];
    const std::size_t nschemes = plan.model->schemes.size();
    points[p] = finalize_point(*plan.model, specs[p], outcomes[p]);
    if (cfg.collect_metrics) {
      // Sum the slot cells in fixed slot order (integer adds: the order
      // would not matter anyway, but keep it canonical).
      PointMetrics& m = points[p].metrics;
      m.schemes.resize(nschemes);
      for (std::size_t slot = 0; slot < nslots; ++slot) {
        const SimCounters* cell =
            cells.data() + plan.cell_begin + slot * (nschemes + 1);
        for (std::size_t s = 0; s < nschemes; ++s) m.schemes[s].add(cell[s]);
        m.npm.add(cell[nschemes]);
      }
    }
    if (plan.dedup) {
      // A dedup point is its own group: the group's stores are the point's.
      DedupStats& d = points[p].dedup;
      d.enabled = true;
      for (std::size_t slot = 0; slot < nslots; ++slot) {
        const auto& shard = shards[plan.group * nslots + slot];
        if (!shard) continue;
        d.hits += shard->hits;
        d.misses += shard->misses;
        d.bytes += shard->bytes();
      }
      if (!shared_stores.empty() && shared_stores[plan.group])
        d.bytes += shared_stores[plan.group]->bytes();
    }
  };

  // Early delivery (on_point): each group counts down its unfinished
  // chunks; the slot that finishes one releases everything it wrote for
  // the group's points, and the calling thread (slot 0), between its own
  // chunks, finishes and hands over every point of the done prefix.
  std::unique_ptr<std::atomic<int>[]> pending;
  std::size_t delivered = 0;
  if (on_point) {
    pending = std::make_unique<std::atomic<int>[]>(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const int end = g + 1 < groups.size() ? groups[g + 1].chunk_begin
                                            : total_chunks;
      pending[g].store(end - groups[g].chunk_begin, std::memory_order_relaxed);
    }
  }
  const auto deliver_done_prefix = [&] {
    while (delivered < specs.size() &&
           pending[plans[delivered].group].load(std::memory_order_acquire) ==
               0) {
      finish(delivered);
      on_point(delivered, points[delivered]);
      ++delivered;
    }
  };

  const auto body = [&](int c, int slot) {
    auto& ctx = ctxs[static_cast<std::size_t>(slot)];
    if (!ctx) ctx = std::make_unique<WorkerCtx>(samplers.size());
    // The group owning flat chunk c: the last group starting at or before c.
    const auto g = static_cast<std::size_t>(
        std::upper_bound(groups.begin(), groups.end(), c,
                         [](int chunk, const PointGroup& group) {
                           return chunk < group.chunk_begin;
                         }) -
        groups.begin() - 1);
    const PointGroup& group = groups[g];
    const PointPlan& lead = plans[group.points.front()];
    const int runs = lead.model->runs;
    const int first = (c - group.chunk_begin) * group.chunk;
    const int count = std::min(runs - first, group.chunk);
    TraceSpan chunk_span(tracer, slot, "chunk",
                         static_cast<std::int64_t>(group.points.front()),
                         first);
    // The slot's private sampler copy for this group's application,
    // cloned from the shared master on first use.
    auto& sampler_copy = ctx->samplers[lead.sampler];
    if (!sampler_copy)
      sampler_copy = std::make_unique<ScenarioSampler>(*samplers[lead.sampler]);
    // Evaluate the whole chunk into slot-private staging, one stage per
    // member, then flush each into the shared run-major store with one bulk
    // copy per array: the per-run loop touches no shared mutable memory.
    if (ctx->stages.size() < group.points.size())
      ctx->stages.resize(group.points.size());
    ctx->members.resize(group.points.size());
    const std::span<ChunkMember> members(ctx->members);
    for (std::size_t i = 0; i < group.points.size(); ++i) {
      const std::size_t p = group.points[i];
      const PointPlan& plan = plans[p];
      const std::size_t nschemes = plan.model->schemes.size();
      ChunkMember& m = members[i];
      m.spec = &specs[p];
      m.plan = &plan;
      m.stage = &ctx->stages[i];
      m.stage->ensure(group.chunk, nschemes);
      m.obs = obs_proto;
      m.obs.run_tracer = run_tracer;
      m.obs.slot = slot;
      m.obs.point = static_cast<std::int64_t>(p);
      if (!cells.empty())
        m.obs.cells = cells.data() + plan.cell_begin +
                      static_cast<std::size_t>(slot) * (nschemes + 1);
    }
    // The dedup filter's shard is created by the owning slot's own thread,
    // like the rest of its worker-local state.
    OutcomeShard* shard = nullptr;
    SharedOutcomes* shared = nullptr;
    if (lead.dedup) {
      auto& sh = shards[g * nslots + static_cast<std::size_t>(slot)];
      if (!sh)
        sh = std::make_unique<OutcomeShard>(sampler_copy->op_count());
      shard = sh.get();
      if (!shared_stores.empty()) shared = shared_stores[g].get();
    }
    evaluate_chunk(members, *sampler_copy, lead.model->seed, first, count,
                   batch_lanes, *ctx, shard, shared);
    {
      ProfScope ps(obs_proto.prof, obs_proto.ph_flush, slot);
      for (std::size_t i = 0; i < group.points.size(); ++i)
        members[i].stage->flush(outcomes[group.points[i]], first, count,
                                plans[group.points[i]].model->schemes.size());
    }
    if (pending) {
      pending[g].fetch_sub(1, std::memory_order_acq_rel);
      if (slot == 0) deliver_done_prefix();
    }
  };

  setup_scope.reset();
  {
    TraceSpan span(tracer, 0, "monte_carlo");
    if (max_workers <= 1) {
      // Fully serial: never touches (or instantiates) the process pool.
      WorkerPool::serial_chunks(total_chunks, body, telp);
    } else {
      WorkerPool& pool = WorkerPool::process_pool();
      pool.ensure_threads(max_workers - 1);
      pool.parallel_chunks(total_chunks, max_workers, body, telp,
                           claim_batch);
    }
  }

  // The points not delivered from inside the loop: all of them without
  // on_point, else those the helpers finished after slot 0's last chunk.
  TraceSpan span(tracer, 0, "finalize");
  ProfScope ps(prof, prof != nullptr ? prof->phase("harness.finalize", true)
                                     : -1,
               0);
  for (; delivered < specs.size(); ++delivered) {
    finish(delivered);
    if (on_point) on_point(delivered, points[delivered]);
  }
  if (reg != nullptr) {
    flush_engine_counters(*reg, plans, points);
    if (any_dedup) {
      std::uint64_t hits = 0, misses = 0, bytes = 0;
      for (const SweepPoint& pt : points) {
        hits += pt.dedup.hits;
        misses += pt.dedup.misses;
        bytes += pt.dedup.bytes;
      }
      reg->counter("engine.dedup.hits").add(0, hits);
      reg->counter("engine.dedup.misses").add(0, misses);
      reg->counter("engine.dedup.bytes").add(0, bytes);
    }
  }
  return points;
}

SimTime deadline_for(SimTime worst_makespan, double load) {
  PASERTA_REQUIRE(load > 0.0, "load must be positive, got " << load);
  return SimTime{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(worst_makespan.ps) / load))};
}

const CanonicalAnalysis& cached_analysis(const Application& app,
                                         const ExperimentConfig& cfg,
                                         OfflineCache& cache) {
  const std::uint64_t h0 = cache.hits();
  const std::uint64_t m0 = cache.misses();
  const CanonicalAnalysis* canon = nullptr;
  {
    Profiler* const prof = cfg.prof;
    ProfScope ps(prof,
                 prof != nullptr ? prof->phase("offline.analyze", true) : -1,
                 0);
    canon = &cache.get(app, canonical_options(cfg));
  }
  if (cfg.collect_metrics) {
    // Shared caches export each lookup's own delta, not their history.
    MetricsRegistry& reg =
        cfg.registry != nullptr ? *cfg.registry : MetricsRegistry::global();
    reg.counter("offline.cache.hits").add(0, cache.hits() - h0);
    reg.counter("offline.cache.misses").add(0, cache.misses() - m0);
  }
  return *canon;
}

int resolved_batch_lanes(const ExperimentConfig& config) {
  return batch_lanes_for(config);
}

bool resolved_dedup(const ExperimentConfig& config,
                    std::uint64_t scenario_space) {
  return dedup_for(config, traces_runs(config), scenario_space);
}

SweepPoint run_point(const Application& app, const ExperimentConfig& cfg,
                     SimTime deadline, double x_value, OfflineCache* cache) {
  validate_config(cfg);
  PASERTA_REQUIRE(deadline > SimTime::zero(), "deadline must be positive");

  Profiler* const prof = cfg.prof;
  OfflineResult off;
  {
    TraceSpan span(cfg.tracer, 0, "offline_analysis");
    if (cache != nullptr) {
      const CanonicalAnalysis& canon = cached_analysis(app, cfg, *cache);
      ProfScope ps(prof,
                   prof != nullptr ? prof->phase("offline.apply", true) : -1,
                   0);
      off = apply_deadline(canon, deadline);
    } else {
      OfflineOptions opt;
      opt.cpus = cfg.cpus;
      opt.deadline = deadline;
      opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
      opt.heuristic = cfg.heuristic;
      ProfScope ps(prof,
                   prof != nullptr ? prof->phase("offline.analyze", true) : -1,
                   0);
      off = analyze_offline(app, opt);
    }
  }

  PointSpec spec;
  spec.app = &app;
  spec.off = &off;
  spec.deadline = deadline;
  spec.x = x_value;
  return run_points({&spec, 1}, cfg).front();
}

std::vector<SweepPoint> sweep_load(const Application& app,
                                   const ExperimentConfig& cfg,
                                   const std::vector<double>& loads) {
  validate_config(cfg);
  TraceSpan sweep_span(cfg.tracer, 0, "sweep_load");
  // One canonical (round-1) analysis for the whole sweep: only the
  // deadline varies across points, and the deadline enters the offline
  // data solely through the cheap round-2 shift.
  Profiler* const prof = cfg.prof;
  OfflineCache cache;
  const CanonicalAnalysis* canon_ptr = nullptr;
  {
    TraceSpan span(cfg.tracer, 0, "offline_analysis");
    canon_ptr = &cached_analysis(app, cfg, cache);
  }
  const CanonicalAnalysis& canon = *canon_ptr;

  const int ph_apply =
      prof != nullptr ? prof->phase("offline.apply", true) : -1;
  std::vector<OfflineResult> offs;
  std::vector<PointSpec> specs;
  offs.reserve(loads.size());
  specs.reserve(loads.size());
  for (double load : loads) {
    const SimTime deadline = deadline_for(canon.worst_makespan(), load);
    {
      ProfScope ps(prof, ph_apply, 0);
      offs.push_back(apply_deadline(canon, deadline));
    }
    PointSpec spec;
    spec.app = &app;
    spec.off = &offs.back();
    spec.deadline = deadline;
    spec.x = load;
    specs.push_back(spec);
  }

  return run_points(specs, cfg);
}

std::vector<SweepPoint> sweep_alpha(const Application& app,
                                    const ExperimentConfig& cfg, double load,
                                    const std::vector<double>& alphas) {
  validate_config(cfg);
  // The deadline derives from WCETs only, so it is alpha-independent:
  // compute it once, before any ACET redraw.
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  const SimTime deadline = deadline_for(w, load);

  // One variant buffer reused across alphas: assign_alpha overwrites every
  // computation node's ACET from its (untouched) WCET, so successive
  // redraws into the same buffer are equivalent to fresh copies. Points
  // therefore run in sequence; their runs still use the worker pool, and
  // each alpha needs its own canonical analysis anyway (ACETs feed the
  // average-case profiles).
  Application variant = app;
  std::vector<SweepPoint> points;
  points.reserve(alphas.size());
  for (std::size_t i = 0; i < alphas.size(); ++i) {
    const double alpha = alphas[i];
    Rng acet_rng(cfg.seed ^ (0x517CC1B727220A95ULL + i));
    assign_alpha(variant.graph, alpha, &acet_rng);
    points.push_back(run_point(variant, cfg, deadline, alpha));
  }
  return points;
}

std::vector<double> sweep_range(double from, double to, double step) {
  PASERTA_REQUIRE(step > 0.0 && from <= to, "invalid sweep range");
  // Integer step index: accumulating `x += step` in floating point drifts
  // across many steps and could emit the endpoint twice when the
  // accumulated value lands within the tolerance just above `to`. The
  // relative tolerance decides whether the endpoint itself sits on the
  // grid (e.g. (1.0 - 0.1) / 0.1 evaluates to 8.999...).
  const double raw = (to - from) / step;
  const auto steps =
      static_cast<std::int64_t>(raw + 1e-9 * std::max(1.0, raw));
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(steps) + 1);
  for (std::int64_t i = 0; i <= steps; ++i)
    xs.push_back(std::min(from + static_cast<double>(i) * step, to));
  return xs;
}

}  // namespace paserta
