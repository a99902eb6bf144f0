#include "harness/experiment.h"

#include <algorithm>
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

  /// Grows the scratch to `chunk_runs` entries (never shrinks, so the
  /// final short chunk of a point reuses the full-size buffers). Entries
  /// are *not* cleared between chunks: the chunk evaluators assign every
  /// field.
  void ensure(int chunk_runs, std::size_t nschemes) {
    const auto n = static_cast<std::size_t>(chunk_runs);
    if (npm_energy.size() >= n) return;
    npm_energy.resize(n);
    degenerate.resize(n);
    schemes.resize(n * nschemes);
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

/// Lanes per simulate_batch call of the chunk pipeline, or 0 for the
/// per-run observed path, which the two configurations that observe the
/// engine per run need: verify_traces (the scalar engine's completeness
/// traversal) and a Tracer::Detail::kRuns tracer (one span per
/// simulation). The lane count is output-invisible (the batched engine is
/// bit-identical to the scalar one at every width), so auto just picks the
/// measured sweet spot: large enough to amortize the per-batch setup
/// (derived tables, devirtualized policy reset) over many runs, small
/// enough that the batch's lane state stays cache-resident on one core.
int batch_lanes_for(const ExperimentConfig& cfg) {
  if (cfg.verify_traces) return 0;
  if (cfg.tracer != nullptr && cfg.tracer->detail() == Tracer::Detail::kRuns)
    return 0;
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

/// Whether `cfg` resolves to dedup for a point whose compiled sampler
/// reports `space` distinct scenarios (0 = unbounded).
bool dedup_for(const ExperimentConfig& cfg, std::uint64_t space) {
  // Replayed runs perform no engine work, so configurations whose purpose
  // is per-run engine work keep the uncached path: the observed path's
  // verify_traces and per-run spans, and audit, which re-accounts every
  // run three ways.
  if (batch_lanes_for(cfg) == 0 || cfg.audit) return false;
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
  /// Phase profiler + pre-registered phase ids (run_point_specs resolves
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
/// staging entry; verify_failed stays false (only the observed path
/// verifies traces). A degenerate run (zero NPM energy: no computation and
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
  ChunkStage stage;
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  // Chunk-pipeline state (sim/batch_engine.h), sized lazily on first use.
  BatchWorkspace batch_ws;
  ScenarioBatch batch_sc;
  std::vector<SimResult> batch_results;
  std::vector<SimCounters> batch_cells;  // audit/dedup: one cell per lane
  // Dedup-filter scratch (DESIGN.md §15), sized lazily on first use.
  std::vector<std::uint64_t> key;  // one fingerprint (op_count words)
  std::vector<std::pair<int, std::uint32_t>> fill;  // (stage idx, record id)
  RecordTmp rec_tmp;  // shared-store reads copy here under the lock
  // Observed-path state (scalar engine), built on first use.
  std::vector<std::unique_ptr<SpeedPolicy>> policies;
  std::unique_ptr<SpeedPolicy> npm;
  SimWorkspace ws;
  RunScenario sc;

  explicit WorkerCtx(std::size_t sampler_count) : samplers(sampler_count) {}
};

/// The per-run observed path: the scalar engine, one run at a time, for
/// the two configurations that need per-run engine observation the
/// batched engine cannot give — verify_traces (the engine's completeness
/// traversal plus a verified trace per run) and a Tracer::Detail::kRuns
/// tracer (one span per simulation). Stages exactly the values the chunk
/// pipeline stages for the same runs.
void evaluate_chunk_observed(const Application& app,
                             const ExperimentConfig& cfg,
                             const OfflineResult& off, const PowerModel& pm,
                             SimTime deadline, const ScenarioSampler& sampler,
                             int first, int count, WorkerCtx& ctx,
                             const RunObs& obs) {
  const std::size_t nschemes = cfg.schemes.size();
  if (!ctx.npm) {
    for (Scheme s : cfg.schemes)
      ctx.policies.push_back(make_policy(s, cfg.policy_options));
    ctx.npm = make_policy(Scheme::NPM);
  }
  // Traces are only materialized when something consumes them: the
  // verifier, and audit's power-curve integral check.
  SimOptions sim_opt;
  sim_opt.record_trace = cfg.verify_traces || cfg.audit;
  sim_opt.check_completeness = cfg.verify_traces;
  sim_opt.audit = cfg.audit;

  // Simulates one scheme of the drawn scenario. Audit runs export into a
  // run-local cell first, so attribution_energy sees exactly one run's
  // ledger; the local is then merged into the slot-owned cell (integer
  // adds — the merged totals are identical to direct accumulation).
  SimCounters audit_cell;
  const auto simulate_one = [&](SpeedPolicy& policy, Scheme scheme,
                                std::size_t cell, int run) {
    SimCounters* const slot_cell =
        obs.cells != nullptr ? obs.cells + cell : nullptr;
    policy.reset(off, pm);
    if (cfg.audit) audit_cell = SimCounters{};
    sim_opt.counters = cfg.audit ? &audit_cell : slot_cell;
    const SimResult r = [&] {
      TraceSpan span(obs.run_tracer, obs.slot, to_string(scheme), obs.point,
                     run);
      return simulate(app, off, pm, cfg.overheads, policy, ctx.sc, ctx.ws,
                      sim_opt);
    }();
    if (cfg.audit) {
      audit_run(app, off, pm, cfg.overheads, audit_cell, r, scheme);
      if (slot_cell != nullptr) slot_cell->add(audit_cell);
    }
    return r;
  };

  for (int k = 0; k < count; ++k) {
    const int run = first + k;
    const auto i = static_cast<std::size_t>(k);
    {
      ProfScope ps(obs.prof, obs.ph_sample, obs.slot);
      Rng run_rng(Rng::stream_seed(cfg.seed, static_cast<std::uint64_t>(run)));
      sampler.draw_into(run_rng, ctx.sc);
    }
    ProfScope ps(obs.prof, obs.ph_simulate, obs.slot);
    const double npm_energy =
        simulate_one(*ctx.npm, Scheme::NPM, nschemes, run).total_energy();
    ctx.stage.npm_energy[i] = npm_energy;
    ctx.stage.degenerate[i] = !(npm_energy > 0.0) ? 1 : 0;
    for (std::size_t s = 0; s < nschemes; ++s) {
      const SimResult r =
          simulate_one(*ctx.policies[s], cfg.schemes[s], s, run);
      SchemeOutcome so = scheme_outcome(r, npm_energy, deadline);
      if (cfg.verify_traces)
        so.verify_failed = !verify_trace(app, off, ctx.sc, r).ok;
      ctx.stage.schemes[i * nschemes + s] = so;
    }
  }
}

/// The chunk pipeline of every configuration without per-run observation:
/// sample a lane group from the slot's sampler, simulate the NPM baseline
/// plus every scheme over it with simulate_batch (`lanes_max` lanes per
/// engine call), and stage the rows. With a `shard`, the dedup filter
/// (DESIGN.md §15) sits in front of the engine: each draw also emits its
/// fingerprint, a repeated scenario is queued for replay, a record another
/// slot already published is adopted, and only a first encounter takes a
/// lane — duplicates never reach the engine. The group's rows then land in
/// the shard's record arena, and every queued run is replayed from there
/// into the stage. Either way the staged values and integer counter sums
/// are exactly what simulating every run would produce.
void evaluate_chunk(const Application& app, const ExperimentConfig& cfg,
                    const OfflineResult& off, const PowerModel& pm,
                    SimTime deadline, const ScenarioSampler& sampler,
                    int first, int count, int lanes_max, WorkerCtx& ctx,
                    const RunObs& obs, OutcomeShard* shard,
                    SharedOutcomes* shared) {
  const std::size_t nschemes = cfg.schemes.size();
  const std::size_t ncells = nschemes + 1;
  const bool metrics = obs.cells != nullptr;
  // Per-lane counter cells: audit checks each run's ledger alone, and a
  // dedup record caches exactly one run's counters, so replay adds
  // per-run quantities.
  const bool lane_cells = cfg.audit || (shard != nullptr && metrics);
  // A group never holds more lanes than the chunk has runs.
  const auto group_max = static_cast<std::size_t>(std::min(lanes_max, count));
  if (ctx.batch_results.size() < group_max)
    ctx.batch_results.resize(group_max);
  ctx.batch_sc.ensure(group_max, app.graph.size());
  if (shard != nullptr) ctx.key.resize(sampler.op_count());
  const std::uint64_t miss0 = shard != nullptr ? shard->misses : 0;

  // Simulates lanes [0, nlanes) — the NPM baseline first (its energies
  // normalize the others), then every scheme — and writes lane l's record
  // to npm_out[l], degenerate_out[l], rows_out[l * nschemes + s] and, when
  // rec_cells is set, its counters to rec_cells[l * ncells + cell].
  const auto simulate_group = [&](std::size_t nlanes, double* npm_out,
                                  std::uint8_t* degenerate_out,
                                  SchemeOutcome* rows_out,
                                  SimCounters* rec_cells) {
    const auto run_scheme = [&](Scheme scheme, std::size_t cell) {
      ProfScope ps(obs.prof, obs.ph_simulate, obs.slot);
      SimCounters* const slot_cell = metrics ? obs.cells + cell : nullptr;
      BatchSimOptions bo;
      bo.record_trace = cfg.audit;
      bo.audit = cfg.audit;
      bo.prof = obs.prof;
      bo.ph_setup = obs.ph_batch_setup;
      bo.ph_drain = obs.ph_batch_drain;
      bo.slot = obs.slot;
      if (lane_cells) {
        ctx.batch_cells.assign(nlanes, SimCounters{});
        bo.lane_cells = ctx.batch_cells.data();
      } else {
        bo.shared_cell = slot_cell;
      }
      simulate_batch(app, off, pm, cfg.overheads, scheme, cfg.policy_options,
                     ctx.batch_sc, nlanes, ctx.batch_ws,
                     ctx.batch_results.data(), bo);
      if (!lane_cells) return;
      for (std::size_t l = 0; l < nlanes; ++l) {
        if (cfg.audit)
          audit_run(app, off, pm, cfg.overheads, ctx.batch_cells[l],
                    ctx.batch_results[l], scheme);
        if (rec_cells != nullptr)
          rec_cells[l * ncells + cell] = ctx.batch_cells[l];
        else if (slot_cell != nullptr)
          slot_cell->add(ctx.batch_cells[l]);
      }
    };

    run_scheme(Scheme::NPM, nschemes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      const double npm_energy = ctx.batch_results[l].total_energy();
      npm_out[l] = npm_energy;
      degenerate_out[l] = !(npm_energy > 0.0) ? 1 : 0;
    }
    for (std::size_t s = 0; s < nschemes; ++s) {
      run_scheme(cfg.schemes[s], s);
      for (std::size_t l = 0; l < nlanes; ++l)
        rows_out[l * nschemes + s] =
            scheme_outcome(ctx.batch_results[l], npm_out[l], deadline);
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
      ProfScope ps(obs.prof, obs.ph_sample, obs.slot);
      for (; k < count && lanes < lanes_max; ++k) {
        Rng run_rng(Rng::stream_seed(
            cfg.seed, static_cast<std::uint64_t>(first + k)));
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
            shared->find_copy(ctx.key.data(), nschemes, ncells, metrics,
                              ctx.rec_tmp)) {
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
      simulate_group(nlanes, ctx.stage.npm_energy.data() + g,
                     ctx.stage.degenerate.data() + g,
                     ctx.stage.schemes.data() + g * nschemes, nullptr);
      continue;
    }
    if (nlanes > 0) {
      // intern assigned the group's ids densely in lane order, so lane l's
      // record id is base + l.
      const std::size_t base = shard->record_count();
      shard->npm_energy.resize(base + nlanes);
      shard->degenerate.resize(base + nlanes);
      shard->rows.resize((base + nlanes) * nschemes);
      if (metrics) shard->cells.resize((base + nlanes) * ncells);
      simulate_group(nlanes, shard->npm_energy.data() + base,
                     shard->degenerate.data() + base,
                     shard->rows.data() + base * nschemes,
                     metrics ? shard->cells.data() + base * ncells : nullptr);
      if (shared != nullptr)
        for (std::size_t l = 0; l < nlanes; ++l)
          shard->pending.push_back(static_cast<std::uint32_t>(base + l));
      shard->misses += nlanes;
    }
    for (const auto& [idx, id] : ctx.fill)
      replay_record(*shard, id, ctx.stage, static_cast<std::size_t>(idx),
                    nschemes, obs.cells, ncells);
    ctx.fill.clear();
    if (adopt_run >= 0) {
      append_record(*shard, ctx.rec_tmp, metrics);
      replay_record(*shard, adopt_id, ctx.stage,
                    static_cast<std::size_t>(adopt_run), nschemes, obs.cells,
                    ncells);
    }
  }
  if (shard == nullptr) return;
  shard->hits += static_cast<std::uint64_t>(count) - (shard->misses - miss0);
  if (shared != nullptr) shared->publish(*shard, nschemes, ncells, metrics);
}

/// One prepared sweep point: the (application, offline result, deadline)
/// triple the Monte-Carlo loop needs. Pointees must outlive the call.
struct PointSpec {
  const Application* app = nullptr;
  const OfflineResult* off = nullptr;
  SimTime deadline{};
  double x = 0.0;
};

int chunk_size_for(const ExperimentConfig& cfg) {
  if (cfg.chunk_runs > 0) return cfg.chunk_runs;
  // Auto: batch enough runs per claim that the shared counter (and the
  // chunk-boundary cache lines of the shared outcome store) are touched
  // O(threads) times per point, not O(runs) — about 8 chunks per worker
  // per point. Floored at 16 so short points still balance, capped so
  // progress ticks and tail imbalance stay bounded. Any value is
  // output-identical; this is purely a scheduling knob.
  const std::int64_t target =
      static_cast<std::int64_t>(cfg.runs) /
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

/// The shared Monte-Carlo loop: evaluates every (point, run) pair of
/// `specs` by claiming chunked run ranges from the worker pool. The flat
/// chunk space spans all points, so independent points overlap and the
/// pool stays saturated even when `cfg.runs` is small.
std::vector<SweepPoint> run_point_specs(std::span<const PointSpec> specs,
                                        const ExperimentConfig& cfg) {
  validate_config(cfg);
  for (const PointSpec& spec : specs)
    PASERTA_REQUIRE(spec.deadline > SimTime::zero(),
                    "deadline must be positive");
  if (specs.empty()) return {};

  const PowerModel pm(cfg.table, cfg.c_ef, cfg.idle_fraction);
  const int runs = cfg.runs;
  const int chunk = chunk_size_for(cfg);
  // The flat chunk space spans all points, so its size is the *product*
  // of two int-ranged quantities: do the arithmetic in 64 bits and reject
  // configurations whose chunk space does not fit the pool's int chunk
  // indices — before any per-run storage is allocated. (runs + chunk - 1
  // alone can overflow int for runs near INT_MAX.)
  const std::int64_t chunks_per_point64 =
      (static_cast<std::int64_t>(runs) + chunk - 1) / chunk;
  const std::int64_t total_chunks64 =
      chunks_per_point64 * static_cast<std::int64_t>(specs.size());
  PASERTA_REQUIRE(
      total_chunks64 <= std::numeric_limits<int>::max(),
      "chunk space overflows int: " << specs.size() << " points x "
                                    << chunks_per_point64
                                    << " chunks/point (runs=" << runs
                                    << ", chunk=" << chunk
                                    << ") — raise chunk_runs or split the "
                                       "sweep");
  const int chunks_per_point = static_cast<int>(chunks_per_point64);
  const int total_chunks = static_cast<int>(total_chunks64);
  const int max_workers = std::min(cfg.threads, total_chunks);
  const int claim_batch = claim_batch_for(total_chunks64, max_workers);
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
  Tracer* const run_tracer =
      (tracer != nullptr && tracer->detail() == Tracer::Detail::kRuns)
          ? tracer
          : nullptr;
  PoolTelemetry tel;
  const PoolTelemetry* telp = nullptr;
  if (reg != nullptr) {
    tel.chunks = &reg->counter("pool.chunks_completed");
    tel.chunk_seconds =
        &reg->histogram("pool.chunk_seconds", kChunkSecondsBounds);
    tel.busy_ns = &reg->counter("pool.busy_ns");
    tel.idle_ns = &reg->counter("pool.idle_ns");
  }
  if (cfg.progress != nullptr) {
    tel.progress = cfg.progress;
    cfg.progress->add_total(total_chunks);
  }
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
  // compilation is per-run storage allocation and dedup plumbing; charge
  // it as harness.setup (two scope entries, split around the compile) so
  // the top-level phases keep tiling the call.
  auto setup_scope = std::make_optional<ProfScope>(prof, ph_setup, 0);

  // Engine-counter cells, one SimCounters row (schemes + NPM) per
  // (point, slot): each worker accumulates into its own slot's row without
  // synchronization, and the rows are summed in fixed slot order after the
  // join, so the totals are thread-count independent.
  const std::size_t nslots =
      static_cast<std::size_t>(std::max(1, max_workers));
  const std::size_t nschemes = cfg.schemes.size();
  const std::size_t ncells = nschemes + 1;  // + NPM baseline
  std::vector<SimCounters> cells(
      cfg.collect_metrics ? specs.size() * nslots * ncells : 0);

  // Preallocate every per-run slot before the workers start, so the run
  // loop itself writes in place without allocating.
  std::vector<PointOutcomes> outcomes;
  outcomes.reserve(specs.size());
  for (std::size_t p = 0; p < specs.size(); ++p)
    outcomes.emplace_back(runs, cfg.schemes.size());

  // One compiled sampler per distinct application: load-sweep points share
  // one graph, so a 10-point sweep compiles exactly one. Compiled up front
  // on the driving thread; workers clone their own private copies from
  // these masters (WorkerCtx::samplers) instead of reading them shared.
  std::vector<std::unique_ptr<ScenarioSampler>> samplers;
  std::vector<const Application*> sampler_apps;
  std::vector<std::size_t> spec_sampler_idx(specs.size());
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
      spec_sampler_idx[i] = j;
    }
  }
  setup_scope.emplace(prof, ph_setup, 0);  // dedup plumbing + worker slots

  // Dedup resolution (DESIGN.md §15): the scenario space is a sampler
  // property, so resolve once per distinct application and fan out per
  // spec. When any point dedups, each (point, slot) pair gets a lazily
  // created single-threaded OutcomeShard; with more than one worker, each
  // dedup point additionally gets a shared publish store so slots can
  // adopt each other's simulated records instead of re-simulating.
  std::vector<std::uint8_t> spec_dedup(specs.size(), 0);
  bool any_dedup = false;
  {
    std::vector<std::uint8_t> sampler_dedup(samplers.size(), 0);
    for (std::size_t j = 0; j < samplers.size(); ++j)
      sampler_dedup[j] = dedup_for(cfg, samplers[j]->scenario_space()) ? 1 : 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      spec_dedup[i] = sampler_dedup[spec_sampler_idx[i]];
      any_dedup = any_dedup || spec_dedup[i] != 0;
    }
  }
  std::vector<std::unique_ptr<OutcomeShard>> shards(
      any_dedup ? specs.size() * nslots : 0);
  std::vector<std::unique_ptr<SharedOutcomes>> shared_stores(
      any_dedup && max_workers > 1 ? specs.size() : 0);
  for (std::size_t i = 0; i < shared_stores.size(); ++i)
    if (spec_dedup[i])
      shared_stores[i] = std::make_unique<SharedOutcomes>(
          samplers[spec_sampler_idx[i]]->op_count());

  std::vector<std::unique_ptr<WorkerCtx>> ctxs(nslots);

  const auto body = [&](int c, int slot) {
    auto& ctx = ctxs[static_cast<std::size_t>(slot)];
    if (!ctx) ctx = std::make_unique<WorkerCtx>(samplers.size());
    const int p = c / chunks_per_point;
    const int first = (c % chunks_per_point) * chunk;
    const int last = std::min(runs, first + chunk);
    const int count = last - first;
    const PointSpec& spec = specs[static_cast<std::size_t>(p)];
    TraceSpan chunk_span(tracer, slot, "chunk", p, first);
    RunObs obs = obs_proto;
    obs.run_tracer = run_tracer;
    obs.slot = slot;
    obs.point = p;
    if (!cells.empty())
      obs.cells = cells.data() +
                  (static_cast<std::size_t>(p) * nslots +
                   static_cast<std::size_t>(slot)) *
                      ncells;
    // The slot's private sampler copy for this point's application,
    // cloned from the shared master on first use.
    const std::size_t sidx = spec_sampler_idx[static_cast<std::size_t>(p)];
    if (!ctx->samplers[sidx])
      ctx->samplers[sidx] = std::make_unique<ScenarioSampler>(*samplers[sidx]);
    // Evaluate the whole chunk into slot-private staging, then flush it
    // into the shared run-major store with one bulk copy per array: the
    // per-run loop touches no shared mutable memory at all.
    ctx->stage.ensure(chunk, nschemes);
    const ScenarioSampler& sampler = *ctx->samplers[sidx];
    if (batch_lanes == 0) {
      evaluate_chunk_observed(*spec.app, cfg, *spec.off, pm, spec.deadline,
                              sampler, first, count, *ctx, obs);
    } else {
      // The dedup filter's shard is created by the owning slot's own
      // thread, like the rest of its worker-local state.
      OutcomeShard* shard = nullptr;
      SharedOutcomes* shared = nullptr;
      if (spec_dedup[static_cast<std::size_t>(p)] != 0) {
        auto& sh = shards[static_cast<std::size_t>(p) * nslots +
                          static_cast<std::size_t>(slot)];
        if (!sh) sh = std::make_unique<OutcomeShard>(sampler.op_count());
        shard = sh.get();
        if (!shared_stores.empty())
          shared = shared_stores[static_cast<std::size_t>(p)].get();
      }
      evaluate_chunk(*spec.app, cfg, *spec.off, pm, spec.deadline, sampler,
                     first, count, batch_lanes, *ctx, obs, shard, shared);
    }
    {
      ProfScope ps(obs.prof, obs.ph_flush, slot);
      ctx->stage.flush(outcomes[static_cast<std::size_t>(p)], first, count,
                       nschemes);
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

  std::vector<SweepPoint> points;
  points.reserve(specs.size());
  {
    TraceSpan span(tracer, 0, "finalize");
    ProfScope ps(prof, prof != nullptr ? prof->phase("harness.finalize", true)
                                       : -1,
                 0);
    for (std::size_t p = 0; p < specs.size(); ++p) {
      points.push_back(finalize_point(cfg, specs[p], outcomes[p]));
      if (cfg.collect_metrics) {
        // Sum the slot cells in fixed slot order (integer adds: the order
        // would not matter anyway, but keep it canonical).
        PointMetrics& m = points.back().metrics;
        m.schemes.resize(nschemes);
        for (std::size_t slot = 0; slot < nslots; ++slot) {
          const SimCounters* cell =
              cells.data() + (p * nslots + slot) * ncells;
          for (std::size_t s = 0; s < nschemes; ++s)
            m.schemes[s].add(cell[s]);
          m.npm.add(cell[nschemes]);
        }
      }
      if (spec_dedup[p] != 0) {
        DedupStats& d = points.back().dedup;
        d.enabled = true;
        for (std::size_t slot = 0; slot < nslots; ++slot) {
          const auto& shard = shards[p * nslots + slot];
          if (!shard) continue;
          d.hits += shard->hits;
          d.misses += shard->misses;
          d.bytes += shard->bytes();
        }
        if (!shared_stores.empty() && shared_stores[p])
          d.bytes += shared_stores[p]->bytes();
      }
    }
  }
  if (reg != nullptr) {
    // Counter flushing is part of wrapping the run up — second entry into
    // the finalize phase, so profile attribution covers the whole tail.
    ProfScope ps(prof, prof != nullptr ? prof->phase("harness.finalize", true)
                                       : -1,
                 0);
    for (const SweepPoint& pt : points) {
      for (std::size_t s = 0; s < nschemes; ++s)
        flush_sim_counters(
            *reg, std::string("engine.") + to_string(cfg.schemes[s]),
            pt.metrics.schemes[s]);
      flush_sim_counters(*reg, "engine.NPM", pt.metrics.npm);
    }
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

CanonicalOptions canonical_options(const ExperimentConfig& cfg) {
  CanonicalOptions opt;
  opt.cpus = cfg.cpus;
  opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
  opt.heuristic = cfg.heuristic;
  return opt;
}

SimTime deadline_for(SimTime worst_makespan, double load) {
  PASERTA_REQUIRE(load > 0.0, "load must be positive, got " << load);
  return SimTime{static_cast<std::int64_t>(
      std::ceil(static_cast<double>(worst_makespan.ps) / load))};
}

/// Exports an OfflineCache::get delta as offline.cache.{hits,misses}
/// registry counters (collect_metrics only). Callers snapshot the cache's
/// lifetime counters before their get() calls and pass the snapshot here,
/// so shared caches export each harness call's own lookups, not history.
void export_offline_cache_delta(const ExperimentConfig& cfg,
                                const OfflineCache& cache,
                                std::uint64_t hits0, std::uint64_t misses0) {
  if (!cfg.collect_metrics) return;
  MetricsRegistry& reg =
      cfg.registry != nullptr ? *cfg.registry : MetricsRegistry::global();
  reg.counter("offline.cache.hits").add(0, cache.hits() - hits0);
  reg.counter("offline.cache.misses").add(0, cache.misses() - misses0);
}

}  // namespace

int resolved_batch_lanes(const ExperimentConfig& config) {
  return batch_lanes_for(config);
}

bool resolved_dedup(const ExperimentConfig& config,
                    std::uint64_t scenario_space) {
  return dedup_for(config, scenario_space);
}

SweepPoint run_point(const Application& app, const ExperimentConfig& cfg,
                     SimTime deadline, double x_value, OfflineCache* cache) {
  validate_config(cfg);
  PASERTA_REQUIRE(deadline > SimTime::zero(), "deadline must be positive");

  Profiler* const prof = cfg.prof;
  const int ph_analyze =
      prof != nullptr ? prof->phase("offline.analyze", true) : -1;
  const int ph_apply =
      prof != nullptr ? prof->phase("offline.apply", true) : -1;
  OfflineResult off;
  {
    TraceSpan span(cfg.tracer, 0, "offline_analysis");
    if (cache != nullptr) {
      const std::uint64_t h0 = cache->hits();
      const std::uint64_t m0 = cache->misses();
      const CanonicalAnalysis* canon = nullptr;
      {
        ProfScope ps(prof, ph_analyze, 0);
        canon = &cache->get(app, canonical_options(cfg));
      }
      {
        ProfScope ps(prof, ph_apply, 0);
        off = apply_deadline(*canon, deadline);
      }
      export_offline_cache_delta(cfg, *cache, h0, m0);
    } else {
      OfflineOptions opt;
      opt.cpus = cfg.cpus;
      opt.deadline = deadline;
      opt.overhead_budget = cfg.overheads.worst_case_budget(cfg.table);
      opt.heuristic = cfg.heuristic;
      ProfScope ps(prof, ph_analyze, 0);
      off = analyze_offline(app, opt);
    }
  }

  PointSpec spec;
  spec.app = &app;
  spec.off = &off;
  spec.deadline = deadline;
  spec.x = x_value;
  return run_point_specs({&spec, 1}, cfg).front();
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
    ProfScope ps(prof,
                 prof != nullptr ? prof->phase("offline.analyze", true) : -1,
                 0);
    const std::uint64_t h0 = cache.hits();
    const std::uint64_t m0 = cache.misses();
    canon_ptr = &cache.get(app, canonical_options(cfg));
    export_offline_cache_delta(cfg, cache, h0, m0);
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

  return run_point_specs(specs, cfg);
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
