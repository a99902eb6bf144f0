// Phase-profiler suite (obs/prof.h, DESIGN.md §17) and its determinism
// contract: attaching a Profiler to the harness must not change a single
// output bit of a sweep at any thread count or batch size, the fallback
// clock must produce the same phase structure as the hardware path (only
// the hardware columns go to zero), and the per-(phase, slot) cells must
// merge deterministically. Carries the prof_identity ctest label, which CI
// also runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "apps/synthetic.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/pool.h"
#include "harness/report.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace paserta {
namespace {

// ------------------------------------------------------------ unit layer

TEST(Profiler, PhaseRegistrationIsStableAndOrdered) {
  Profiler prof(Profiler::Mode::kFallback);
  const int a = prof.phase("alpha", /*top_level=*/true);
  const int b = prof.phase("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(prof.phase("alpha"), a);  // find-by-name, not re-register
  EXPECT_EQ(prof.phase("beta"), b);
  EXPECT_FALSE(prof.hardware());

  const std::vector<ProfPhaseTotals> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 2u);  // registration order is snapshot order
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_TRUE(snap[0].top_level);
  EXPECT_EQ(snap[1].name, "beta");
  EXPECT_FALSE(snap[1].top_level);
  EXPECT_EQ(snap[0].count, 0u);
  EXPECT_EQ(snap[0].ns, 0u);
}

TEST(Profiler, NullProfilerScopeIsNoOp) {
  // Call sites stay unconditional: a null profiler must cost one pointer
  // test and record nothing.
  ProfScope scope(nullptr, 0, 0);
}

TEST(Profiler, AddNsAccumulatesAcrossSlots) {
  Profiler prof(Profiler::Mode::kFallback);
  const int p = prof.phase("work");
  prof.add_ns(p, 0, 100, /*count=*/2);
  prof.add_ns(p, 5, 50);
  prof.add_ns(p, Profiler::kSlots - 1, 7);

  const std::vector<ProfPhaseTotals> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 4u);
  EXPECT_EQ(snap[0].ns, 157u);
  EXPECT_EQ(snap[0].cycles, 0u);
}

TEST(Profiler, ScopeChargesWallTimeOnFallbackClock) {
  Profiler prof(Profiler::Mode::kFallback);
  const int p = prof.phase("region", /*top_level=*/true);
  {
    ProfScope scope(&prof, p, 0);
    // Enough work that even a coarse monotonic clock moves.
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 200000; ++i) sink += static_cast<std::uint64_t>(i);
  }
  const std::vector<ProfPhaseTotals> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, 1u);
  EXPECT_GT(snap[0].ns, 0u);
  // Forced fallback: every hardware column stays zero.
  EXPECT_EQ(snap[0].cycles, 0u);
  EXPECT_EQ(snap[0].instructions, 0u);
  EXPECT_EQ(snap[0].cache_refs, 0u);
  EXPECT_EQ(snap[0].cache_misses, 0u);
  EXPECT_EQ(snap[0].branch_misses, 0u);
}

TEST(Profiler, ExportDeltaNeverDoubleCounts) {
  Profiler prof(Profiler::Mode::kFallback);
  const int p = prof.phase("serve.parse");
  prof.add_ns(p, 0, 100, 3);

  MetricsRegistry reg;
  prof.export_delta_to(reg);
  EXPECT_EQ(reg.counter("prof.serve.parse.ns").value(), 100u);
  EXPECT_EQ(reg.counter("prof.serve.parse.count").value(), 3u);

  // A second export with no new work adds nothing (periodic scrapes).
  prof.export_delta_to(reg);
  EXPECT_EQ(reg.counter("prof.serve.parse.ns").value(), 100u);
  EXPECT_EQ(reg.counter("prof.serve.parse.count").value(), 3u);

  prof.add_ns(p, 2, 50);
  prof.export_delta_to(reg);
  EXPECT_EQ(reg.counter("prof.serve.parse.ns").value(), 150u);
  EXPECT_EQ(reg.counter("prof.serve.parse.count").value(), 4u);
}

TEST(Profiler, MergeAcrossPoolSlotsIsExact) {
  // One writer per slot (the shard contract): the per-slot sums — and
  // therefore the snapshot merge, which walks slots in fixed order — are
  // exact for any interleaving. Runs under TSan via the prof_identity
  // label together with concurrent snapshot() reads.
  Profiler prof(Profiler::Mode::kFallback);
  const int p = prof.phase("chunk");
  WorkerPool pool(3);
  const int chunks = 400;
  pool.parallel_chunks(chunks, 4, [&](int chunk, int slot) {
    ProfScope scope(&prof, p, slot);
    prof.add_ns(p, slot, 10, /*count=*/0);  // +10 ns, scope adds the count
    if (chunk % 32 == 0) {
      const std::vector<ProfPhaseTotals> live = prof.snapshot();
      ASSERT_EQ(live.size(), 1u);  // live reads see a consistent table
    }
  });

  const std::vector<ProfPhaseTotals> snap = prof.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, static_cast<std::uint64_t>(chunks));
  EXPECT_GE(snap[0].ns, static_cast<std::uint64_t>(chunks) * 10u);
}

TEST(Profiler, SamplesStayBoundedWithValidSlots) {
  Profiler prof(Profiler::Mode::kFallback);
  const int p = prof.phase("tick");
  for (int i = 0; i < 1000; ++i) ProfScope scope(&prof, p, 0);
  const std::vector<ProfSample> samples = prof.samples();
  EXPECT_LE(samples.size(),
            static_cast<std::size_t>(Profiler::kMaxSamples));
  for (const ProfSample& s : samples) {
    EXPECT_GE(s.slot, 0);
    EXPECT_LT(s.slot, Profiler::kSlots);
  }
}

// --------------------------------------------- harness: identity contract

ExperimentConfig prof_config(int runs, int threads) {
  ExperimentConfig cfg;
  cfg.cpus = 2;
  cfg.runs = runs;
  cfg.threads = threads;
  cfg.seed = 20260808;
  return cfg;
}

/// Full-fidelity serialization of a sweep (CSV + JSON export), the same
/// byte-equality pin the observability suite uses.
std::string serialize_sweep(const std::vector<SweepPoint>& points) {
  std::ostringstream os;
  sweep_table(points, "load").write_csv(os);
  JsonExportOptions jopt;
  jopt.experiment_id = "prof-identity";
  jopt.x_name = "load";
  write_sweep_json(os, points, jopt);
  return os.str();
}

TEST(ProfIdentity, SweepBitIdenticalWithProfilingOnOrOff) {
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = {0.4, 0.8};

  const std::string baseline =
      serialize_sweep(sweep_load(app, prof_config(24, 1), loads));

  for (int threads : {1, 2, 4}) {
    for (int batch : {1, 0}) {
      // kAuto exercises the hardware path where the host grants it and
      // the latched fallback everywhere else; identity must hold in both
      // regimes.
      Profiler prof;
      ExperimentConfig cfg = prof_config(24, threads);
      cfg.batch = batch;
      cfg.prof = &prof;
      const std::string bytes = serialize_sweep(sweep_load(app, cfg, loads));
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " batch=" << batch);
      EXPECT_EQ(bytes, baseline);

      // The profiler itself did fire: the simulate phase saw every run.
      std::uint64_t simulate_count = 0, total_ns = 0;
      for (const ProfPhaseTotals& p : prof.snapshot()) {
        if (p.name == "harness.simulate") simulate_count = p.count;
        total_ns += p.ns;
      }
      EXPECT_GT(simulate_count, 0u);
      EXPECT_GT(total_ns, 0u);
    }
  }
}

TEST(ProfIdentity, FallbackMatchesHardwarePhaseStructure) {
  // The same serial sweep profiled under both clocks: identical output
  // bytes, identical phase tables (names, nesting flags, deterministic
  // entry counts), and the fallback's hardware columns pinned to zero.
  // When the host denies perf_event_open both profilers run the fallback
  // clock and the comparison is trivially tight — the assertion set is
  // valid either way.
  const Application app = apps::build_synthetic();
  const std::vector<double> loads = {0.5, 1.0};

  Profiler hw_prof(Profiler::Mode::kAuto);
  ExperimentConfig hw_cfg = prof_config(20, 1);
  hw_cfg.prof = &hw_prof;
  const std::string hw_bytes =
      serialize_sweep(sweep_load(app, hw_cfg, loads));

  Profiler fb_prof(Profiler::Mode::kFallback);
  ExperimentConfig fb_cfg = prof_config(20, 1);
  fb_cfg.prof = &fb_prof;
  const std::string fb_bytes =
      serialize_sweep(sweep_load(app, fb_cfg, loads));

  EXPECT_EQ(fb_bytes, hw_bytes);
  EXPECT_FALSE(fb_prof.hardware());

  const std::vector<ProfPhaseTotals> hw = hw_prof.snapshot();
  const std::vector<ProfPhaseTotals> fb = fb_prof.snapshot();
  ASSERT_EQ(hw.size(), fb.size());
  for (std::size_t i = 0; i < hw.size(); ++i) {
    SCOPED_TRACE(hw[i].name);
    EXPECT_EQ(fb[i].name, hw[i].name);
    EXPECT_EQ(fb[i].top_level, hw[i].top_level);
    // Scope-entry counts are deterministic except for the pool's idle /
    // claim stretches, whose subdivision depends on wait timing.
    if (hw[i].name.rfind("pool.", 0) != 0)
      EXPECT_EQ(fb[i].count, hw[i].count);
    // Fallback clock: wall time only.
    EXPECT_EQ(fb[i].cycles, 0u);
    EXPECT_EQ(fb[i].instructions, 0u);
    EXPECT_EQ(fb[i].cache_refs, 0u);
    EXPECT_EQ(fb[i].cache_misses, 0u);
    EXPECT_EQ(fb[i].branch_misses, 0u);
  }
  if (hw_prof.hardware()) {
    // The hardware run measured real cycles somewhere.
    std::uint64_t cycles = 0;
    for (const ProfPhaseTotals& p : hw) cycles += p.cycles;
    EXPECT_GT(cycles, 0u);
  }
}

TEST(ProfIdentity, RegistryExportCarriesPhaseTotals) {
  // End-to-end: a profiled sweep exported through the registry produces
  // prof.<phase>.{ns,count} counters that match the snapshot exactly.
  const Application app = apps::build_synthetic();
  Profiler prof(Profiler::Mode::kFallback);
  ExperimentConfig cfg = prof_config(16, 2);
  cfg.prof = &prof;
  (void)sweep_load(app, cfg, {0.6});

  MetricsRegistry reg;
  prof.export_delta_to(reg);
  for (const ProfPhaseTotals& p : prof.snapshot()) {
    if (p.count == 0) continue;
    SCOPED_TRACE(p.name);
    EXPECT_EQ(reg.counter("prof." + p.name + ".ns").value(), p.ns);
    EXPECT_EQ(reg.counter("prof." + p.name + ".count").value(), p.count);
  }
}

TEST(ProfIdentity, CpuAttributionStaysWithinCpuTimeAtFourThreads) {
  // Four slots each spend up to the call's wall time, so their top-level
  // time summed against one wall clock overshoots 100 %; against CPU time
  // (wall x slots) it cannot, and no single slot can exceed its wall.
  const Application app = apps::build_synthetic();
  Profiler prof(Profiler::Mode::kFallback);
  ExperimentConfig cfg = prof_config(400, 4);
  cfg.chunk_runs = 8;  // enough chunks that every slot works
  cfg.prof = &prof;
  const auto t0 = std::chrono::steady_clock::now();
  (void)sweep_load(app, cfg, {0.5, 0.9});
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  const ProfAttribution a = attribute_cpu_time(prof, wall_ns);
  ASSERT_GE(a.slot_util.size(), 1u);
  EXPECT_LE(a.slot_util.size(), 4u);
  EXPECT_DOUBLE_EQ(a.cpu_ns,
                   wall_ns * static_cast<double>(a.slot_util.size()));
  EXPECT_GT(a.attributed, 0.0);
  EXPECT_LE(a.attributed, 1.0);
  for (const double u : a.slot_util) EXPECT_LE(u, 1.0);

  // The per-slot split covers exactly the top-level phase totals.
  std::uint64_t top_ns = 0;
  for (const ProfPhaseTotals& p : prof.snapshot())
    if (p.top_level) top_ns += p.ns;
  std::uint64_t slot_ns = 0;
  for (const std::uint64_t ns : prof.top_level_ns_by_slot()) slot_ns += ns;
  EXPECT_EQ(slot_ns, top_ns);
}

}  // namespace
}  // namespace paserta
