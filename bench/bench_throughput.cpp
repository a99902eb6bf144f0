// Throughput of the Monte-Carlo harness on the paper's Fig. 4 workload
// (ATR on the 2-CPU Transmeta platform), emitted as JSON on stdout:
//
//   point  runs/sec of one run_point call (load 0.5) per thread count —
//          the PR-1 hot-loop metric, unchanged;
//   batch  runs/sec of the same point, single-threaded, across a lane-count
//          ladder (1 = one lane, 0 = auto) — the auto lane count's speedup
//          over one lane, gated by bench_compare;
//   dedup  runs/sec of the ATR point at alpha = 1 (discrete scenario
//          space), single-threaded, dedup off vs on across a run-count
//          ladder — the scenario-dedup cache's speedup and hit rate, gated
//          by bench_compare --dedup-floor;
//   sweep  points/sec of a whole 10-point load sweep per thread count
//          (persistent pool, chunked claiming, point overlap, one
//          canonical offline analysis), with scaling efficiency;
//   serve  requests/sec of the resident daemon (src/serve) on loopback,
//          one ATR request line replayed by a ladder of concurrent NDJSON
//          clients — measures the full service path (socket, parse,
//          coalescing, cross-request cache, response render). The recorded
//          cache hit rate is gated by bench_compare --serve-cache-floor.
//
// Traces are off, so the loop runs with zero steady-state allocation (one
// SimWorkspace per worker slot). Sweep runs-per-point defaults to runs/10:
// the sweep mode exists to measure orchestration overhead, which the
// paper's sweep shape exposes when points are short.
//
// Usage: bench_throughput [runs] [threads] [--out=FILE] [--reps=N]
//   runs     Monte-Carlo runs per point-mode measurement (default 2000)
//   threads  max worker count sampled (default: hardware threads, min 4)
//   --out    append the measurement to the history array in FILE (the repo
//            keeps a committed history in BENCH_throughput.json). Each
//            entry carries {git_rev, dirty, date} provenance (dirty = the
//            working tree had uncommitted changes); a legacy single-object
//            file is preserved as the first entry.
//   --reps   repetitions per timed section, best kept (default 3):
//            contention noise is one-sided, so the fastest repetition is
//            the cleanest estimate and keeps history entries comparable
//            when the host is busy.
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/offline.h"
#include "harness/figures.h"
#include "harness/throughput.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/scenario.h"

namespace {

constexpr const char* kUsage =
    "bench_throughput [runs] [threads] [--out=FILE] [--reps=N]";

/// Short git revision of the working tree, "unknown" when git (or the
/// repository) is unavailable — the bench must work from a tarball too.
std::string git_revision() {
  FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  std::string rev;
  if (std::fgets(buf, sizeof(buf), pipe) != nullptr) rev = buf;
  const int status = pclose(pipe);
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
    rev.pop_back();
  if (status != 0 || rev.empty()) return "unknown";
  return rev;
}

/// True when the working tree has uncommitted changes (a measurement from
/// a dirty tree cannot be attributed to its git_rev). Clean when git is
/// unavailable — the revision is already "unknown" then.
bool git_dirty() {
  FILE* pipe = popen("git status --porcelain 2>/dev/null", "r");
  if (pipe == nullptr) return false;
  char buf[256];
  bool dirty = false;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    if (buf[0] != '\0' && buf[0] != '\n') dirty = true;
  }
  const int status = pclose(pipe);
  return status == 0 && dirty;
}

/// Current UTC date, ISO "YYYY-MM-DD".
std::string utc_date() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&now, &tm) == nullptr) return "unknown";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday);
  return buf;
}

std::vector<int> thread_ladder(int max_threads) {
  std::vector<int> counts;
  for (int t : {1, 2, 4, 8, max_threads}) {
    if (t <= max_threads &&
        (counts.empty() || counts.back() < t))
      counts.push_back(t);
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace paserta;

  std::string out_path;
  int reps = 3;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      if (out_path.empty()) {
        std::cerr << "error: --out needs a file path\nusage: " << kUsage
                  << "\n";
        return 2;
      }
    } else if (arg.rfind("--reps=", 0) == 0) {
      arg = arg.substr(7);
      reps = benchutil::positive_int_arg(arg.c_str(), "reps", kUsage);
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int runs =
      positional.size() > 0
          ? benchutil::positive_int_arg(positional[0], "runs", kUsage)
          : 2000;
  int threads =
      positional.size() > 1
          ? benchutil::positive_int_arg(positional[1], "threads", kUsage)
          : std::max(4, static_cast<int>(std::thread::hardware_concurrency()));

  const FigureDef fig = paper_figure("fig4a", runs);
  const Application app = figure_workload(fig);
  ExperimentConfig cfg = fig.config;
  // Only the summary is consumed: leave verify_traces off so the engine
  // records no traces and the hot loop is allocation-free.
  cfg.verify_traces = false;

  const double load = 0.5;
  const SimTime w = canonical_worst_makespan(
      app, cfg.cpus, cfg.overheads.worst_case_budget(cfg.table),
      cfg.heuristic);
  const SimTime deadline = deadline_for(w, load);

  // Same thread ladder as the sweep section ({1, 2, 4, 8, max} filtered to
  // the sampled maximum): scaling regressions at intermediate counts must
  // be visible in the history, not just the 1-vs-max endpoints.
  const ThroughputReport point_report = measure_throughput(
      app, cfg, deadline, thread_ladder(threads), fig.id + "@load=0.5", reps);

  // Lane-count section: the same point, single-threaded, at a lane-count
  // ladder (1 = one lane, 0 = auto). Outputs are bit-identical across the
  // ladder, so the ratio is pure engine overhead; bench_compare gates the
  // auto-over-one-lane speedup against a floor.
  const BatchThroughputReport batch_report = measure_batch_throughput(
      app, cfg, deadline, {1, 8, 32, 0}, fig.id + "@load=0.5", reps);

  // Scenario-dedup section: the same ATR graph at alpha = 1 (ACET = WCET,
  // so OR forks are the only randomness and the scenario space collapses
  // to a handful of fork outcomes), single-threaded, dedup off vs. on
  // across a run-count ladder. WCETs are untouched, so the deadline is the
  // same; replay is bit-identical, so the ratio is pure scheduling win.
  // Dedup pays nothing on the gaussian fig4a workload above (virtually
  // every scenario is distinct there) — this section measures the regime
  // the cache exists for, and bench_compare gates its largest-runs speedup.
  Application dedup_app = app;
  assign_alpha(dedup_app.graph, 1.0);
  const DedupThroughputReport dedup_report =
      measure_dedup_throughput(dedup_app, cfg, deadline, {1000, 10000, 100000},
                               fig.id + "-alpha1.0@load=0.5", reps);

  // Sweep mode: the paper's 10-point §5.1 load grid with short points, so
  // orchestration (claiming, offline analysis, point overlap) is a visible
  // share of the time.
  ExperimentConfig sweep_cfg = cfg;
  sweep_cfg.runs = std::max(20, runs / 100);
  const std::vector<double> loads = sweep_range(0.1, 1.0, 0.1);
  const SweepThroughputReport sweep_report =
      measure_sweep_throughput(app, sweep_cfg, loads, thread_ladder(threads),
                               fig.id + "@loads=0.1..1.0", reps);

  // Pool balance of one instrumented sweep at the max thread count: how
  // evenly the chunks (and the time inside them) spread over the slots.
  // Collected through a scoped registry, so it cannot perturb the timed
  // measurements above (which run with observability off).
  ExperimentConfig balance_cfg = sweep_cfg;
  balance_cfg.threads = threads;
  const std::string pool_doc =
      measure_pool_balance_json(app, balance_cfg, loads);

  // Serve section: a resident daemon in-process on an ephemeral loopback
  // port, driven with one @atr request line (short runs — the section
  // measures the service path, not the Monte-Carlo loop) by a ladder of
  // concurrent clients. After the warm-up every request is a cache hit,
  // which is exactly what the serve-cache gate pins.
  const int serve_runs = std::max(20, runs / 100);
  ServeThroughputReport serve_report;
  {
    SimService service{ServeSettings{}};
    SimServer server(service, ServerSettings{});
    const std::string request_line =
        "{\"graph\":\"@atr\",\"runs\":" + std::to_string(serve_runs) +
        ",\"load\":0.5}";
    serve_report = measure_serve_throughput(service, server, request_line,
                                            {1, 2, 4}, /*requests_per_client=*/
                                            8, "atr@load=0.5", serve_runs);
    server.stop();
  }

  const std::string doc = "{\n\"point\": " + throughput_to_json(point_report) +
                          ",\n\"batch\": " +
                          batch_throughput_to_json(batch_report) +
                          ",\n\"dedup\": " +
                          dedup_throughput_to_json(dedup_report) +
                          ",\n\"sweep\": " +
                          sweep_throughput_to_json(sweep_report) +
                          ",\n\"serve\": " +
                          serve_throughput_to_json(serve_report) +
                          ",\n\"pool\": " + pool_doc + "\n}\n";
  std::cout << doc;
  if (!out_path.empty()) {
    // Append to the measurement history rather than overwrite: the file
    // keeps one {git_rev, dirty, date, point, sweep, pool} entry per
    // recorded run.
    std::string existing;
    {
      std::ifstream in(out_path);
      if (in) {
        std::ostringstream buf;
        buf << in.rdbuf();
        existing = buf.str();
      }
    }
    const std::string entry =
        throughput_history_entry(git_revision(), git_dirty(), utc_date(), doc);
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot write '" << out_path << "'\n";
      return 1;
    }
    out << throughput_history_append(existing, entry);
  }
  return 0;
}
