// paserta_cli — command-line front end to the library.
//
//   paserta_cli analyze  <workload> [options]   offline analysis report
//   paserta_cli simulate <workload> [options]   one run + gantt + stats
//   paserta_cli sweep    <workload> [options]   load/alpha sweep (CSV/JSON)
//   paserta_cli profile  <workload> [options]   per-phase cycle profile
//   paserta_cli metrics  <workload>             structural metrics
//   paserta_cli dot      <workload>             Graphviz dump
//   paserta_cli tables                          DVS level tables
//   paserta_cli serve                           resident simulation daemon
//   paserta_cli --version                       build provenance stamp
//
// <workload> is a text file (docs/WORKLOAD_FORMAT.md) or a built-in:
// @atr, @synthetic, @mpeg.
//
// Common options:
//   --cpus N           processors (default 2)
//   --table NAME       transmeta | xscale (default transmeta)
//   --load L           deadline = W / L (default 0.5)
//   --deadline-ms D    absolute deadline (overrides --load)
//   --heuristic H      ltf | stf | fifo (default ltf)
// simulate:
//   --scheme S         npm | spm | gss | ss1 | ss2 | as (default gss)
//   --seed N           scenario seed (default 1)
//   --power-csv        dump the power-vs-time curve as CSV
//   --svg FILE         write an SVG gantt + power chart to FILE
// sweep:
//   --x load|alpha     swept parameter (default load)
//   --runs N           Monte-Carlo runs per point (default 200)
//   --from F --to T --step S   sweep range (defaults 0.1..1.0 step 0.1)
//   --json             emit JSON instead of CSV
//   --threads N        worker threads for the Monte-Carlo loop (default 1;
//                      results are bit-identical for any value)
//   --batch B          scenarios per batched engine call (0 = auto, N = N
//                      lanes; output identical for any value)
//   --dedup MODE       auto | on | off: scenario-dedup memoization —
//                      simulate each distinct scenario once, replay
//                      duplicates (bit-identical, so output is the same)
//   --trace-out FILE   write a Chrome/Perfetto trace of the sweep (open in
//                      ui.perfetto.dev or chrome://tracing)
//   --metrics-out DEST write engine + pool metrics to DEST ("-" = stdout)
//   --metrics-format F json | prometheus (default json)
//   --audit            self-audit every run: attribution counters must
//                      rebuild the engine's energies exactly, and the
//                      power-trace integral must match
//   --progress         live progress line on stderr
//
// Flags accept both "--flag value" and "--flag=value".
#include <csignal>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "apps/atr.h"
#include "apps/mpeg.h"
#include "apps/synthetic.h"
#include "common/version.h"
#include "core/offline.h"
#include "core/oracle.h"
#include "graph/dot.h"
#include "graph/metrics.h"
#include "graph/text_format.h"
#include "harness/experiment.h"
#include "harness/json.h"
#include "harness/report.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/gantt.h"
#include "sim/power_trace.h"
#include "serve/server.h"
#include "serve/service.h"
#include "sim/svg.h"
#include "sim/trace_stats.h"

using namespace paserta;

namespace {

struct Options {
  std::string command;
  std::string workload;
  int cpus = 2;
  std::string table = "transmeta";
  double load = 0.5;
  std::optional<double> deadline_ms;
  std::string heuristic = "ltf";
  std::string scheme = "gss";
  std::uint64_t seed = 1;
  bool power_csv = false;
  std::string svg_path;
  std::string x = "load";
  int runs = 200;
  double from = 0.1, to = 1.0, step = 0.1;
  bool json = false;
  int threads = 1;
  int batch = 0;
  std::string dedup = "auto";
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";
  bool audit = false;
  bool progress = false;
  // profile
  bool sweep = false;
  bool fallback = false;
  // serve
  int port = 0;
  int queue_limit = 256;
  int timeout_ms = 0;
  int max_conn = 32;
  int stream_interval_ms = 250;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr <<
      "usage: paserta_cli <command> [workload] [options]\n"
      "\n"
      "commands:\n"
      "  analyze  <workload>   offline analysis report\n"
      "  simulate <workload>   one run + gantt + stats\n"
      "  sweep    <workload>   load/alpha sweep (CSV/JSON)\n"
      "  profile  <workload>   run a point (or --sweep) under the phase\n"
      "                        profiler and print the per-phase table\n"
      "  metrics  <workload>   structural graph metrics\n"
      "  dot      <workload>   Graphviz dump\n"
      "  tables                DVS level tables\n"
      "  serve                 resident simulation daemon (NDJSON + HTTP\n"
      "                        /metrics; see docs/DESIGN.md §16)\n"
      "\n"
      "  --version             print the build provenance stamp and exit\n"
      "\n"
      "<workload> is a text file (docs/WORKLOAD_FORMAT.md) or a built-in:\n"
      "@atr, @synthetic, @mpeg.\n"
      "\n"
      "common options (--flag value or --flag=value):\n"
      "  --cpus N            processors (default 2)\n"
      "  --table NAME        transmeta | xscale (default transmeta)\n"
      "  --load L            deadline = W / L (default 0.5)\n"
      "  --deadline-ms D     absolute deadline (overrides --load)\n"
      "  --heuristic H       ltf | stf | fifo (default ltf)\n"
      "  --seed N            RNG seed (default 1)\n"
      "simulate:\n"
      "  --scheme S          npm | spm | gss | ss1 | ss2 | as (default gss)\n"
      "  --power-csv         dump the power-vs-time curve as CSV\n"
      "  --svg FILE          write an SVG gantt + power chart to FILE\n"
      "sweep:\n"
      "  --x load|alpha      swept parameter (default load)\n"
      "  --runs N            Monte-Carlo runs per point (default 200)\n"
      "  --from F --to T --step S   sweep range (default 0.1..1.0 step 0.1)\n"
      "  --json              emit JSON instead of CSV\n"
      "  --threads N         worker threads (default 1; output identical\n"
      "                      for any value)\n"
      "  --batch B           scenarios per batched engine call (default 0 =\n"
      "                      auto, N = N lanes; output is the same for any\n"
      "                      value)\n"
      "  --dedup MODE        auto | on | off (default auto): simulate each\n"
      "                      distinct scenario once and replay duplicates;\n"
      "                      auto enables it when the scenario space is\n"
      "                      provably finite and <= runs. Replay is\n"
      "                      bit-identical, so output is the same either way\n"
      "  --trace-out FILE    Chrome/Perfetto trace of the sweep (open in\n"
      "                      ui.perfetto.dev)\n"
      "  --metrics-out DEST  engine + pool metrics; DEST is a file path or\n"
      "                      \"-\" for stdout\n"
      "  --metrics-format F  json | prometheus (default json)\n"
      "  --audit             self-audit every run: attribution counters\n"
      "                      must rebuild the engine's energies exactly and\n"
      "                      the power-trace integral must match (slower;\n"
      "                      output identical to a non-audited sweep)\n"
      "  --progress          live progress line on stderr\n"
      "profile:\n"
      "  --sweep             profile the full --from/--to/--step load sweep\n"
      "                      instead of the single --load point\n"
      "  --fallback          force the monotonic-clock fallback even when\n"
      "                      perf_event_open is available (PASERTA_NO_PERF=1\n"
      "                      does the same from the environment)\n"
      "  --runs/--threads/--batch/--dedup apply as in sweep\n"
      "serve:\n"
      "  --port N            listen port on 127.0.0.1 (default 0 =\n"
      "                      ephemeral; the bound port is printed)\n"
      "  --queue-limit N     pending requests before submissions are\n"
      "                      rejected as overloaded (default 256)\n"
      "  --timeout-ms N      per-request response wait bound (default 0 =\n"
      "                      none)\n"
      "  --max-conn N        concurrent connections (default 32)\n"
      "  --stream-interval-ms N   spacing of {\"event\":\"progress\"} lines\n"
      "                      for NDJSON requests with \"stream\":true\n"
      "                      (default 250)\n"
      "  --threads/--batch/--dedup, --trace-out, --metrics-out and\n"
      "  --metrics-format apply to the daemon's simulations; SIGINT or\n"
      "  SIGTERM drains in-flight requests and flushes the sinks\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  if (argc < 2) usage();
  o.command = argv[1];
  int i = 2;
  if (o.command != "tables" && o.command != "serve") {
    if (i >= argc || argv[i][0] == '-') usage("missing workload file");
    o.workload = argv[i++];
  }
  // Inline "--flag=value" payload of the current flag, when present.
  std::optional<std::string> inline_value;
  auto need_value = [&](const char* flag) -> std::string {
    if (inline_value) {
      std::string v = std::move(*inline_value);
      inline_value.reset();
      return v;
    }
    if (i >= argc) usage((std::string(flag) + " needs a value").c_str());
    return argv[i++];
  };
  for (; i < argc;) {
    std::string flag = argv[i++];
    inline_value.reset();
    if (const std::size_t eq = flag.find('=');
        flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.erase(eq);
    }
    if (flag == "--cpus") o.cpus = std::stoi(need_value("--cpus"));
    else if (flag == "--table") o.table = need_value("--table");
    else if (flag == "--load") o.load = std::stod(need_value("--load"));
    else if (flag == "--deadline-ms")
      o.deadline_ms = std::stod(need_value("--deadline-ms"));
    else if (flag == "--heuristic") o.heuristic = need_value("--heuristic");
    else if (flag == "--scheme") o.scheme = need_value("--scheme");
    else if (flag == "--seed")
      o.seed = std::stoull(need_value("--seed"));
    else if (flag == "--power-csv") o.power_csv = true;
    else if (flag == "--svg") o.svg_path = need_value("--svg");
    else if (flag == "--x") o.x = need_value("--x");
    else if (flag == "--runs") o.runs = std::stoi(need_value("--runs"));
    else if (flag == "--from") o.from = std::stod(need_value("--from"));
    else if (flag == "--to") o.to = std::stod(need_value("--to"));
    else if (flag == "--step") o.step = std::stod(need_value("--step"));
    else if (flag == "--json") o.json = true;
    else if (flag == "--threads")
      o.threads = std::stoi(need_value("--threads"));
    else if (flag == "--batch") {
      o.batch = std::stoi(need_value("--batch"));
      if (o.batch < 0) usage("--batch must be >= 0");
    }
    else if (flag == "--dedup") {
      o.dedup = need_value("--dedup");
      if (o.dedup != "auto" && o.dedup != "on" && o.dedup != "off")
        usage(("--dedup must be auto, on or off, got \"" + o.dedup + "\"")
                  .c_str());
    }
    else if (flag == "--trace-out") o.trace_out = need_value("--trace-out");
    else if (flag == "--metrics-out")
      o.metrics_out = need_value("--metrics-out");
    else if (flag == "--metrics-format") {
      o.metrics_format = need_value("--metrics-format");
      if (o.metrics_format != "json" && o.metrics_format != "prometheus")
        usage(("--metrics-format must be json or prometheus, got \"" +
               o.metrics_format + "\"").c_str());
    }
    else if (flag == "--audit") o.audit = true;
    else if (flag == "--progress") o.progress = true;
    else if (flag == "--sweep") o.sweep = true;
    else if (flag == "--fallback") o.fallback = true;
    else if (flag == "--port") o.port = std::stoi(need_value("--port"));
    else if (flag == "--queue-limit")
      o.queue_limit = std::stoi(need_value("--queue-limit"));
    else if (flag == "--timeout-ms")
      o.timeout_ms = std::stoi(need_value("--timeout-ms"));
    else if (flag == "--max-conn")
      o.max_conn = std::stoi(need_value("--max-conn"));
    else if (flag == "--stream-interval-ms")
      o.stream_interval_ms = std::stoi(need_value("--stream-interval-ms"));
    else usage(("unknown flag " + flag).c_str());
    if (inline_value) usage(("flag " + flag + " takes no value").c_str());
  }
  return o;
}

LevelTable table_of(const Options& o) {
  if (o.table == "transmeta") return LevelTable::transmeta_tm5400();
  if (o.table == "xscale") return LevelTable::intel_xscale();
  usage("unknown --table (use transmeta or xscale)");
}

ListHeuristic heuristic_of(const Options& o) {
  if (o.heuristic == "ltf") return ListHeuristic::LongestTaskFirst;
  if (o.heuristic == "stf") return ListHeuristic::ShortestTaskFirst;
  if (o.heuristic == "fifo") return ListHeuristic::InsertionOrder;
  usage("unknown --heuristic (use ltf, stf or fifo)");
}

Scheme scheme_of(const Options& o) {
  static const std::map<std::string, Scheme> m{
      {"npm", Scheme::NPM}, {"spm", Scheme::SPM}, {"gss", Scheme::GSS},
      {"ss1", Scheme::SS1}, {"ss2", Scheme::SS2}, {"as", Scheme::AS}};
  const auto it = m.find(o.scheme);
  if (it == m.end()) usage("unknown --scheme");
  return it->second;
}

Application load(const Options& o) {
  if (!o.workload.empty() && o.workload[0] == '@') {
    if (o.workload == "@atr") return apps::build_atr();
    if (o.workload == "@synthetic") return apps::build_synthetic();
    if (o.workload == "@mpeg") return apps::build_mpeg();
    usage(("unknown built-in workload " + o.workload +
           " (use @atr, @synthetic or @mpeg)").c_str());
  }
  std::ifstream in(o.workload);
  if (!in) {
    std::cerr << "cannot open workload '" << o.workload << "'\n";
    std::exit(1);
  }
  return load_application(in);
}

OfflineResult analyze_with(const Application& app, const Options& o,
                           const PowerModel& pm, const Overheads& ovh) {
  OfflineOptions opt;
  opt.cpus = o.cpus;
  opt.heuristic = heuristic_of(o);
  opt.overhead_budget = ovh.worst_case_budget(pm.table());
  if (o.deadline_ms) {
    opt.deadline = SimTime::from_ms(*o.deadline_ms);
  } else {
    const SimTime w = canonical_worst_makespan(app, o.cpus,
                                               opt.overhead_budget,
                                               opt.heuristic);
    opt.deadline = SimTime{static_cast<std::int64_t>(
        static_cast<double>(w.ps) / o.load + 1)};
  }
  return analyze_offline(app, opt);
}

int cmd_analyze(const Options& o) {
  const Application app = load(o);
  const PowerModel pm(table_of(o));
  Overheads ovh;
  const OfflineResult off = analyze_with(app, o, pm, ovh);

  std::cout << "application : " << app.name << "\n"
            << "nodes       : " << app.graph.size() << " ("
            << app.graph.task_count() << " tasks, " << app.or_fork_count()
            << " OR forks)\n"
            << "cpus        : " << off.cpus() << "\n"
            << "heuristic   : " << o.heuristic << "\n"
            << "W (worst)   : " << to_string(off.worst_makespan()) << "\n"
            << "A (average) : " << to_string(off.average_makespan()) << "\n"
            << "deadline    : " << to_string(off.deadline()) << "\n"
            << "feasible    : " << (off.feasible() ? "yes" : "NO") << "\n\n";

  Table t({"node", "kind", "eo", "wcet_ms", "acet_ms", "lst_ms", "eet_ms"});
  for (NodeId id : app.graph.all_nodes()) {
    const Node& n = app.graph.node(id);
    t.add_row({n.name, to_string(n.kind), std::to_string(off.eo(id)),
               Table::num(n.wcet.ms(), 3), Table::num(n.acet.ms(), 3),
               Table::num(off.lst(id).ms(), 3),
               Table::num(off.eet(id).ms(), 3)});
  }
  t.write_pretty(std::cout);

  for (NodeId id : app.graph.all_nodes()) {
    if (!app.graph.node(id).is_or_fork()) continue;
    const OrForkProfile& p = off.fork_profile(id);
    std::cout << "\nPMP at fork '" << app.graph.node(id).name << "':";
    for (std::size_t a = 0; a < p.rem_w_alt.size(); ++a)
      std::cout << "  path" << a << " w=" << to_string(p.rem_w_alt[a])
                << " a=" << to_string(p.rem_a_alt[a]);
    std::cout << "\n";
  }
  return off.feasible() ? 0 : 1;
}

int cmd_simulate(const Options& o) {
  const Application app = load(o);
  const PowerModel pm(table_of(o));
  Overheads ovh;
  const OfflineResult off = analyze_with(app, o, pm, ovh);
  if (!off.feasible())
    std::cerr << "warning: infeasible deadline, guarantee void\n";

  Rng rng(o.seed);
  const RunScenario sc = draw_scenario(app.graph, rng);
  const SimResult r = simulate(app, off, pm, ovh, scheme_of(o), sc);
  const TraceStats st = analyze_trace(app, off, pm, r);
  const OracleResult oracle = clairvoyant_oracle(app, off, pm, ovh, sc);

  std::cout << "scheme        : " << o.scheme << "\n"
            << "energy        : " << r.total_energy() * 1e3 << " mJ  (busy "
            << r.busy_energy * 1e3 << ", overhead " << r.overhead_energy * 1e3
            << ", idle " << r.idle_energy * 1e3 << ")\n"
            << "oracle bound  : " << oracle.energy * 1e3 << " mJ @ "
            << pm.table().level(oracle.level).freq / kMHz << " MHz\n"
            << "finish        : " << to_string(r.finish_time) << " of "
            << to_string(off.deadline())
            << (r.deadline_met ? "  (met)" : "  (MISS)") << "\n"
            << "speed changes : " << r.speed_changes << "\n"
            << "utilization   : " << static_cast<int>(st.utilization * 100)
            << "%\n\n";
  render_gantt(std::cout, app, off, pm, r);

  if (o.power_csv) {
    std::cout << "\n";
    write_power_trace_csv(std::cout,
                          build_power_trace(app, off, pm, ovh, r));
  }
  if (!o.svg_path.empty()) {
    std::ofstream svg(o.svg_path);
    if (!svg) {
      std::cerr << "cannot write '" << o.svg_path << "'\n";
      return 1;
    }
    write_svg_gantt(svg, app, off, pm, ovh, r);
    std::cout << "wrote " << o.svg_path << "\n";
  }
  return r.deadline_met ? 0 : 1;
}

int cmd_sweep(const Options& o) {
  const Application app = load(o);
  ExperimentConfig cfg;
  cfg.cpus = o.cpus;
  cfg.table = table_of(o);
  cfg.runs = o.runs;
  cfg.seed = o.seed;
  cfg.threads = o.threads;
  cfg.batch = o.batch;
  cfg.dedup = o.dedup == "on"    ? DedupMode::kOn
              : o.dedup == "off" ? DedupMode::kOff
                                 : DedupMode::kAuto;
  cfg.heuristic = heuristic_of(o);
  cfg.audit = o.audit;

  // Observability sinks (all optional; none of them changes the sweep
  // output — see the determinism contract in obs/metrics.h).
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Profiler> prof;
  if (!o.trace_out.empty()) {
    tracer = std::make_unique<Tracer>(Tracer::Detail::kRuns);
    cfg.tracer = tracer.get();
    // Phase counter tracks ride along in the trace file; write-only for
    // the sweep, like the tracer itself.
    prof = std::make_unique<Profiler>();
    cfg.prof = prof.get();
  }
  MetricsRegistry registry;  // scoped: one sweep's metrics, nothing else
  if (!o.metrics_out.empty()) {
    cfg.collect_metrics = true;
    cfg.registry = &registry;
  }
  std::unique_ptr<ProgressReporter> progress;
  if (o.progress) {
    progress = std::make_unique<ProgressReporter>(
        stderr_progress_renderer("sweep"));
    cfg.progress = progress.get();
  }

  std::vector<SweepPoint> points;
  if (o.x == "load") {
    points = sweep_load(app, cfg, sweep_range(o.from, o.to, o.step));
  } else if (o.x == "alpha") {
    points = sweep_alpha(app, cfg, o.load, sweep_range(o.from, o.to, o.step));
  } else {
    usage("--x must be load or alpha");
  }
  if (progress) progress->finish();

  if (!o.trace_out.empty()) {
    std::ofstream trace_file(o.trace_out);
    if (!trace_file) {
      std::cerr << "cannot write '" << o.trace_out << "'\n";
      return 1;
    }
    write_chrome_trace(trace_file, *tracer, prof.get());
    std::cerr << "wrote " << o.trace_out << " (" << tracer->event_count()
              << " events; open in ui.perfetto.dev)\n";
  }
  if (!o.metrics_out.empty()) {
    if (prof) prof->export_delta_to(registry);
    const MetricsSnapshot snap = registry.snapshot();
    const std::string rendered = o.metrics_format == "prometheus"
                                     ? metrics_to_prometheus(snap)
                                     : metrics_to_json(snap);
    if (o.metrics_out == "-") {
      std::cout << rendered;
    } else {
      std::ofstream metrics_file(o.metrics_out);
      if (!metrics_file) {
        std::cerr << "cannot write '" << o.metrics_out << "'\n";
        return 1;
      }
      metrics_file << rendered;
      std::cerr << "wrote " << o.metrics_out << "\n";
    }
  }

  if (o.json) {
    JsonExportOptions jopt;
    jopt.experiment_id = app.name + "-" + o.x;
    jopt.caption = "paserta_cli sweep";
    jopt.x_name = o.x;
    write_sweep_json(std::cout, points, jopt);
    std::cout << "\n";
  } else {
    sweep_table(points, o.x).write_csv(std::cout);
  }
  return 0;
}

int cmd_profile(const Options& o) {
  const Application app = load(o);
  ExperimentConfig cfg;
  cfg.cpus = o.cpus;
  cfg.table = table_of(o);
  cfg.runs = o.runs;
  cfg.seed = o.seed;
  cfg.threads = o.threads;
  cfg.batch = o.batch;
  cfg.dedup = o.dedup == "on"    ? DedupMode::kOn
              : o.dedup == "off" ? DedupMode::kOff
                                 : DedupMode::kAuto;
  cfg.heuristic = heuristic_of(o);

  Profiler prof(o.fallback ? Profiler::Mode::kFallback
                           : Profiler::Mode::kAuto);
  cfg.prof = &prof;

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<SweepPoint> points = sweep_load(
      app, cfg,
      o.sweep ? sweep_range(o.from, o.to, o.step)
              : std::vector<double>{o.load});
  const double wall_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const std::vector<ProfPhaseTotals> phases = prof.snapshot();
  std::uint64_t top_ns = 0;
  for (const ProfPhaseTotals& p : phases)
    if (p.top_level) top_ns += p.ns;
  // Monte-Carlo draws across the whole command — the same denominator the
  // bench's runs/sec uses, so cycles/run here and cycles_per_run there
  // line up (EXPERIMENTS.md).
  const double total_runs =
      static_cast<double>(points.size()) * static_cast<double>(cfg.runs);
  const bool hw = prof.hardware();

  std::cout << "workload    : " << app.name << "  (" << points.size()
            << (points.size() == 1 ? " point, " : " points, ") << cfg.runs
            << " runs/point, " << o.threads << " thread"
            << (o.threads == 1 ? "" : "s") << ")\n"
            << "clock       : "
            << (hw ? "hardware counters" : "monotonic fallback") << "\n"
            << "wall        : " << Table::num(wall_ns / 1e6, 2) << " ms\n"
            << "attributed  : "
            << Table::num(100.0 * static_cast<double>(top_ns) / wall_ns, 1)
            << "% of wall in top-level phases\n\n";

  Table t({"phase", "count", "ms", "%wall", "cyc/run", "ipc", "L$miss%",
           "brm/kI"});
  for (const ProfPhaseTotals& p : phases) {
    if (p.count == 0) continue;
    // Nested phases (indented) break their top-level parent down and are
    // excluded from the attribution sum above.
    const std::string name = p.top_level ? p.name : "  " + p.name;
    const bool cols = hw && p.cycles > 0;
    t.add_row(
        {name, std::to_string(p.count),
         Table::num(static_cast<double>(p.ns) / 1e6, 2),
         Table::num(100.0 * static_cast<double>(p.ns) / wall_ns, 1),
         cols ? Table::num(static_cast<double>(p.cycles) / total_runs, 0)
              : "-",
         cols ? Table::num(static_cast<double>(p.instructions) /
                               static_cast<double>(p.cycles), 2)
              : "-",
         cols && p.cache_refs > 0
             ? Table::num(100.0 * static_cast<double>(p.cache_misses) /
                              static_cast<double>(p.cache_refs), 1)
             : "-",
         cols && p.instructions > 0
             ? Table::num(1000.0 * static_cast<double>(p.branch_misses) /
                              static_cast<double>(p.instructions), 2)
             : "-"});
  }
  t.write_pretty(std::cout);
  return 0;
}

int cmd_metrics(const Options& o) {
  const Application app = load(o);
  const GraphMetrics m = compute_metrics(app);
  std::cout << "application   : " << app.name << "\n"
            << "nodes         : " << m.nodes << " (" << m.tasks
            << " tasks, " << m.and_nodes << " AND, " << m.or_nodes
            << " OR of which " << m.or_forks << " forks)\n"
            << "edges         : " << m.edges << "\n"
            << "paths         : " << m.path_count << "\n"
            << "critical path : " << to_string(m.critical_path) << "\n"
            << "max work      : " << to_string(m.max_work) << "\n"
            << "expected work : " << to_string(m.expected_work) << "\n"
            << "parallelism   : " << m.parallelism << "\n";
  return 0;
}

int cmd_dot(const Options& o) {
  const Application app = load(o);
  write_dot(std::cout, app.graph, app.name);
  return 0;
}

int cmd_tables() {
  for (const LevelTable& t :
       {LevelTable::transmeta_tm5400(), LevelTable::intel_xscale()}) {
    const PowerModel pm(t);
    std::cout << t.name() << " (" << t.size() << " levels)\n";
    Table tab({"f_MHz", "V", "P_W"});
    for (const Level& l : t.levels())
      tab.add_row({Table::num(static_cast<double>(l.freq) / 1e6, 0),
                   Table::num(l.volts, 3), Table::num(pm.power(t.index_of(l.freq)), 3)});
    tab.write_pretty(std::cout);
    std::cout << "\n";
  }
  return 0;
}

// SIGINT/SIGTERM flag for cmd_serve's wait loop. sig_atomic_t write is
// all the handler does — the drain happens on the main thread.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_serve(const Options& o) {
  std::unique_ptr<Tracer> tracer;
  if (!o.trace_out.empty()) tracer = std::make_unique<Tracer>();

  ServeSettings settings;
  settings.threads = o.threads;
  settings.batch = o.batch;
  settings.dedup = o.dedup == "on"    ? DedupMode::kOn
                   : o.dedup == "off" ? DedupMode::kOff
                                      : DedupMode::kAuto;
  settings.queue_limit = o.queue_limit;
  settings.tracer = tracer.get();
  SimService service(settings);

  ServerSettings net;
  net.port = static_cast<std::uint16_t>(o.port);
  net.max_connections = o.max_conn;
  net.request_timeout_ms = o.timeout_ms;
  net.stream_interval_ms = o.stream_interval_ms;
  SimServer server(service, net);

  struct sigaction sa{};
  sa.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // The port line is machine-read by the smoke tests; keep it first and
  // flushed before any request arrives.
  std::cout << "listening on 127.0.0.1:" << server.port() << "\n"
            << build_version_string() << "\n" << std::flush;

  while (g_stop_requested == 0) {
    timespec ts{0, 200 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
  std::cerr << "draining...\n";
  server.stop();  // drains the service, then joins the connections

  if (!o.trace_out.empty()) {
    std::ofstream trace_file(o.trace_out);
    if (!trace_file) {
      std::cerr << "cannot write '" << o.trace_out << "'\n";
      return 1;
    }
    write_chrome_trace(trace_file, *tracer, &service.profiler());
    std::cerr << "wrote " << o.trace_out << " (" << tracer->event_count()
              << " events)\n";
  }
  if (!o.metrics_out.empty()) {
    const std::string rendered =
        o.metrics_format == "prometheus"
            ? service.metrics_text()
            : metrics_to_json(service.registry().snapshot());
    if (o.metrics_out == "-") {
      std::cout << rendered;
    } else {
      std::ofstream metrics_file(o.metrics_out);
      if (!metrics_file) {
        std::cerr << "cannot write '" << o.metrics_out << "'\n";
        return 1;
      }
      metrics_file << rendered;
      std::cerr << "wrote " << o.metrics_out << "\n";
    }
  }
  std::cerr << "bye\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && (std::strcmp(argv[1], "--version") == 0 ||
                    std::strcmp(argv[1], "-V") == 0)) {
    std::cout << build_version_string() << "\n";
    return 0;
  }
  try {
    const Options o = parse_args(argc, argv);
    if (o.command == "analyze") return cmd_analyze(o);
    if (o.command == "simulate") return cmd_simulate(o);
    if (o.command == "sweep") return cmd_sweep(o);
    if (o.command == "profile") return cmd_profile(o);
    if (o.command == "metrics") return cmd_metrics(o);
    if (o.command == "dot") return cmd_dot(o);
    if (o.command == "tables") return cmd_tables();
    if (o.command == "serve") return cmd_serve(o);
    usage(("unknown command " + o.command).c_str());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
