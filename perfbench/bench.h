// Shared pieces of the benchmark program: clocks, sample statistics, the
// operation tally behind `attempted`/`failed`, the metric sink, output
// digests for bit-identity checks and the seeded graph generator that the
// graph-campaign and serve-mix workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Threads (offline) and clients (serve) of the "4" measurements. Fixed,
/// not nproc, so entries from hosts of different size stay comparable; the
/// fingerprint records nproc beside it.
constexpr int kWideThreads = 4;

double seconds_since(Clock::time_point t0);
/// Process CPU seconds (all threads).
double process_cpu_s();
/// CPU seconds of the calling thread.
double thread_cpu_s();
/// Peak resident set of this process, MiB (VmHWM).
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  /// Entry of main(): set-up time counts from here.
  Clock::time_point start = Clock::now();
};

/// Operations attempted and failed, with the first failure messages kept
/// for the report.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;

  void add(bool ok, const std::string& what);
};

/// Named metric values, printed as the result line's "metrics" object.
using Metrics = std::map<std::string, double>;

/// Current value of a registry counter (0 when never registered).
std::uint64_t counter_value(const paserta::MetricsRegistry& reg,
                            const std::string& name);

/// Prints the profiler's phase table to stderr.
void print_profile(const paserta::Profiler& prof, const char* what);

/// Exact serialization of every output field of a point except the dedup
/// telemetry (which legitimately differs with the thread count): two
/// points are bit-identical iff their digests are equal.
std::string point_digest(const paserta::SweepPoint& p);

/// Empty when every scheme of `p` met every deadline and passed
/// verification, else a description of the first offence.
std::string deadline_problem(const paserta::SweepPoint& p);

/// Replays `tests/baselines/*.csv` (relative to the working directory,
/// the checkout root) at their pinned configurations; one op per file.
void check_baselines(Tally& tally);

/// One generated graph in workload-text form.
struct GeneratedGraph {
  std::string name;
  std::string text;
};

/// Graph `index` of the generator stream `seed`: even indices come from
/// apps::random_program, odd ones from apps::layered_program.
GeneratedGraph generate_graph(std::uint64_t seed, std::uint64_t index);

/// Generator stream of the graphs every benchmark seed shares (the
/// graph-campaign set and serve-mix's recurring graphs). Fixed so that a
/// pass costs the same for every --seed; the seed varies loads, run seeds
/// and serve-mix's first-sighting graphs.
constexpr std::uint64_t kSharedGraphSeed = 20020818;

/// A copy of `app` with its ACETs redrawn for `alpha` exactly as
/// sweep_alpha redraws them for its `index`-th alpha.
paserta::Application alpha_variant(const paserta::Application& app,
                                   double alpha, std::uint64_t seed,
                                   std::size_t index);

/// One point as the traced run replays it through the layers' public
/// functions: deadline = ceil(W / load), runs/seed/cpus/table from `cfg`.
struct LayerPoint {
  const paserta::Application* app = nullptr;
  paserta::ExperimentConfig cfg;
  double load = 1.0;
};

/// Wall seconds spent in each layer function over a replay, with the
/// counts that turn them into per-call and per-run figures.
struct LayerTimes {
  double analyze_s = 0, apply_s = 0, compile_s = 0, sample_s = 0;
  double engine_s = 0, scalar_s = 0, point_s = 0;
  std::uint64_t points = 0, runs = 0;
};

/// Times analyze_canonical, apply_deadline, ScenarioSampler construction,
/// draw_into, simulate_batch, the scalar simulate (NPM plus every scheme,
/// on the same scenarios) and a one-run run_point for every point. Points
/// that resolve to dedup simulate each distinct scenario once, as the
/// harness does, so engine time per run is the workload's real share.
/// Each layer's total is the best of three replays.
LayerTimes replay_layers(const std::vector<LayerPoint>& points);

/// sim.*, core.analyze_us/apply_us and harness.point_overhead_us from a
/// replay.
void put_layer_metrics(const LayerTimes& t, Metrics& m);

int run_paper_sweep(const Options& opt, Tally& tally, Metrics& m);
int run_graph_campaign(const Options& opt, Tally& tally, Metrics& m);
int run_serve_mix(const Options& opt, Tally& tally, Metrics& m);

}  // namespace perfbench
