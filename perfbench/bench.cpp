#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>

#include "apps/atr.h"
#include "apps/layered.h"
#include "apps/random_app.h"
#include "apps/synthetic.h"
#include "common/rng.h"
#include "graph/text_format.h"
#include "harness/regression.h"

namespace perfbench {

using namespace paserta;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {
double cpu_clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}
}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::uint64_t counter_value(const MetricsRegistry& reg,
                            const std::string& name) {
  for (const auto& row : reg.snapshot().counters)
    if (row.name == name) return row.value;
  return 0;
}

void print_profile(const Profiler& prof, const char* what) {
  std::fprintf(stderr, "phase profile of %s:\n", what);
  for (const ProfPhaseTotals& t : prof.snapshot()) {
    std::fprintf(stderr, "  %-22s %10.2f ms  %8llu calls\n", t.name.c_str(),
                 1e-6 * static_cast<double>(t.ns),
                 static_cast<unsigned long long>(t.count));
  }
}

void Tally::add(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (messages.size() < 8) messages.push_back(what);
}

namespace {

void put_stat(std::string& out, const RunningStat& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%llu:%a:%a:%a:%a;",
                static_cast<unsigned long long>(s.count()), s.mean(),
                s.variance(), s.min(), s.max());
  out += buf;
}

}  // namespace

std::string point_digest(const SweepPoint& p) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%a|%lld|%lld|%u|", p.x,
                static_cast<long long>(p.deadline.ps),
                static_cast<long long>(p.worst_makespan.ps),
                p.degenerate_runs);
  out += buf;
  put_stat(out, p.npm_energy);
  for (const SchemeStats& s : p.stats) {
    out += to_string(s.scheme);
    out += ':';
    put_stat(out, s.norm_energy);
    put_stat(out, s.speed_changes);
    put_stat(out, s.finish_frac);
    put_stat(out, s.busy_frac);
    put_stat(out, s.overhead_frac);
    put_stat(out, s.idle_frac);
    out += std::to_string(s.deadline_misses) + ',' +
           std::to_string(s.verify_failures) + '|';
  }
  return out;
}

std::string deadline_problem(const SweepPoint& p) {
  for (const SchemeStats& s : p.stats) {
    if (s.deadline_misses != 0 || s.verify_failures != 0) {
      std::ostringstream os;
      os << to_string(s.scheme) << " at x=" << p.x << ": "
         << s.deadline_misses << " deadline misses, " << s.verify_failures
         << " verify failures";
      return os.str();
    }
  }
  return {};
}

void check_baselines(Tally& tally) {
  // The pinned cases of tests/test_regression.cpp.
  struct Case {
    const char* file;
    bool atr;
    LevelTable table;
    int cpus;
    std::vector<double> loads;
  };
  const Case cases[] = {
      {"atr_transmeta_2cpu", true, LevelTable::transmeta_tm5400(), 2,
       {0.25, 0.5, 0.75, 1.0}},
      {"atr_xscale_6cpu", true, LevelTable::intel_xscale(), 6, {0.4, 0.8}},
      {"synthetic_xscale_2cpu", false, LevelTable::intel_xscale(), 2,
       {0.3, 0.6, 0.9}},
  };
  for (const Case& c : cases) {
    const std::string path = std::string("tests/baselines/") + c.file + ".csv";
    std::ifstream in(path);
    if (!in.good()) {
      tally.add(false, "missing baseline " + path);
      continue;
    }
    ExperimentConfig cfg;
    cfg.cpus = c.cpus;
    cfg.table = c.table;
    cfg.runs = 60;
    cfg.seed = 20020818;
    const Application app = c.atr ? apps::build_atr() : apps::build_synthetic();
    const BaselineDiff diff = check_baseline(in, sweep_load(app, cfg, c.loads));
    tally.add(diff.ok, path + ": " +
                           (diff.mismatches.empty() ? std::string("mismatch")
                                                    : diff.mismatches[0]));
  }
}

GeneratedGraph generate_graph(std::uint64_t seed, std::uint64_t index) {
  Rng rng(Rng::stream_seed(seed, index));
  GeneratedGraph g;
  char name[32];
  std::snprintf(name, sizeof(name), "g%llu",
                static_cast<unsigned long long>(index));
  g.name = name;
  Program program;
  if (index % 2 == 0) {
    // Nesting and loop bounds keep every graph's scenario space small
    // enough for dedup at the campaign's run count and stop a few giant
    // graphs from dominating a pass.
    apps::RandomAppConfig config;
    config.max_depth = 2;
    config.max_segments = 3;
    config.max_loop_iters = 2;
    program = apps::random_program(rng, config);
  } else {
    const int stages = 2 + static_cast<int>(rng.next_u64() % 2);
    program = apps::layered_program(rng, apps::LayeredConfig{}, stages);
  }
  g.text = workload_to_string(g.name, program);
  return g;
}

}  // namespace perfbench
