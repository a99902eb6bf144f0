// The benchmark binary. Runs one workload in this process and prints,
// as its last stdout line, one JSON object:
//   {"attempted":N,"failed":M,"failures":[...],"build":{...},"metrics":{...}}
// perfbench/run.py builds this binary, measures set-up over fresh
// processes, adds units and the host fingerprint, and prints the
// benchmark's result line.
//
//   perfbench --workload paper-sweep|graph-campaign|serve-mix --seed N
//             --seconds S [--trace 0|1] [--setup-only]
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "common/version.h"
#include "harness/json.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-sweep|graph-campaign|"
               "serve-mix --seed N --seconds S [--trace 0|1] "
               "[--setup-only]\n");
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0' && std::isfinite(out);
}

bool parse_seed(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && errno == 0 && s[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    double v = 0;
    bool ok = true;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      ok = parse_seed(argv[++i], opt.seed);
    } else if (a == "--seconds" && has_value && parse_number(argv[++i], v) &&
               v > 0) {
      opt.seconds = v;
    } else if (a == "--trace" && has_value && parse_number(argv[++i], v) &&
               (v == 0 || v == 1)) {
      opt.trace = v == 1;
    } else {
      ok = false;
    }
    if (!ok) return usage();
  }

  perfbench::Tally tally;
  perfbench::Metrics metrics;
  try {
    if (opt.workload == "paper-sweep") {
      perfbench::run_paper_sweep(opt, tally, metrics);
    } else if (opt.workload == "graph-campaign") {
      perfbench::run_graph_campaign(opt, tally, metrics);
    } else if (opt.workload == "serve-mix") {
      perfbench::run_serve_mix(opt, tally, metrics);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::string out = "{\"attempted\":" + std::to_string(tally.attempted) +
                    ",\"failed\":" + std::to_string(tally.failed) +
                    ",\"failures\":[";
  for (std::size_t i = 0; i < tally.messages.size(); ++i) {
    out += (i ? ",\"" : "\"") + paserta::json_escape(tally.messages[i]) + "\"";
  }
#if defined(__GNUC__) && !defined(__clang__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = __VERSION__;
#endif
  out += "],\"build\":{\"compiler\":\"" + paserta::json_escape(compiler) +
         "\",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"lib_rev\":\"" +
         paserta::json_escape(paserta::build_git_rev()) + "\"},\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (first ? "\"" : ",\"") + name + "\":" +
           (std::isfinite(value) ? buf : "null");
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
