// bench_compare — throughput regression gate over BENCH_throughput.json.
//
//   bench_compare [HISTORY] [--check] [--threshold PCT]
//
// Reads the append-only measurement history (default:
// BENCH_throughput.json next to the working directory), picks the newest
// two *clean* entries — an entry is clean when it carries a git_rev and its
// "dirty" provenance flag is absent or false — and compares every
// throughput series between them, matched by thread count:
//
//   point.samples[].runs_per_sec          (Monte-Carlo hot loop, by threads)
//   batch.samples[].runs_per_sec          (batched engine, by batch size)
//   dedup.samples[].on_runs_per_sec       (scenario-dedup path, by run count)
//   sweep.samples[].pooled_points_per_sec (whole-sweep pooled path)
//   serve.samples[].requests_per_sec      (resident daemon, by client count)
//
// A drop larger than the threshold (default 5 %) in any matched series is a
// regression. Dirty entries are skipped with a warning (a number measured
// on uncommitted changes cannot be attributed to its revision); legacy
// entries without a git_rev are skipped the same way.
//
// The newest clean entry is additionally held to a sweep-efficiency floor
// (--efficiency-floor, default 0.5): at the entry's maximum recorded
// thread count, pooled scaling efficiency — normalized by what the
// recording host could physically deliver, min(threads, host_threads) —
// must not fall below the floor, so thread scaling can never silently
// regress back to ~1x while absolute throughput stays flat. Entries
// without host_threads provenance (recorded before it existed) skip the
// gate with a note. It is also held to a lane-count floor (--batch-floor,
// default 1.0): in the batch section, the auto lane count (batch=0) must
// run at least that multiple of the one-lane (batch=1) runs/sec — the two
// share one invocation, so the ratio is host-speed independent. (Entries
// recorded before batch=1 meant one lane measured the scalar engine
// there; the gate reads them the same way.) Entries without a batch
// section skip this gate with a note.
// A third floor (--dedup-floor, default 3.0) holds the dedup section's
// recorded on-over-off speedup at its largest run count; entries without a
// dedup section skip it with a note. A fourth floor (--serve-cache-floor,
// default 0.9) holds the serve section's offline-cache hit rate at its
// largest client count: the daemon's whole point is that a resident
// process re-serves repeated graphs from the cross-request cache, so a hit
// rate collapse is a regression even if raw requests/sec still looks fine.
// Entries without a serve section skip it with a note. Failure summaries
// name every series and gate that tripped.
//
// Exit status: without --check always 0 (report mode, for humans). With
// --check: 1 on a regression, 0 otherwise — including when fewer than two
// clean entries exist, which prints a note and passes so CI can adopt the
// gate before the history has a comparable pair.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "harness/json.h"

using namespace paserta;

namespace {

struct Args {
  std::string history = "BENCH_throughput.json";
  bool check = false;
  double threshold_pct = 5.0;
  double efficiency_floor = 0.5;
  double batch_floor = 1.0;
  double dedup_floor = 3.0;
  double serve_cache_floor = 0.9;
};

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::cerr << "error: " << msg << "\n";
  std::cerr << "usage: bench_compare [HISTORY] [--check] [--threshold PCT]\n"
               "                     [--efficiency-floor F] [--batch-floor F]\n"
               "\n"
               "  HISTORY          throughput history file (default\n"
               "                   BENCH_throughput.json)\n"
               "  --check          exit 1 when a throughput series regressed\n"
               "                   by more than the threshold between the\n"
               "                   newest two clean entries, or the newest\n"
               "                   entry fails the efficiency floor\n"
               "  --threshold PCT  regression threshold in percent\n"
               "                   (default 5)\n"
               "  --efficiency-floor F\n"
               "                   minimum pooled sweep efficiency at the\n"
               "                   newest entry's max thread count, after\n"
               "                   normalizing by the recording host's\n"
               "                   min(threads, host_threads) (default 0.5;\n"
               "                   0 disables the gate)\n"
               "  --batch-floor F  minimum auto-over-one-lane speedup in\n"
               "                   the newest entry's batch section (auto\n"
               "                   batch runs/sec over batch=1 runs/sec;\n"
               "                   default 1.0; 0 disables the gate;\n"
               "                   entries without a batch section skip it\n"
               "                   with a note)\n"
               "  --dedup-floor F  minimum dedup-on over dedup-off speedup\n"
               "                   at the largest run count of the newest\n"
               "                   entry's dedup section (default 3.0; 0\n"
               "                   disables the gate; entries without a\n"
               "                   dedup section skip it with a note)\n"
               "  --serve-cache-floor F\n"
               "                   minimum offline-cache hit rate at the\n"
               "                   largest client count of the newest\n"
               "                   entry's serve section (default 0.9; 0\n"
               "                   disables the gate; entries without a\n"
               "                   serve section skip it with a note)\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_history = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (const std::size_t eq = flag.find('=');
        flag.rfind("--", 0) == 0 && eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      has_inline = true;
      flag.erase(eq);
    }
    const auto value = [&](const char* name) -> std::string {
      if (has_inline) return inline_value;
      if (++i >= argc) usage((std::string(name) + " needs a value").c_str());
      return argv[i];
    };
    if (flag == "--check") {
      a.check = true;
    } else if (flag == "--threshold") {
      char* end = nullptr;
      const std::string v = value("--threshold");
      a.threshold_pct = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.threshold_pct >= 0.0))
        usage("--threshold needs a non-negative number");
    } else if (flag == "--efficiency-floor") {
      char* end = nullptr;
      const std::string v = value("--efficiency-floor");
      a.efficiency_floor = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.efficiency_floor >= 0.0))
        usage("--efficiency-floor needs a non-negative number");
    } else if (flag == "--batch-floor") {
      char* end = nullptr;
      const std::string v = value("--batch-floor");
      a.batch_floor = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.batch_floor >= 0.0))
        usage("--batch-floor needs a non-negative number");
    } else if (flag == "--serve-cache-floor") {
      char* end = nullptr;
      const std::string v = value("--serve-cache-floor");
      a.serve_cache_floor = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.serve_cache_floor >= 0.0))
        usage("--serve-cache-floor needs a non-negative number");
    } else if (flag == "--dedup-floor") {
      char* end = nullptr;
      const std::string v = value("--dedup-floor");
      a.dedup_floor = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.dedup_floor >= 0.0))
        usage("--dedup-floor needs a non-negative number");
    } else if (flag == "--help" || flag == "-h") {
      usage();
    } else if (flag.rfind("--", 0) == 0) {
      usage(("unknown flag " + flag).c_str());
    } else if (!have_history) {
      a.history = flag;
      have_history = true;
    } else {
      usage("more than one history file given");
    }
  }
  return a;
}

std::string entry_label(const JsonValue& e, std::size_t index) {
  const JsonValue* rev = e.find("git_rev");
  std::ostringstream os;
  os << "entry #" << index;
  if (rev != nullptr && rev->type == JsonValue::Type::String)
    os << " (" << rev->str << ")";
  return os.str();
}

/// Clean = attributable to a revision: git_rev present, dirty flag absent
/// (pre-flag history) or false.
bool is_clean(const JsonValue& e, std::size_t index) {
  const JsonValue* rev = e.find("git_rev");
  if (rev == nullptr || rev->type != JsonValue::Type::String) {
    std::cerr << "warning: skipping " << entry_label(e, index)
              << " — no git_rev (legacy entry)\n";
    return false;
  }
  const JsonValue* dirty = e.find("dirty");
  if (dirty != nullptr && dirty->type == JsonValue::Type::Bool &&
      dirty->boolean) {
    std::cerr << "warning: skipping " << entry_label(e, index)
              << " — measured on a dirty tree\n";
    return false;
  }
  return true;
}

struct Series {
  std::string name;  // e.g. "point.runs_per_sec@threads=4"
  double value = 0.0;
};

/// Flattens one entry's throughput series: every sample of `section` keyed
/// by `key` (the per-sample discriminator — thread count for the point and
/// sweep sections, requested batch size for the batch section), reading
/// `field`.
void collect(const JsonValue& entry, const char* section, const char* key,
             const char* field, std::vector<Series>& out) {
  const JsonValue* sec = entry.find(section);
  if (sec == nullptr || !sec->is_object()) return;
  const JsonValue* samples = sec->find("samples");
  if (samples == nullptr || !samples->is_array()) return;
  for (const JsonValue& s : samples->array) {
    const JsonValue* k = s.find(key);
    const JsonValue* v = s.find(field);
    if (k == nullptr || k->type != JsonValue::Type::Number || v == nullptr ||
        v->type != JsonValue::Type::Number)
      continue;
    std::ostringstream name;
    name << section << "." << field << "@" << key << "="
         << static_cast<long long>(k->number);
    out.push_back({name.str(), v->number});
  }
}

std::vector<Series> collect_entry(const JsonValue& entry) {
  std::vector<Series> out;
  collect(entry, "point", "threads", "runs_per_sec", out);
  collect(entry, "batch", "batch", "runs_per_sec", out);
  collect(entry, "dedup", "runs", "on_runs_per_sec", out);
  collect(entry, "sweep", "threads", "pooled_points_per_sec", out);
  collect(entry, "serve", "clients", "requests_per_sec", out);
  return out;
}

/// Sweep-efficiency gate on one entry: at the maximum recorded thread
/// count, pooled efficiency must clear `floor` after normalizing by the
/// parallelism the recording host could actually deliver. The recorded
/// efficiency divides the speedup-over-1-thread by the *requested* thread
/// count, so a 1-core host pins it to ~1/threads no matter how well the
/// code scales; multiplying back by threads / min(threads, host_threads)
/// judges the code, not the machine. Returns false on a violation.
bool efficiency_gate_ok(const JsonValue& entry, std::size_t index,
                        double floor) {
  if (!(floor > 0.0)) return true;  // disabled
  const JsonValue* sweep = entry.find("sweep");
  const JsonValue* samples =
      sweep != nullptr && sweep->is_object() ? sweep->find("samples") : nullptr;
  if (samples == nullptr || !samples->is_array()) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no sweep samples — efficiency gate skipped\n";
    return true;
  }
  const JsonValue* host = sweep->find("host_threads");
  if (host == nullptr || host->type != JsonValue::Type::Number ||
      !(host->number >= 1.0)) {
    std::cout << "note: " << entry_label(entry, index)
              << " predates host_threads provenance — efficiency gate "
                 "skipped\n";
    return true;
  }
  const JsonValue* best = nullptr;
  double best_threads = 0.0;
  for (const JsonValue& s : samples->array) {
    const JsonValue* threads = s.find("threads");
    const JsonValue* eff = s.find("efficiency");
    if (threads == nullptr || threads->type != JsonValue::Type::Number ||
        eff == nullptr || eff->type != JsonValue::Type::Number)
      continue;
    if (best == nullptr || threads->number > best_threads) {
      best = &s;
      best_threads = threads->number;
    }
  }
  if (best == nullptr || !(best_threads > 1.0)) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no multi-thread sweep sample — efficiency gate "
                 "skipped\n";
    return true;
  }
  const double raw = best->find("efficiency")->number;
  const double achievable = std::min(best_threads, host->number);
  const double normalized = raw * best_threads / achievable;
  const bool ok = normalized >= floor;
  std::cout << "  " << (ok ? "ok" : "REGRESSION")
            << "  sweep.efficiency@threads="
            << static_cast<long long>(best_threads) << ": raw " << raw
            << ", host_threads " << static_cast<long long>(host->number)
            << " -> normalized " << normalized << " (floor " << floor
            << ")\n";
  return ok;
}

/// Lane-count gate on one entry: the auto lane count (batch == 0) must
/// deliver at least `floor` times the one-lane (batch == 1) runs/sec in
/// the entry's batch section. Both measurements come from the same bench
/// invocation, so the ratio cancels host speed and isolates engine
/// overhead — outputs are bit-identical at every lane count, so anything
/// below 1.0 is pure loss. Returns false on a violation.
bool batch_gate_ok(const JsonValue& entry, std::size_t index, double floor) {
  if (!(floor > 0.0)) return true;  // disabled
  const JsonValue* batch = entry.find("batch");
  const JsonValue* samples =
      batch != nullptr && batch->is_object() ? batch->find("samples") : nullptr;
  if (samples == nullptr || !samples->is_array()) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no batch section — batch gate skipped\n";
    return true;
  }
  const double* one_lane = nullptr;
  const double* batched = nullptr;
  for (const JsonValue& s : samples->array) {
    const JsonValue* b = s.find("batch");
    const JsonValue* v = s.find("runs_per_sec");
    if (b == nullptr || b->type != JsonValue::Type::Number || v == nullptr ||
        v->type != JsonValue::Type::Number)
      continue;
    if (b->number == 1.0) one_lane = &v->number;
    if (b->number == 0.0) batched = &v->number;
  }
  if (one_lane == nullptr || batched == nullptr || !(*one_lane > 0.0)) {
    std::cout << "note: " << entry_label(entry, index)
              << " lacks batch=1 / batch=0 samples — batch gate skipped\n";
    return true;
  }
  const double speedup = *batched / *one_lane;
  const bool ok = speedup >= floor;
  std::cout << "  " << (ok ? "ok" : "REGRESSION")
            << "  batch.runs_per_sec@batch=0 over @batch=1: " << *batched
            << " / " << *one_lane << " -> " << speedup << "x (floor " << floor
            << ")\n";
  return ok;
}

/// Scenario-dedup gate on one entry: at the largest run count of the dedup
/// section, the recorded dedup-on-over-off speedup must clear `floor`. The
/// off and on measurements share one bench invocation on a discrete
/// (high-hit-rate) workload, so the ratio cancels host speed and isolates
/// the cache's scheduling win. Returns false on a violation.
bool dedup_gate_ok(const JsonValue& entry, std::size_t index, double floor) {
  if (!(floor > 0.0)) return true;  // disabled
  const JsonValue* dedup = entry.find("dedup");
  const JsonValue* samples =
      dedup != nullptr && dedup->is_object() ? dedup->find("samples") : nullptr;
  if (samples == nullptr || !samples->is_array()) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no dedup section — dedup gate skipped\n";
    return true;
  }
  const JsonValue* best = nullptr;
  double best_runs = 0.0;
  for (const JsonValue& s : samples->array) {
    const JsonValue* runs = s.find("runs");
    const JsonValue* speedup = s.find("speedup");
    if (runs == nullptr || runs->type != JsonValue::Type::Number ||
        speedup == nullptr || speedup->type != JsonValue::Type::Number)
      continue;
    if (best == nullptr || runs->number > best_runs) {
      best = &s;
      best_runs = runs->number;
    }
  }
  if (best == nullptr) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no usable dedup samples — dedup gate skipped\n";
    return true;
  }
  const double speedup = best->find("speedup")->number;
  const JsonValue* hit_rate = best->find("hit_rate");
  const bool ok = speedup >= floor;
  std::cout << "  " << (ok ? "ok" : "REGRESSION") << "  dedup.speedup@runs="
            << static_cast<long long>(best_runs) << ": " << speedup
            << "x (floor " << floor << ")";
  if (hit_rate != nullptr && hit_rate->type == JsonValue::Type::Number)
    std::cout << ", hit rate " << hit_rate->number;
  std::cout << "\n";
  return ok;
}

/// Serve-cache gate on one entry: at the largest client count of the serve
/// section, the recorded offline-cache hit rate must clear `floor`. The
/// bench replays one request line against a resident daemon, so after the
/// warm-up every request should be answered from the cross-request cache;
/// a collapsing hit rate means the daemon silently re-analyzes per request.
/// Returns false on a violation.
bool serve_gate_ok(const JsonValue& entry, std::size_t index, double floor) {
  if (!(floor > 0.0)) return true;  // disabled
  const JsonValue* serve = entry.find("serve");
  const JsonValue* samples =
      serve != nullptr && serve->is_object() ? serve->find("samples") : nullptr;
  if (samples == nullptr || !samples->is_array()) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no serve section — serve-cache gate skipped\n";
    return true;
  }
  const JsonValue* best = nullptr;
  double best_clients = 0.0;
  for (const JsonValue& s : samples->array) {
    const JsonValue* clients = s.find("clients");
    const JsonValue* rate = s.find("cache_hit_rate");
    if (clients == nullptr || clients->type != JsonValue::Type::Number ||
        rate == nullptr || rate->type != JsonValue::Type::Number)
      continue;
    if (best == nullptr || clients->number > best_clients) {
      best = &s;
      best_clients = clients->number;
    }
  }
  if (best == nullptr) {
    std::cout << "note: " << entry_label(entry, index)
              << " has no usable serve samples — serve-cache gate skipped\n";
    return true;
  }
  const double rate = best->find("cache_hit_rate")->number;
  const bool ok = rate >= floor;
  std::cout << "  " << (ok ? "ok" : "REGRESSION")
            << "  serve.cache_hit_rate@clients="
            << static_cast<long long>(best_clients) << ": " << rate
            << " (floor " << floor << ")";
  const JsonValue* rps = best->find("requests_per_sec");
  if (rps != nullptr && rps->type == JsonValue::Type::Number)
    std::cout << ", " << rps->number << " requests/sec";
  std::cout << "\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);

  std::ifstream in(args.history);
  if (!in) {
    std::cerr << "error: cannot open history '" << args.history << "'\n";
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();

  JsonValue history;
  try {
    history = json_parse(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "error: malformed history: " << e.what() << "\n";
    return 2;
  }
  if (!history.is_array()) {
    std::cerr << "error: history is not a JSON array of entries\n";
    return 2;
  }

  // Newest two clean entries, scanning from the end of the append-only
  // history (candidate first, then its baseline).
  const JsonValue* candidate = nullptr;
  const JsonValue* baseline = nullptr;
  std::size_t candidate_idx = 0, baseline_idx = 0;
  for (std::size_t i = history.array.size(); i-- > 0;) {
    if (!is_clean(history.array[i], i)) continue;
    if (candidate == nullptr) {
      candidate = &history.array[i];
      candidate_idx = i;
    } else {
      baseline = &history.array[i];
      baseline_idx = i;
      break;
    }
  }
  if (candidate == nullptr || baseline == nullptr) {
    std::cout << "note: fewer than two clean entries in '" << args.history
              << "' — nothing to compare yet\n";
    return 0;
  }

  std::cout << "comparing " << entry_label(*baseline, baseline_idx)
            << " -> " << entry_label(*candidate, candidate_idx)
            << " (threshold " << args.threshold_pct << "%)\n";

  const std::vector<Series> base = collect_entry(*baseline);
  const std::vector<Series> cand = collect_entry(*candidate);
  int compared = 0;
  // Names of every series/gate that tripped: the failure summary must say
  // *which* measurement regressed, not just how many.
  std::vector<std::string> regressed_names;
  for (const Series& b : base) {
    const Series* c = nullptr;
    for (const Series& s : cand)
      if (s.name == b.name) {
        c = &s;
        break;
      }
    if (c == nullptr || !(b.value > 0.0)) continue;
    ++compared;
    const double delta_pct = (c->value - b.value) / b.value * 100.0;
    const bool regressed = delta_pct < -args.threshold_pct;
    if (regressed) regressed_names.push_back(b.name);
    std::cout << "  " << (regressed ? "REGRESSION" : "ok") << "  " << b.name
              << ": " << b.value << " -> " << c->value << " ("
              << (delta_pct >= 0 ? "+" : "") << delta_pct << "%)\n";
  }
  // Scaling gate on the newest entry alone: absolute throughput can sit
  // comfortably inside the threshold while thread scaling quietly decays
  // to ~1x, so efficiency is judged against an absolute floor, not a
  // delta.
  const bool efficiency_ok =
      efficiency_gate_ok(*candidate, candidate_idx, args.efficiency_floor);
  if (!efficiency_ok) regressed_names.push_back("sweep.efficiency floor");
  // Lane-count gate, also newest-entry-only: the auto and one-lane
  // numbers share one bench invocation, so a floor on their ratio is
  // host-independent in a way a cross-entry delta is not.
  const bool batch_ok =
      batch_gate_ok(*candidate, candidate_idx, args.batch_floor);
  if (!batch_ok) regressed_names.push_back("batch.speedup floor");
  // Scenario-dedup gate, newest-entry-only for the same reason.
  const bool dedup_ok =
      dedup_gate_ok(*candidate, candidate_idx, args.dedup_floor);
  if (!dedup_ok) regressed_names.push_back("dedup.speedup floor");
  // Serve-cache gate, newest-entry-only: the hit rate is a property of the
  // daemon's caching, not of host speed, so it gets an absolute floor.
  const bool serve_ok =
      serve_gate_ok(*candidate, candidate_idx, args.serve_cache_floor);
  if (!serve_ok) regressed_names.push_back("serve.cache_hit_rate floor");

  if (compared == 0 && efficiency_ok && batch_ok && dedup_ok && serve_ok) {
    std::cout << "note: no matching throughput series between the two "
                 "entries\n";
    return 0;
  }
  if (!regressed_names.empty()) {
    std::cout << regressed_names.size() << " series regressed (threshold "
              << args.threshold_pct << "%, efficiency floor "
              << args.efficiency_floor << ", batch floor " << args.batch_floor
              << ", dedup floor " << args.dedup_floor << ", serve cache floor "
              << args.serve_cache_floor << "):\n";
    for (const std::string& name : regressed_names)
      std::cout << "  FAILED  " << name << "\n";
    return args.check ? 1 : 0;
  }
  std::cout << "all " << compared
            << " series within threshold; efficiency, batch, dedup and serve "
               "floors met\n";
  return 0;
}
