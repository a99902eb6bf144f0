// The serve-mix workload: the resident daemon with default settings,
// driven over loopback NDJSON by one generator thread that multiplexes
// closed-loop connections, in rounds that alternate between 1 and 4
// connections. Closed loop because the daemon's callers are campaign
// scripts that block on each reply.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include "apps/atr.h"
#include "apps/synthetic.h"
#include "bench.h"
#include "common/rng.h"
#include "core/offline.h"
#include "graph/canonical_hash.h"
#include "graph/text_format.h"
#include "harness/json.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"

namespace perfbench {

using namespace paserta;

namespace {

constexpr int kServeRuns = 1000;     // Monte-Carlo runs per request
constexpr int kMinRounds = 5;        // rounds per client count, at least
constexpr int kHotGraphs = 32;       // inline graphs that keep recurring
constexpr int kLayerRequests = 200;  // requests replayed through the layers

const char* const kWarmup =
    R"({"graph":"@atr","runs":1000,"load":0.5,"seed":1})";

/// The request sequence of a round: 60 builtin points (@atr or
/// @synthetic 7:3, at varied load, seed, cpus and table), 110 inline
/// graphs from a recurring set of 32, 24 inline graphs never sent before,
/// and 6 exact duplicates of the request before them (coalesced when they
/// meet in flight). Rounds are short so that each request is measured
/// many times in a window. The composition is fixed; the seed shuffles it
/// and draws loads, seeds and the first-sighting graphs, so rounds of
/// different seeds cost about the same. Builtin points are under a third:
/// their costs form two tight clusters, and with more of them the median
/// request sat on a cluster edge and jumped by 25% between seeds.
std::vector<std::string> make_stream(std::uint64_t seed) {
  constexpr int kBuiltin = 60, kHot = 110, kNovel = 24, kDuplicates = 6;
  Rng rng(Rng::stream_seed(seed, 0x5E00));
  const auto pick = [&](int n) {
    return static_cast<int>(rng.next_u64() % static_cast<std::uint64_t>(n));
  };
  const char* const loads[] = {"0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1"};
  const auto params = [&](int table, int cpus, int rseed, const char* load) {
    return std::string(",\"table\":\"") + (table ? "xscale" : "transmeta") +
           "\",\"cpus\":" + std::to_string(cpus) +
           ",\"runs\":" + std::to_string(kServeRuns) +
           ",\"seed\":" + std::to_string(rseed) + ",\"load\":" + load + "}";
  };
  const auto inline_graph = [](const std::string& text) {
    return "{\"graph\":{\"text\":\"" + json_escape(text) + "\"}";
  };

  std::vector<std::string> lines;
  for (int i = 0; i < kBuiltin; ++i) {
    lines.push_back(std::string("{\"graph\":\"") +
                    (i % 10 < 7 ? "@atr" : "@synthetic") + "\"" +
                    params(i / 10 % 2, 2 + 2 * (i / 20 % 2), 1 + pick(2),
                           loads[pick(7)]));
  }
  std::vector<std::string> hot;
  for (int h = 0; h < kHotGraphs; ++h) {
    hot.push_back(generate_graph(kSharedGraphSeed,
                                 500000 + static_cast<std::uint64_t>(h))
                      .text);
  }
  for (int i = 0; i < kHot; ++i) {
    // A hot graph keeps its platform; only load and seed vary.
    const int h = i % kHotGraphs;
    lines.push_back(inline_graph(hot[static_cast<std::size_t>(h)]) +
                    params(h % 2, 2 + 2 * (h / 2 % 2), 1 + pick(2),
                           loads[2 * pick(3) + 1]));
  }
  for (int i = 0; i < kNovel; ++i) {
    const GeneratedGraph g =
        generate_graph(seed, 1000000 + static_cast<std::uint64_t>(i));
    lines.push_back(inline_graph(g.text) +
                    params(i % 2, 2 + 2 * (i / 2 % 2), 1, loads[pick(7)]));
  }
  for (std::size_t i = lines.size() - 1; i > 0; --i) {
    std::swap(lines[i], lines[static_cast<std::size_t>(
                            rng.next_u64() % (i + 1))]);
  }
  for (int i = 0; i < kDuplicates; ++i) {
    const auto at = 1 + static_cast<std::size_t>(
                            rng.next_u64() % (lines.size() - 1));
    std::string duplicate = lines[at - 1];
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                 std::move(duplicate));
  }
  return lines;
}

/// A blocking NDJSON connection whose reads are driven by poll().
struct Conn {
  int fd = -1;
  std::string buf;
  Clock::time_point sent{};
  std::size_t index = 0;
  bool busy = false;

  explicit Conn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      throw std::runtime_error("connect() to the daemon failed");
  }
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_line(const std::string& line) {
    const std::string data = line + "\n";
    sent = Clock::now();
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send() to the daemon failed");
      off += static_cast<std::size_t>(n);
    }
    busy = true;
  }

  /// Reads what is available; true with `line` set once a full response
  /// line has arrived.
  bool read_some(std::string& line) {
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    buf.append(chunk, static_cast<std::size_t>(n));
    const std::size_t nl = buf.find('\n');
    if (nl == std::string::npos) return false;
    line = buf.substr(0, nl);
    buf.erase(0, nl + 1);
    busy = false;
    return true;
  }
};

std::string blocking_request(std::uint16_t port, const std::string& line) {
  Conn c(port);
  c.send_line(line);
  std::string response;
  while (!c.read_some(response)) {
  }
  return response;
}

/// The daemon with default settings on an ephemeral loopback port.
struct Daemon {
  SimService service{ServeSettings{}};
  SimServer server{service, ServerSettings{}};
};

Application request_app(const SimRequest& req) {
  if (req.graph_is_text) return load_application_string(req.graph);
  return req.graph == "@atr" ? apps::build_atr() : apps::build_synthetic();
}

ExperimentConfig request_config(const SimRequest& req) {
  ExperimentConfig cfg;
  cfg.cpus = req.cpus;
  cfg.table = req.table == "xscale" ? LevelTable::intel_xscale()
                                    : LevelTable::transmeta_tm5400();
  cfg.runs = req.runs;
  cfg.seed = req.seed;
  cfg.heuristic = req.heuristic;
  if (!req.schemes.empty()) cfg.schemes = req.schemes;
  return cfg;
}

/// The "experiment" document `paserta_cli sweep --json` prints for the
/// request's point, computed directly (4 threads; output is thread-count
/// invariant).
std::string direct_document(const std::string& line) {
  const SimRequest req = parse_request(line, ServeLimits{});
  const Application app = request_app(req);
  ExperimentConfig cfg = request_config(req);
  cfg.threads = kWideThreads;
  JsonExportOptions jopt;
  jopt.experiment_id = app.name + "-load";
  jopt.caption = "paserta_cli sweep";
  jopt.x_name = "load";
  return sweep_to_json(sweep_load(app, cfg, {req.load}), jopt);
}

/// Every reply must be a result whose "experiment" is byte-identical to
/// the direct computation of the same point; one op per reply.
void check_reply(const std::string& line, const std::string& reply,
                 const std::map<std::string, std::string>& expected,
                 Tally& tally) {
  const std::string key = "\"experiment\":";
  const std::size_t at = reply.find(key);
  if (reply.rfind("{\"type\":\"result\"", 0) != 0 ||
      at == std::string::npos || reply.back() != '}') {
    tally.add(false, "not a result: " + reply.substr(0, 200));
    return;
  }
  const std::string doc =
      reply.substr(at + key.size(), reply.size() - 1 - at - key.size());
  tally.add(doc == expected.at(line),
            "experiment differs from the direct run for " +
                line.substr(0, 120));
}

/// What one round observed, indexed by stream position; counters exclude
/// the warm-up request.
struct Round {
  double wall_s = 0;
  double cpu_s = 0;
  double daemon_cpu_s = 0;  // process CPU minus the generator thread's
  std::vector<double> latency_ms;
  std::uint64_t requests = 0, coalesced = 0, interned = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, analyses = 0;
};

/// One round on a fresh, warmed daemon, so every round sees the same
/// first sightings: `clients` connections each send their next request as
/// soon as their reply lands, until the stream is used up. Replies are
/// checked against `expected` after the round's clock stops.
Round run_round(const std::vector<std::string>& lines, int clients,
                const std::map<std::string, std::string>& expected,
                Tally& tally, bool show_profile) {
  Daemon d;
  const std::uint16_t port = d.server.port();
  blocking_request(port, kWarmup);
  const auto counter = [&](const char* name) {
    return counter_value(d.service.registry(), name);
  };
  const std::uint64_t requests0 = counter("serve.requests");
  const std::uint64_t coalesced0 = counter("serve.coalesced");
  const std::uint64_t interned0 = counter("serve.graph_interned");
  const std::uint64_t hits0 = counter("offline.cache.hits");
  const std::uint64_t misses0 = counter("offline.cache.misses");

  Round r;
  r.latency_ms.resize(lines.size());
  std::vector<std::string> replies(lines.size());
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < clients; ++i)
    conns.push_back(std::make_unique<Conn>(port));
  std::vector<pollfd> pfds(conns.size());

  const std::uint64_t analyses0 = canonical_analysis_count();
  const double cpu0 = process_cpu_s();
  const double gen0 = thread_cpu_s();
  const auto t0 = Clock::now();
  std::size_t next = 0;
  std::size_t in_flight = 0;
  const auto send_next = [&](Conn& c) {
    if (next == lines.size()) return;
    c.index = next;
    c.send_line(lines[next++]);
    ++in_flight;
  };
  for (auto& c : conns) send_next(*c);
  std::string line;
  while (in_flight > 0) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i]->fd,
                       static_cast<short>(conns[i]->busy ? POLLIN : 0), 0};
    }
    if (::poll(pfds.data(), pfds.size(), -1) < 0)
      throw std::runtime_error("poll() failed");
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *conns[i];
      if (!c.read_some(line)) continue;
      --in_flight;
      r.latency_ms[c.index] = std::chrono::duration<double, std::milli>(
                                  Clock::now() - c.sent).count();
      replies[c.index] = std::move(line);
      send_next(c);
    }
  }
  r.wall_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  r.daemon_cpu_s = r.cpu_s - (thread_cpu_s() - gen0);
  r.analyses = canonical_analysis_count() - analyses0;
  r.requests = counter("serve.requests") - requests0;
  r.coalesced = counter("serve.coalesced") - coalesced0;
  r.interned = counter("serve.graph_interned") - interned0;
  r.cache_hits = counter("offline.cache.hits") - hits0;
  r.cache_misses = counter("offline.cache.misses") - misses0;
  for (std::size_t i = 0; i < lines.size(); ++i)
    check_reply(lines[i], replies[i], expected, tally);
  if (show_profile)
    print_profile(d.service.profiler(), "the daemon, one 4-client round");
  return r;
}

/// Each request's best latency over the rounds, ms. The host is shared and
/// interference only ever slows a request down; single rounds moved by up
/// to 25% with the neighbours' load.
std::vector<double> best_latency(const std::vector<Round>& rounds) {
  std::vector<double> best = rounds.front().latency_ms;
  for (const Round& r : rounds)
    for (std::size_t i = 0; i < best.size(); ++i)
      best[i] = std::min(best[i], r.latency_ms[i]);
  return best;
}

}  // namespace

int run_serve_mix(const Options& opt, Tally& tally, Metrics& m) {
  if (opt.setup_only) {
    Daemon d;
    blocking_request(d.server.port(), kWarmup);
    m["setup_s"] = seconds_since(opt.start);
    return 0;
  }
  const std::vector<std::string> lines = make_stream(opt.seed);
  std::map<std::string, std::string> expected;
  for (const std::string& line : lines)
    if (!expected.count(line)) expected.emplace(line, direct_document(line));
  std::vector<Round> one, wide;
  double peak_rss = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < opt.seconds ||
         static_cast<int>(one.size()) < kMinRounds) {
    one.push_back(run_round(lines, 1, expected, tally, false));
    wide.push_back(run_round(lines, kWideThreads, expected, tally, false));
    // After a fixed amount of work: later rounds only add freed-and-kept
    // allocator arenas, whose count follows how many rounds fit the window.
    if (one.size() == 1) peak_rss = peak_rss_mb();
  }

  // End to end. A "run" is one Monte-Carlo run a reply delivered.
  // Throughput follows from the best latencies by Little's law: with c
  // clients always waiting on a reply, c requests complete per mean
  // latency.
  const double n = static_cast<double>(lines.size());
  const std::vector<double> best_one = best_latency(one);
  const std::vector<double> best_wide = best_latency(wide);
  const auto rate = [&](const std::vector<double>& best_ms, int clients) {
    double sum_ms = 0;
    for (double v : best_ms) sum_ms += v;
    return 1e3 * clients * n / sum_ms;
  };
  m["rps"] = rate(best_wide, kWideThreads);
  m["runs_per_s"] = m["rps"] * kServeRuns;
  m["runs_per_s_1t"] = rate(best_one, 1) * kServeRuns;
  m["p50_ms.1c"] = quantile(best_one, 0.5);
  m["p99_ms.1c"] = quantile(best_one, 0.99);
  m["p50_ms.4c"] = quantile(best_wide, 0.5);
  m["p99_ms.4c"] = quantile(best_wide, 0.99);
  m["peak_rss_mb"] = peak_rss;

  check_baselines(tally);
  if (!opt.trace) return 0;

  run_round(lines, kWideThreads, expected, tally, true);
  double requests = 0, interned = 0, hits = 0, misses = 0;
  for (const auto* rounds : {&one, &wide}) {
    for (const Round& r : *rounds) {
      requests += static_cast<double>(r.requests);
      interned += static_cast<double>(r.interned);
      hits += static_cast<double>(r.cache_hits);
      misses += static_cast<double>(r.cache_misses);
    }
  }
  double wide_wall = 0, wide_cpu = 0, daemon_cpu = 0, wide_requests = 0,
         coalesced = 0;
  for (const Round& r : wide) {
    wide_wall += r.wall_s;
    wide_cpu += r.cpu_s;
    daemon_cpu += r.daemon_cpu_s;
    wide_requests += static_cast<double>(r.requests);
    coalesced += static_cast<double>(r.coalesced);
  }
  m["serve.store_hit_ratio"] = 1.0 - interned / requests;
  m["core.cache_hit_ratio"] = hits / std::max(1.0, hits + misses);
  m["core.analyses"] = static_cast<double>(one.front().analyses);
  m["serve.queue_ms"] = m["p50_ms.4c"] - m["p50_ms.1c"];
  m["serve.cpu_cores"] = daemon_cpu / wide_wall;
  m["harness.cpu_cores"] = wide_cpu / wide_wall;
  m["harness.scaling_eff"] =
      m["runs_per_s"] / (kWideThreads * m["runs_per_s_1t"]);
  m["serve.coalesced_frac"] = coalesced / wide_requests;

  double parse_s = 0;
  for (const std::string& line : lines) {
    const auto p0 = Clock::now();
    (void)parse_request(line, ServeLimits{});
    parse_s += seconds_since(p0);
  }
  m["serve.parse_us"] = 1e6 * parse_s / n;

  // In-process service time: the stream through SimService::submit_line on
  // a fresh warmed service, best of two passes per request like the
  // socket figure it is subtracted from.
  std::vector<double> service_ms(lines.size(), 1e300);
  for (int pass = 0; pass < 2; ++pass) {
    SimService svc{ServeSettings{}};
    svc.submit_line(kWarmup).response.get();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const auto s0 = Clock::now();
      svc.submit_line(lines[i]).response.get();
      service_ms[i] = std::min(service_ms[i], 1e3 * seconds_since(s0));
    }
  }
  m["serve.service_ms"] = median(service_ms);
  m["serve.transport_ms"] = m["p50_ms.1c"] - m["serve.service_ms"];

  // Graph and point layers over the first requests of the stream.
  const std::size_t k = std::min<std::size_t>(kLayerRequests, lines.size());
  std::vector<std::unique_ptr<Application>> apps;
  std::vector<LayerPoint> points;
  double graph_s = 0, hash_s = 0, nodes = 0, texts = 0, socket_ms = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const SimRequest req = parse_request(lines[i], ServeLimits{});
    auto a0 = Clock::now();
    apps.push_back(std::make_unique<Application>(request_app(req)));
    if (req.graph_is_text) {
      graph_s += seconds_since(a0);
      texts += 1;
    }
    a0 = Clock::now();
    (void)graph_content_hash(apps.back()->graph);
    hash_s += seconds_since(a0);
    nodes += static_cast<double>(apps.back()->graph.size());
    points.push_back({apps.back().get(), request_config(req), req.load});
    socket_ms += best_one[i];
  }
  const double kd = static_cast<double>(k);
  m["graph.parse_us"] = 1e6 * graph_s / std::max(1.0, texts);
  m["graph.hash_us"] = 1e6 * hash_s / kd;
  m["graph.nodes"] = nodes / kd;
  const LayerTimes lt = replay_layers(points);
  put_layer_metrics(lt, m);
  m["trace.layers_ms"] =
      1e3 * (graph_s + hash_s + parse_s * kd / n + lt.analyze_s + lt.apply_s +
             lt.compile_s + lt.sample_s + lt.engine_s);
  m["trace.wall_ms"] = socket_ms;
  return 0;
}

}  // namespace perfbench
