// Cycle-level phase profiler (DESIGN.md §17).
//
// A Profiler owns a fixed set of named phases; a ProfScope is an RAII
// region that charges its wall time — and, when the host grants
// perf_event_open, its hardware-counter deltas (cycles, instructions,
// cache references/misses, branch misses) — to one (phase, slot) cell.
// Slots follow the observability shard convention (obs/metrics.h): slot 0
// is the caller / dispatcher, slots 1..kMaxShards-1 are pool worker slots,
// each cell is written by exactly one thread and read with relaxed loads,
// so the profiler is TSan-clean against concurrent snapshot/export calls.
//
// Determinism contract: the profiler is write-only with respect to the
// simulation. A null Profiler* turns every ProfScope into a no-op (one
// pointer test, no clock read), and an active profiler only reads clocks
// and counters — sweep output is bit-identical with profiling on or off
// at every thread count and batch size (pinned by the prof_identity
// suite).
//
// Hardware counters: one perf_event_open group per thread (cycles leader
// + followers), opened lazily on first use, read with PERF_FORMAT_GROUP |
// TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING so multiplexed counters are
// scaled by enabled/running per scope delta. When the syscall is denied
// (containers, CI, kernel.perf_event_paranoid) the first failed probe
// latches a process-wide fallback and every scope records wall time only
// — same phases, same counts, hardware columns zero. PASERTA_NO_PERF=1
// forces the fallback without touching the syscall.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace paserta {

/// One phase's merged totals (all slots summed in fixed slot order, so the
/// merge is deterministic for any thread count).
struct ProfPhaseTotals {
  std::string name;
  /// Top-level phases tile the profiled call end to end (no overlap);
  /// nested phases break a top-level phase down and overlap their parent.
  /// Attribution math (profile command) sums top-level phases only.
  bool top_level = false;
  std::uint64_t count = 0;  // scope entries
  std::uint64_t ns = 0;     // wall time inside the phase
  // Hardware columns; all zero on the fallback clock.
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cache_refs = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
};

/// One rate-limited per-slot counter sample: cumulative totals across all
/// phases of `slot` at steady-clock time `ts_ns`, for Perfetto counter
/// tracks (obs/chrome_trace.h).
struct ProfSample {
  std::int64_t ts_ns = 0;  // absolute steady_clock nanoseconds
  int slot = 0;
  std::uint64_t ns = 0;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

class Profiler {
 public:
  enum class Mode {
    kAuto,      ///< hardware counters when the host grants them
    kFallback,  ///< monotonic clock only (tests, forced comparisons)
  };

  explicit Profiler(Mode mode = Mode::kAuto);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Registers (or finds, by exact name) a phase and returns its id.
  /// Registration order is the snapshot/export order. At most kMaxPhases
  /// distinct names; thread-safe.
  int phase(const char* name, bool top_level = false);

  /// True when scopes read live hardware counters (the process-wide probe
  /// succeeded and the profiler was constructed in kAuto mode).
  bool hardware() const { return hardware_; }

  /// Charges pre-measured wall time to (phase, slot) without reading any
  /// clock here — for callers that already timed the region (pool
  /// busy/idle accounting). Counts `count` scope entries.
  void add_ns(int phase, int slot, std::uint64_t ns, std::uint64_t count = 1);

  /// Merged per-phase totals, in registration order, slots summed in slot
  /// order. Safe to call while scopes are active on other threads (their
  /// in-flight deltas land in a later snapshot).
  std::vector<ProfPhaseTotals> snapshot() const;

  /// Wall time charged to top-level phases, per slot: entry s is slot s's
  /// total, up to the highest slot that recorded any (empty when none
  /// did). Top-level phases do not overlap on one slot, so no entry can
  /// exceed the wall time of the profiled call.
  std::vector<std::uint64_t> top_level_ns_by_slot() const;

  /// Exports the delta since the previous export as prof.<phase>.{ns,
  /// count[,cycles,instructions,cache_refs,cache_misses,branch_misses]}
  /// registry counters (hardware columns only when hardware() is true):
  /// repeated exports (periodic /metrics scrapes) never double-count.
  void export_delta_to(MetricsRegistry& reg);

  /// Rate-limited per-slot counter samples recorded so far (for the
  /// chrome-trace counter tracks). Bounded at kMaxSamples.
  std::vector<ProfSample> samples() const;

  static constexpr int kMaxPhases = 32;
  static constexpr int kSlots = kMaxShards;
  static constexpr int kMaxSamples = 4096;
  /// Minimum spacing between two counter samples of one slot.
  static constexpr std::int64_t kSampleIntervalNs = 10'000'000;  // 10 ms

 private:
  friend class ProfScope;

  enum Field {
    kCount = 0,
    kNs,
    kCycles,
    kInstructions,
    kCacheRefs,
    kCacheMisses,
    kBranchMisses,
    kFields,
  };

  /// One (phase, slot) accumulation cell: single writer (the slot's
  /// thread), relaxed readers, cache-line padded so neighbouring slots
  /// never share a line.
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v[kFields];
  };
  static_assert(kFields * sizeof(std::uint64_t) <= 64,
                "a Cell must fit one cache line");

  Cell& cell(int phase, int slot) {
    return cells_[static_cast<std::size_t>(phase) * kSlots + slot];
  }
  const Cell& cell(int phase, int slot) const {
    return cells_[static_cast<std::size_t>(phase) * kSlots + slot];
  }

  void maybe_sample(int slot, std::int64_t now);

  bool hardware_ = false;
  std::vector<Cell> cells_;  // kMaxPhases * kSlots, preallocated
  mutable std::mutex m_;     // phase table, samples, export bookkeeping
  std::vector<std::string> names_;
  std::vector<std::uint8_t> top_level_;
  std::atomic<int> phase_count_{0};
  std::vector<ProfSample> samples_;
  std::atomic<std::int64_t> next_sample_ns_[kSlots] = {};
  std::vector<std::uint64_t> exported_;  // last-export totals, phase-major
};

/// Attribution of one profiled call that took `wall_ns`, against CPU time:
/// each slot that recorded top-level time had the call's wall time to
/// spend, so the call had wall x slots of CPU time. Per-slot thread time
/// summed against one wall clock overshoots 100 % as soon as more than one
/// slot works; shares of CPU time cannot.
struct ProfAttribution {
  double cpu_ns = 0.0;              // wall_ns x slot_util.size()
  double attributed = 0.0;          // top-level ns / cpu_ns, in [0, 1]
  std::vector<double> slot_util;    // per slot: its top-level ns / wall_ns
};

ProfAttribution attribute_cpu_time(const Profiler& prof, double wall_ns);

/// RAII phase region. Null profiler = single pointer test, nothing else.
/// The slot must follow the shard contract: one live writer per (profiler,
/// slot) at a time.
class ProfScope {
 public:
  ProfScope(Profiler* prof, int phase, int slot) : prof_(prof) {
    if (prof_ != nullptr) begin(phase, slot);
  }
  ~ProfScope() {
    if (prof_ != nullptr) end();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void begin(int phase, int slot);
  void end();

  Profiler* prof_;
  int phase_ = 0;
  int slot_ = 0;
  std::int64_t t0_ = 0;
  bool hw_ = false;
  std::uint64_t hw0_[5] = {};  // raw start values (cycles..branch_misses)
  std::uint64_t te0_ = 0, tr0_ = 0;  // time enabled / running at start
};

}  // namespace paserta
