// Simulation kernel (see batch_engine.h and DESIGN.md §14).
//
// Correctness contract: every per-lane step below is the paper's dispatch
// step exactly as the reference engine (tests/reference_engine.h) writes
// it — sorted (EO, id) ready queue, (finish, seq) completion order,
// required_freq -> max(floor) -> quantize_up speed choice, scale_time
// durations — operating on lane-major slab rows. Integer arithmetic is
// hoisted, amortized and restructured as long as every produced value is
// identical:
//
//  * the per-level compute-overhead table, the shared initial ready set
//    and the policy's rule are pure functions of the plan's inputs, built
//    once into the KernelPlan;
//  * the sorted-key ready queue is a bitmap over execution order: EO
//    values are unique on any single run path (EO ranges only overlap
//    across mutually exclusive OR alternatives), so lowest-set-bit pop is
//    the identical order with O(1) insert instead of a sorted shift;
//  * the speed choice required_freq -> max(floor) -> quantize_up is
//    replaced by a multiply-compare walk up the level table from the
//    floor's level (freq * avail >= f_max * wcet <=> freq >= ceil), which
//    selects the identical level without a division; both products are
//    exact 128-bit products, so the walk holds for every input;
//  * duration scaling ceil(actual * f_max / freq) uses a per-level 2^64
//    reciprocal with a final exact fixup, yielding the identical quotient
//    of scale_time for every input (overflow-guarded: out-of-range inputs
//    take the original scale_time path);
//  * the per-dispatch finish-clock update is dropped: dispatch only ever
//    runs at instants already folded into last_activity (t = 0 initially,
//    or a completion time maxed in by on_completion before dispatch runs),
//    so the final value is unchanged.
//
// The end-of-run floating-point fold is attribution_energy()'s canonical
// fold (sim/engine.cpp) over the touched entries. Any divergence is a bug
// that the reference cross-validation suites (tests/test_batch_engine.cpp,
// tests/test_reference_identity.cpp) and the fig4a identity matrix
// (tests/test_thread_scaling.cpp) must catch.
#include "sim/batch_engine.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "obs/prof.h"

namespace paserta {

void BatchWorkspace::ensure(std::size_t lanes_in, std::size_t nodes_in,
                            std::size_t cpus_in, std::size_t levels_in,
                            bool trace) {
  const std::size_t new_sn = aligned_stride<std::uint64_t>(nodes_in);
  const std::size_t new_sc = aligned_stride<std::uint64_t>(cpus_in);
  const std::size_t new_sl = aligned_stride<std::uint64_t>(levels_in);
  const std::size_t new_sll =
      aligned_stride<std::uint64_t>(levels_in * levels_in);
  const std::size_t new_sw =
      aligned_stride<std::uint64_t>((nodes_in + 63) / 64);
  const bool regeometry = new_sn != sn || new_sc != sc || new_sl != sl ||
                          new_sll != sll || new_sw != sw || lanes_in > lanes;
  if (!regeometry) {
    nodes = nodes_in;
    cpus = cpus_in;
    levels = levels_in;
    if (trace && traces.size() < lanes) traces.resize(lanes);
    return;
  }
  lanes = std::max(lanes, lanes_in);
  nodes = nodes_in;
  cpus = cpus_in;
  levels = levels_in;
  sn = new_sn;
  sc = new_sc;
  sl = new_sl;
  sll = new_sll;
  sw = new_sw;
  nup.resize(lanes * sn);
  ready_words.resize(lanes * sw);
  ready_node.resize(lanes * sn);
  ev_finish.resize(lanes * sc);
  ev_seq.resize(lanes * sc);
  ev_meta.resize(lanes * sc);
  cpu_level.resize(lanes * sc);
  cpu_sleep.resize(lanes * sc);
  cpu_busy.resize(lanes * sc);
  busy_ps.resize(lanes * sl);
  compute_ps.resize(lanes * sl);
  transitions.resize(lanes * sll);
  touched_levels.resize(lanes * sl);
  level_touched.resize(lanes * sl);
  touched_transitions.resize(lanes * sll);
  active.resize(lanes);
  if (trace) traces.resize(lanes);
  // Rows remapped under the new strides: stale ledger values from a
  // previous geometry must not leak through the touched-entry reset
  // discipline, which only clears what the previous batch in this
  // geometry touched. Resetting the lane scalars zeroes the touched
  // counts to match.
  lane.assign(lanes, LaneScalars{});
  std::fill(busy_ps.begin(), busy_ps.end(), 0);
  std::fill(compute_ps.begin(), compute_ps.end(), 0);
  std::fill(transitions.begin(), transitions.end(), 0);
  std::fill(level_touched.begin(), level_touched.end(), 0);
}

namespace {

using Form = SpeedRule::Form;

inline unsigned __int128 mul128(std::uint64_t a, std::uint64_t b) {
  return static_cast<unsigned __int128>(a) * b;
}

inline std::uint64_t mulhi64(std::uint64_t a, std::uint64_t b) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(a) * b) >> 64);
}

/// Index of the minimum (finish, seq) among `n` outstanding completions.
/// At most one completion per CPU is outstanding, so a linear scan beats
/// heap maintenance; (finish, seq) is unique, so the extraction order is
/// deterministic however swap-removal has permuted the arrays.
inline std::uint32_t completion_min(const std::int64_t* finish,
                                    const std::uint64_t* seq,
                                    std::uint32_t n) {
  std::uint32_t min_i = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (finish[i] < finish[min_i] ||
        (finish[i] == finish[min_i] && seq[i] < seq[min_i]))
      min_i = i;
  }
  return min_i;
}

/// A completion's payload (cpu, node), two u32s in one u64, kept out of
/// the scanned key arrays.
inline std::uint64_t completion_meta(std::uint32_t cpu, std::uint32_t node) {
  return (static_cast<std::uint64_t>(cpu) << 32) | node;
}
inline std::uint32_t completion_cpu(std::uint64_t meta) {
  return static_cast<std::uint32_t>(meta >> 32);
}
inline std::uint32_t completion_node(std::uint64_t meta) {
  return static_cast<std::uint32_t>(meta);
}

template <Form PC, bool kCounters, bool kTrace>
class Kernel {
 public:
  static constexpr bool kDynamic = PC != Form::Static;

  Kernel(const KernelPlan& plan, const ScenarioBatch& scen,
         const BatchSimOptions& opt, SimResult* results, BatchWorkspace& ws)
      : c_(plan), scen_(scen), opt_(opt), results_(results), ws_(ws) {}

  void run(std::size_t nlanes);

 private:
  using LaneScalars = BatchWorkspace::LaneScalars;

  const KernelPlan& c_;
  const ScenarioBatch& scen_;
  const BatchSimOptions& opt_;
  SimResult* results_;
  BatchWorkspace& ws_;

  /// All hot pointers of one lane — slab rows, the lane's scenario rows
  /// and the shared derived tables — materialized once per lane turn so
  /// the event loop runs on register-held pointers instead of re-deriving
  /// base + lane * stride on every access.
  struct LaneView {
    std::uint32_t* nup;
    std::uint64_t* ready_words;
    std::uint32_t* ready_node;
    std::int64_t* ev_finish;
    std::uint64_t* ev_seq;
    std::uint64_t* ev_meta;
    std::uint32_t* cpu_level;
    std::uint8_t* cpu_sleep;
    std::int64_t* cpu_busy;
    std::uint64_t* busy_ps;
    std::uint64_t* compute_ps;
    std::uint64_t* transitions;
    std::uint32_t* touched_levels;
    std::uint8_t* level_touched;
    std::uint32_t* touched_transitions;
    const SimTime* actual;  // this lane's scenario rows
    const int* choice;
    const SimTime* dt_compute;
    const KernelPlan::LevelDiv* level_div;
    std::vector<TaskRecord>* trace;
    SimCounters* cnt;
  };

  LaneView view(std::size_t l) {
    LaneView v;
    v.nup = ws_.nup.data() + l * ws_.sn;
    v.ready_words = ws_.ready_words.data() + l * ws_.sw;
    v.ready_node = ws_.ready_node.data() + l * ws_.sn;
    v.ev_finish = ws_.ev_finish.data() + l * ws_.sc;
    v.ev_seq = ws_.ev_seq.data() + l * ws_.sc;
    v.ev_meta = ws_.ev_meta.data() + l * ws_.sc;
    v.cpu_level = ws_.cpu_level.data() + l * ws_.sc;
    v.cpu_sleep = ws_.cpu_sleep.data() + l * ws_.sc;
    v.cpu_busy = ws_.cpu_busy.data() + l * ws_.sc;
    v.busy_ps = ws_.busy_ps.data() + l * ws_.sl;
    v.compute_ps = ws_.compute_ps.data() + l * ws_.sl;
    v.transitions = ws_.transitions.data() + l * ws_.sll;
    v.touched_levels = ws_.touched_levels.data() + l * ws_.sl;
    v.level_touched = ws_.level_touched.data() + l * ws_.sl;
    v.touched_transitions = ws_.touched_transitions.data() + l * ws_.sll;
    v.actual = scen_.lane_actual(l);
    v.choice = scen_.lane_choice(l);
    v.dt_compute = c_.dt_compute.data();
    v.level_div = c_.level_div.data();
    v.trace = kTrace ? &ws_.traces[l] : nullptr;
    v.cnt = kCounters ? (opt_.lane_cells != nullptr ? opt_.lane_cells + l
                                                    : opt_.shared_cell)
                      : nullptr;
    return v;
  }

  /// The policy's floor, as a level index (every floor frequency is a
  /// table frequency, so the index carries the same information).
  std::uint32_t floor_lvl(const LaneScalars& s, SimTime now) const {
    if constexpr (PC == Form::StaticSpec) {
      (void)s;
      return now.ps < c_.spec_theta_ps ? c_.spec_low_lvl : c_.spec_high_lvl;
    } else if constexpr (PC == Form::Adaptive) {
      (void)now;
      return s.as_floor_lvl;
    } else {
      (void)s;
      (void)now;
      return 0;
    }
  }

  /// AS's OR-node update (AdaptiveSpecPolicy::on_or_fired) over the
  /// plan's remaining-work tables, through the shared speculate_level
  /// rule; the lane keeps the level index instead of its frequency.
  void on_or_fired(LaneScalars& s, std::uint32_t node, int chosen_alt,
                   SimTime now) {
    if constexpr (PC == Form::Adaptive) {
      const SimTime* alt = c_.as_alt[node];
      const SimTime rem = (chosen_alt >= 0 && alt != nullptr)
                              ? alt[static_cast<std::size_t>(chosen_alt)]
                              : c_.as_rem_after[node];
      s.as_floor_lvl = static_cast<std::uint32_t>(
          speculate_level(*c_.table, rem, c_.deadline - now, c_.rounding));
    } else {
      (void)s;
      (void)node;
      (void)chosen_alt;
      (void)now;
    }
  }

  void touch_level(LaneView& v, LaneScalars& s, std::size_t lvl) {
    if (!v.level_touched[lvl]) {
      v.level_touched[lvl] = 1;
      v.touched_levels[s.touched_levels_n++] =
          static_cast<std::uint32_t>(lvl);
    }
  }

  static void ready_set(LaneView& v, LaneScalars& s, std::uint32_t eo,
                        std::uint32_t idv) {
    v.ready_words[eo >> 6] |= std::uint64_t{1} << (eo & 63);
    v.ready_node[eo] = idv;
    ++s.ready_n;
  }

  /// Lowest ready EO; requires ready_n > 0.
  std::uint32_t ready_head(const LaneView& v) const {
    for (std::uint32_t w = 0;; ++w) {
      PASERTA_ASSERT(w < c_.nwords, "ready count out of sync with bitmap");
      const std::uint64_t bits = v.ready_words[w];
      if (bits != 0)
        return (w << 6) +
               static_cast<std::uint32_t>(__builtin_ctzll(bits));
    }
  }

  bool head_dispatchable(const LaneView& v, const LaneScalars& s) const {
    if (s.ready_n == 0) return false;
    const std::uint32_t eo = ready_head(v);
    if (eo == s.neo) return true;
    return eo > s.neo &&
           (c_.flags[v.ready_node[eo]] & kNodeFlagOrNode) != 0;
  }

  void release_successors(LaneView& v, LaneScalars& s, std::uint32_t idv) {
    const std::uint32_t begin = c_.succ_off[idv];
    const std::uint32_t end = c_.succ_off[idv + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t sv = c_.succ_flat[k];
      PASERTA_ASSERT(v.nup[sv] > 0,
                     "NUP underflow at node '" << c_.nodes[sv].name << "'");
      if (v.nup[sv] == c_.nup_init[sv]) ++s.activated;
      if (--v.nup[sv] == 0) {
        ++s.completed;
        ready_set(v, s, c_.eo[sv], sv);
      }
    }
  }

  void wake_one(LaneView& v, LaneScalars& s, SimTime t) {
    if (!head_dispatchable(v, s)) return;
    for (std::uint32_t cpu = 0; cpu < c_.ncpus; ++cpu) {
      if (v.cpu_sleep[cpu]) {
        v.cpu_sleep[cpu] = 0;
        dispatch(v, s, cpu, t);
        return;
      }
    }
  }

  void dispatch(LaneView& v, LaneScalars& s, std::uint32_t cpu_id,
                SimTime t);
  void on_completion(LaneView& v, LaneScalars& s, std::uint32_t cpu_id,
                     std::uint32_t node, SimTime t) {
    s.last_activity = std::max(s.last_activity, t.ps);
    release_successors(v, s, node);
    dispatch(v, s, cpu_id, t);
  }

  /// Extracts and processes the lane's next completion. Returns false when
  /// the lane has no outstanding completions left afterwards.
  bool step(LaneView& v, LaneScalars& s) {
    const std::uint32_t n = s.ev_n;
    const std::uint32_t mi = completion_min(v.ev_finish,
                                                         v.ev_seq, n);
    const SimTime finish{v.ev_finish[mi]};
    const std::uint64_t m = v.ev_meta[mi];
    v.ev_finish[mi] = v.ev_finish[n - 1];
    v.ev_seq[mi] = v.ev_seq[n - 1];
    v.ev_meta[mi] = v.ev_meta[n - 1];
    s.ev_n = n - 1;
    on_completion(v, s, completion_cpu(m),
                  completion_node(m), finish);
    return s.ev_n != 0;
  }

  void finalize(LaneView& v, std::size_t l);
};

template <Form PC, bool kCounters, bool kTrace>
void Kernel<PC, kCounters, kTrace>::dispatch(LaneView& v, LaneScalars& s,
                                             std::uint32_t cpu_id,
                                             SimTime t) {
  for (;;) {
    if (s.ready_n == 0) {
      v.cpu_sleep[cpu_id] = 1;  // Figure 2 step 3: wait()
      return;
    }
    const std::uint32_t eo = ready_head(v);
    const std::uint32_t idv = v.ready_node[eo];
    const std::uint8_t flags = c_.flags[idv];
    if (eo != s.neo &&
        !(eo > s.neo && (flags & kNodeFlagOrNode) != 0)) {
      v.cpu_sleep[cpu_id] = 1;  // head not dispatchable yet: wait()
      return;
    }
    v.ready_words[eo >> 6] &= ~(std::uint64_t{1} << (eo & 63));
    --s.ready_n;
    PASERTA_ASSERT(eo >= s.neo, "execution order went backwards");
    s.neo = eo + 1;  // Figure 2 steps 4 & 7
    ++s.dispatched;
    if constexpr (kCounters) ++v.cnt->dispatches;
    // (No finish-clock update here: t is already folded into
    // last_activity — see the header comment.)

    if (flags & kNodeFlagDummy) {
      int chosen_alt = -1;
      if (flags & kNodeFlagOrFork) {
        const int chosen = v.choice[idv];
        PASERTA_ASSERT(
            chosen >= 0 && c_.succ_off[idv] + static_cast<std::uint32_t>(
                               chosen) < c_.succ_off[idv + 1],
            "scenario lacks a choice for fork '" << c_.nodes[idv].name
                                                 << "'");
        chosen_alt = chosen;
        if constexpr (kCounters) ++v.cnt->or_fires;
        const std::uint32_t child =
            c_.succ_flat[c_.succ_off[idv] +
                         static_cast<std::uint32_t>(chosen)];
        PASERTA_ASSERT(v.nup[child] > 0,
                       "OR fork '" << c_.nodes[idv].name
                                   << "' re-readied its alternative");
        if (v.nup[child] == c_.nup_init[child]) ++s.activated;
        ++s.completed;
        v.nup[child] = 0;
        ready_set(v, s, c_.eo[child], child);
        if constexpr (kDynamic) on_or_fired(s, idv, chosen, t);
      } else {
        release_successors(v, s, idv);
        if constexpr (kDynamic) {
          if (flags & kNodeFlagOrNode) on_or_fired(s, idv, -1, t);
        }
      }
      if constexpr (kTrace) {
        TaskRecord rec;
        rec.node = NodeId{idv};
        rec.cpu = static_cast<int>(cpu_id);
        rec.eo = eo;
        rec.dispatch_time = rec.exec_start = rec.finish = t;
        rec.level = rec.level_before = v.cpu_level[cpu_id];
        rec.chosen_alt = chosen_alt;
        v.trace->push_back(rec);
      }
      continue;  // same processor keeps dispatching at the same instant
    }

    // ---- Computation node: pick a speed and execute (Figure 2 step 5). --
    SimTime start = t;
    const std::size_t lvl_before = v.cpu_level[cpu_id];
    std::size_t lvl = lvl_before;
    bool switched = false;

    if constexpr (kDynamic) {
      const SimTime dt_compute = v.dt_compute[lvl];
      touch_level(v, s, lvl);
      v.compute_ps[lvl] += static_cast<std::uint64_t>(dt_compute.ps);
      v.cpu_busy[cpu_id] += dt_compute.ps;
      start += dt_compute;

      const SimTime avail = c_.eet[idv] - start - c_.switch_time;
      const std::uint32_t flvl = floor_lvl(s, start);
      std::size_t new_lvl;
      bool spec = false;
      if (avail <= SimTime::zero()) {
        // No slack: required_freq is f_max, and no floor exceeds f_max, so
        // quantize_up(max(f_max, floor)) is the top level, a greedy pick.
        new_lvl = c_.top_lvl;
      } else {
        // Division-free speed choice. With a = avail, x = f_max * wcet:
        //   freq >= ceil(x / a)  <=>  freq * a >= x,
        // so walking up from the floor's level to the first level whose
        // freq * a >= x lands exactly on quantize_up(max(gss, floor)) —
        // the walk never stops below the floor, stops at the first level
        // at least as fast as the greedy requirement, and tops out when
        // even f_max is too slow (required_freq's clamp). Both sides are
        // 64x64-bit products, exact in 128 bits.
        const auto a = static_cast<std::uint64_t>(avail.ps);
        const unsigned __int128 x =
            mul128(static_cast<std::uint64_t>(c_.wcet[idv].ps), c_.f_max);
        std::uint32_t walk = flvl;
        while (walk < c_.top_lvl && mul128(c_.levels[walk].freq, a) < x)
          ++walk;
        new_lvl = walk;
        if constexpr (kCounters && PC != Form::Greedy) {
          // floor > gss  <=>  ceil(x / a) < floor_freq  <=>
          // x <= a * (floor_freq - 1); the f_max clamp needs no special
          // case since floor_freq - 1 <= f_max - 1.
          spec = x <= mul128(a, c_.levels[flvl].freq - 1);
        }
      }
      if constexpr (kCounters) {
        if (PC != Form::Greedy && spec) ++v.cnt->spec_picks;
        else ++v.cnt->greedy_picks;
      }

      if (new_lvl != lvl) {
        const std::size_t idx = lvl * c_.power.size() + new_lvl;
        if (v.transitions[idx]++ == 0)
          v.touched_transitions[s.touched_trans_n++] =
              static_cast<std::uint32_t>(idx);
        v.cpu_busy[cpu_id] += c_.switch_time.ps;
        start += c_.switch_time;
        ++s.speed_changes;
        if constexpr (kCounters) ++v.cnt->speed_changes;
        switched = true;
        lvl = new_lvl;
        v.cpu_level[cpu_id] = static_cast<std::uint32_t>(lvl);
      }
    }

    const SimTime actual = v.actual[idv];
    PASERTA_ASSERT(actual > SimTime::zero() && actual <= c_.wcet[idv],
                   "scenario actual time out of (0, WCET] for '"
                       << c_.nodes[idv].name << "'");
    const Freq freq = c_.levels[lvl].freq;
    SimTime duration;
    if (freq == c_.f_max) {
      duration = actual;
    } else if (static_cast<std::uint64_t>(actual.ps) <= c_.actual_limit) {
      // ceil(actual * f_max / freq) by reciprocal: q0 = floor(n * m / 2^64)
      // with m = floor(2^64 / freq) undershoots floor(n / freq) by at most
      // 2, and the remainder loop lands on the exact quotient — the same
      // value scale_time's division produces, for every in-range input.
      const KernelPlan::LevelDiv& d = v.level_div[lvl];
      const std::uint64_t num =
          static_cast<std::uint64_t>(actual.ps) * c_.f_max + d.den1;
      std::uint64_t q = mulhi64(num, d.magic);
      std::uint64_t r = num - q * d.freq;
      while (r >= d.freq) {
        r -= d.freq;
        ++q;
      }
      duration = SimTime{static_cast<std::int64_t>(q)};
    } else {
      duration = scale_time(actual, c_.f_max, freq);
    }
    const SimTime finish = start + duration;
    touch_level(v, s, lvl);
    v.busy_ps[lvl] += static_cast<std::uint64_t>(duration.ps);
    v.cpu_busy[cpu_id] += duration.ps;
    if constexpr (kCounters) {
      ++v.cnt->tasks;
      v.cnt->reclaimed_slack_ps +=
          static_cast<std::uint64_t>((duration - actual).ps);
    }

    if constexpr (kTrace) {
      TaskRecord rec;
      rec.node = NodeId{idv};
      rec.cpu = static_cast<int>(cpu_id);
      rec.eo = eo;
      rec.dispatch_time = t;
      rec.exec_start = start;
      rec.finish = finish;
      rec.level = lvl;
      rec.level_before = lvl_before;
      rec.switched = switched;
      v.trace->push_back(rec);
    }
    {
      const std::uint32_t k = s.ev_n++;
      v.ev_finish[k] = finish.ps;
      v.ev_seq[k] = s.seq++;
      v.ev_meta[k] = completion_meta(cpu_id, idv);
    }

    // Figure 2 step 5: if another processor sleeps and the (new) head is
    // dispatchable, signal it before executing.
    wake_one(v, s, t);
    return;
  }
}

template <Form PC, bool kCounters, bool kTrace>
void Kernel<PC, kCounters, kTrace>::finalize(LaneView& v, std::size_t l) {
  LaneScalars& s = ws_.lane[l];
  PASERTA_ASSERT(s.ready_n == 0, "simulation ended with ready work");
  PASERTA_ASSERT(s.activated == s.completed,
                 "simulation ended with "
                     << s.activated - s.completed
                     << " partially released nodes (deadlock?)");

  SimResult r;
  r.finish_time = SimTime{s.last_activity};
  r.deadline_met = r.finish_time <= c_.deadline;
  r.speed_changes = s.speed_changes;
  r.dispatched = s.dispatched;

  std::uint64_t idle_ps = 0;
  for (std::uint32_t cpu = 0; cpu < c_.ncpus; ++cpu) {
    const std::int64_t idle = c_.deadline.ps - v.cpu_busy[cpu];
    if (idle > 0) idle_ps += static_cast<std::uint64_t>(idle);
  }

  std::uint32_t* tl = v.touched_levels;
  std::uint32_t* tt = v.touched_transitions;
  const std::uint32_t ntl = s.touched_levels_n;
  const std::uint32_t ntt = s.touched_trans_n;
  if (ntl > 1) std::sort(tl, tl + ntl);
  if (ntt > 1) std::sort(tt, tt + ntt);
  {
    // The canonical ledger fold (see sim/engine.cpp): busy and compute
    // terms per touched level ascending into two accumulators, non-zero
    // transition pairs ascending, then idle — bitwise attribution_energy()
    // over this lane's exported ledger.
    const std::span<const Energy> power = c_.power;
    const double switch_sec = c_.switch_time.sec();
    double busy = 0.0;
    double overhead = 0.0;
    for (std::uint32_t i = 0; i < ntl; ++i) {
      const std::uint32_t lv = tl[i];
      if (v.busy_ps[lv] != 0)
        busy += power[lv] *
                SimTime{static_cast<std::int64_t>(v.busy_ps[lv])}.sec();
      if (v.compute_ps[lv] != 0)
        overhead +=
            power[lv] *
            SimTime{static_cast<std::int64_t>(v.compute_ps[lv])}.sec();
    }
    for (std::uint32_t i = 0; i < ntt; ++i) {
      const std::uint32_t idx = tt[i];
      const std::size_t from = idx / power.size();
      const std::size_t to = idx % power.size();
      overhead += static_cast<double>(v.transitions[idx]) *
                  std::max(power[from], power[to]) * switch_sec;
    }
    r.busy_energy = busy;
    r.overhead_energy = overhead;
    r.idle_energy =
        idle_ps != 0
            ? c_.pm->idle_energy(SimTime{static_cast<std::int64_t>(idle_ps)})
            : 0.0;
  }

  if (opt_.audit) {
    // Integer time conservation: every energy-bearing picosecond the
    // ledger attributes must come from a processor's busy time — exactly.
    std::uint64_t ledger_ps = 0;
    for (std::size_t lv = 0; lv < c_.power.size(); ++lv)
      ledger_ps += v.busy_ps[lv] + v.compute_ps[lv];
    std::uint64_t switches = 0;
    const std::size_t nsq = c_.power.size() * c_.power.size();
    for (std::size_t idx = 0; idx < nsq; ++idx)
      switches += v.transitions[idx];
    ledger_ps +=
        switches * static_cast<std::uint64_t>(c_.switch_time.ps);
    std::uint64_t cpu_busy_ps = 0;
    for (std::uint32_t cpu = 0; cpu < c_.ncpus; ++cpu)
      cpu_busy_ps += static_cast<std::uint64_t>(v.cpu_busy[cpu]);
    PASERTA_ASSERT(ledger_ps == cpu_busy_ps,
                   "attribution ledger accounts for "
                       << ledger_ps << " ps of busy time but processors "
                       << "recorded " << cpu_busy_ps << " ps");
  }

  if constexpr (kCounters) {
    SimCounters* const cnt = v.cnt;
    const std::size_t nlv = c_.power.size();
    if (cnt->levels == 0) {
      cnt->levels = static_cast<std::uint32_t>(nlv);
      cnt->busy_ps.assign(v.busy_ps, v.busy_ps + nlv);
      cnt->compute_ps.assign(v.compute_ps, v.compute_ps + nlv);
      cnt->transitions.assign(v.transitions, v.transitions + nlv * nlv);
    } else {
      PASERTA_ASSERT(cnt->levels == nlv,
                     "SimCounters cell reused across power tables");
      for (std::uint32_t i = 0; i < ntl; ++i) {
        const std::uint32_t lv = tl[i];
        cnt->busy_ps[lv] += v.busy_ps[lv];
        cnt->compute_ps[lv] += v.compute_ps[lv];
      }
      for (std::uint32_t i = 0; i < ntt; ++i)
        cnt->transitions[tt[i]] += v.transitions[tt[i]];
    }
    cnt->idle_ps += idle_ps;
  }

  if constexpr (kTrace) {
    r.trace = std::move(*v.trace);
    v.trace->clear();
  }
  results_[l] = std::move(r);
}

template <Form PC, bool kCounters, bool kTrace>
void Kernel<PC, kCounters, kTrace>::run(std::size_t nlanes) {
  // Event loop over the compacted active-lane list. Each lane turn drains
  // up to kTurnBudget completion events with the lane's row pointers held
  // in registers; lanes whose event queue empties (divergence: fewer
  // computation nodes on the taken path, earlier finish) are finalized and
  // swap-removed. Lanes are mutually independent, so neither the budget
  // nor the compaction order can affect any result. A budget of 1 is the
  // classic event-granular lockstep — measured 25-40% slower here because
  // every turn reloads the lane's working set (nup/ready/ledger rows) from
  // L2 after its neighbours evicted it; a budget past the largest per-run
  // event count makes turns lane-major, which keeps each lane's rows
  // L1-hot from first dispatch to finalize while the shared tables stay
  // hot across lanes. (The other extreme — stepping two independent lanes
  // alternately to overlap their serial completion->dispatch dependency
  // chains — also measured 10-30% slower: the doubled live state spills
  // and defeats step() inlining.)
  constexpr std::uint32_t kTurnBudget = 4096;
  std::uint32_t nactive = 0;
  for (std::size_t l = 0; l < nlanes; ++l) {
    LaneView v = view(l);
    LaneScalars& s = ws_.lane[l];
    // Initial dispatch round: every processor starts at t = 0. dispatch()
    // may have woken a CPU transitively already; the flag check keeps each
    // CPU's first dispatch single.
    for (std::uint32_t cpu = 0; cpu < c_.ncpus; ++cpu) {
      if (!v.cpu_sleep[cpu]) dispatch(v, s, cpu, SimTime::zero());
    }
    if (s.ev_n != 0)
      ws_.active[nactive++] = static_cast<std::uint32_t>(l);
    else
      finalize(v, l);
  }
  while (nactive != 0) {
    for (std::uint32_t i = 0; i < nactive;) {
      const std::uint32_t l = ws_.active[i];
      LaneView v = view(l);
      LaneScalars& s = ws_.lane[l];
      bool alive = true;
      for (std::uint32_t b = 0; alive && b < kTurnBudget; ++b)
        alive = step(v, s);
      if (alive) {
        ++i;
      } else {
        finalize(v, l);
        ws_.active[i] = ws_.active[--nactive];
      }
    }
  }
}

template <Form PC>
void run_class(const KernelPlan& plan, const ScenarioBatch& batch,
               std::size_t lanes, const BatchSimOptions& opt,
               SimResult* results, BatchWorkspace& ws, bool counters,
               bool trace) {
  if (counters && trace)
    Kernel<PC, true, true>(plan, batch, opt, results, ws).run(lanes);
  else if (counters)
    Kernel<PC, true, false>(plan, batch, opt, results, ws).run(lanes);
  else if (trace)
    Kernel<PC, false, true>(plan, batch, opt, results, ws).run(lanes);
  else
    Kernel<PC, false, false>(plan, batch, opt, results, ws).run(lanes);
}

}  // namespace

void KernelPlan::assign(const Application& app, const OfflineResult& off,
                        const PowerModel& pm_in, const Overheads& overheads,
                        const SpeedPolicy& policy) {
  const std::size_t n = app.graph.size();
  PASERTA_REQUIRE(off.eo_table().size() == n && off.eet_table().size() == n &&
                      off.nup_init_table().size() == n &&
                      off.node_flag_table().size() == n &&
                      off.wcet_table().size() == n &&
                      off.succ_offset_table().size() == n + 1,
                  "offline result does not match the application graph");
  // The ready bitmap indexes by execution order, so every EO must fall in
  // [0, n). The offline pass assigns EO as a schedule position (OR
  // alternatives share a range), so this holds for every valid result;
  // max_eo() is one past the largest EO it assigned.
  PASERTA_REQUIRE(off.max_eo() <= n, "execution order out of range: "
                                         << off.max_eo() << " for " << n
                                         << " nodes");
  nodes = app.graph.nodes();
  eo = off.eo_table();
  eet = off.eet_table();
  nup_init = off.nup_init_table();
  flags = off.node_flag_table();
  wcet = off.wcet_table();
  succ_off = off.succ_offset_table();
  succ_flat = off.succ_list_table();
  sources = off.source_table();
  pm = &pm_in;
  table = &pm_in.table();
  levels = table->levels();
  power = pm_in.level_powers();
  f_max = table->f_max();
  deadline = off.deadline();
  switch_time = overheads.speed_change_time;
  ncpus = static_cast<std::uint32_t>(off.cpus());
  top_lvl = static_cast<std::uint32_t>(table->size() - 1);
  nwords = static_cast<std::uint32_t>((n + 63) / 64);

  // The policy's rule, as level indices. Every lane starts from the same
  // reset state: the rule of a non-adaptive policy is a pure function of
  // (off, pm), and the adaptive floor is per-lane state from here on.
  const SpeedRule rule = policy.rule();
  form = rule.form;
  rounding = rule.rounding;
  const std::size_t initial =
      form == Form::Static ? rule.level : table->size() - 1;
  PASERTA_REQUIRE(initial < table->size(),
                  "policy '" << policy.name() << "' level " << initial
                             << " out of range for table '" << table->name()
                             << "'");
  initial_level = static_cast<std::uint32_t>(initial);
  spec_low_lvl = static_cast<std::uint32_t>(table->quantize_up(rule.f_low));
  spec_high_lvl = static_cast<std::uint32_t>(table->quantize_up(rule.f_high));
  spec_theta_ps = rule.theta.ps;

  // Per-level tables: pure functions of the level frequencies and the
  // compute cycles, so a rebuild over equal values keeps them.
  const std::size_t nlevels = levels.size();
  bool same_levels = level_div.size() == nlevels &&
                     dt_cycles == overheads.speed_compute_cycles;
  for (std::size_t lv = 0; same_levels && lv < nlevels; ++lv)
    same_levels = level_div[lv].freq == levels[lv].freq;
  if (!same_levels) {
    dt_compute.resize(nlevels);
    level_div.resize(nlevels);
    for (std::size_t lv = 0; lv < nlevels; ++lv) {
      const Freq f = levels[lv].freq;
      dt_compute[lv] = cycles_to_time(overheads.speed_compute_cycles, f);
      level_div[lv].freq = f;
      level_div[lv].den1 = f - 1;
      level_div[lv].magic = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(1) << 64) / f);
    }
    dt_cycles = overheads.speed_compute_cycles;
  }
  actual_limit = (~std::uint64_t{0} - (f_max - 1)) / f_max;

  // Initial ready-set template: the source bits, copied verbatim into each
  // lane together with their EO -> node entries.
  ready_init_words.assign(nwords, 0);
  for (const std::uint32_t v : sources)
    ready_init_words[eo[v] >> 6] |= std::uint64_t{1} << (eo[v] & 63);
  as_rem_after.clear();
  as_alt.clear();
  if (form == Form::Adaptive) {
    // Per-node expected-remaining-work tables: hoists rem_a_after()'s and
    // the fork-profile hash lookups out of the event path.
    as_rem_after.assign(n, SimTime::zero());
    as_alt.assign(n, nullptr);
    for (std::uint32_t v = 0; v < n; ++v) {
      if ((flags[v] & (kNodeFlagOrNode | kNodeFlagOrFork)) == 0) continue;
      const NodeId id{v};
      as_rem_after[v] = off.rem_a_after(id);
      if (off.has_fork_profile(id))
        as_alt[v] = off.fork_profile(id).rem_a_alt.data();
    }
  }
}

bool KernelPlan::same_rule(const KernelPlan& o) const {
  if (form != o.form || initial_level != o.initial_level) return false;
  switch (form) {
    case Form::Static:
    case Form::Greedy:
      return true;
    case Form::StaticSpec:
      return spec_low_lvl == o.spec_low_lvl &&
             spec_high_lvl == o.spec_high_lvl &&
             (spec_low_lvl == spec_high_lvl ||
              spec_theta_ps == o.spec_theta_ps);
    case Form::Adaptive:
      return spec_high_lvl == o.spec_high_lvl && rounding == o.rounding;
  }
  return false;
}

void simulate_batch(const KernelPlan& plan, const ScenarioBatch& batch,
                    std::size_t lanes, BatchWorkspace& ws, SimResult* results,
                    const BatchSimOptions& options) {
  const std::size_t n = plan.nodes.size();
  PASERTA_REQUIRE(lanes >= 1, "need at least one lane");
  PASERTA_REQUIRE(results != nullptr, "need a per-lane result array");
  PASERTA_REQUIRE(batch.nodes() == n,
                  "scenario batch does not match the application graph");
  PASERTA_REQUIRE(options.lane_cells == nullptr ||
                      options.shared_cell == nullptr,
                  "pass per-lane cells or a shared cell, not both");

  // Everything up to the run_class dispatch is per-batch setup (the
  // per-lane slab reset); the dispatch loop itself is the drain. Both
  // phases are profiler-charged when the caller wired one up (harness
  // batch.setup / batch.drain).
  const bool trace = options.record_trace;
  {
  ProfScope setup_scope(options.prof, options.ph_setup, options.slot);
  ws.ensure(lanes, n, plan.ncpus, plan.levels.size(), trace);

  // Per-lane reset (the per-run reset, amortized: the ready set's initial
  // content and the initial level are plan constants, copied per lane).
  for (std::size_t l = 0; l < lanes; ++l) {
    BatchWorkspace::LaneScalars& s = ws.lane[l];
    // Ledger reset through the previous batch's touched lists (full zero
    // happened in ensure() when the geometry was first set up).
    {
      std::uint64_t* busy_row = ws.busy_ps.data() + l * ws.sl;
      std::uint64_t* compute_row = ws.compute_ps.data() + l * ws.sl;
      std::uint8_t* flag_row = ws.level_touched.data() + l * ws.sl;
      const std::uint32_t* tl = ws.touched_levels.data() + l * ws.sl;
      for (std::uint32_t i = 0; i < s.touched_levels_n; ++i) {
        busy_row[tl[i]] = 0;
        compute_row[tl[i]] = 0;
        flag_row[tl[i]] = 0;
      }
      std::uint64_t* trans_row = ws.transitions.data() + l * ws.sll;
      const std::uint32_t* tt = ws.touched_transitions.data() + l * ws.sll;
      for (std::uint32_t i = 0; i < s.touched_trans_n; ++i)
        trans_row[tt[i]] = 0;
    }
    s = BatchWorkspace::LaneScalars{};
    s.ready_n = static_cast<std::uint32_t>(plan.sources.size());
    if (plan.form == Form::Adaptive) s.as_floor_lvl = plan.spec_high_lvl;
    std::memcpy(ws.nup.data() + l * ws.sn, plan.nup_init.data(),
                n * sizeof(std::uint32_t));
    std::memcpy(ws.ready_words.data() + l * ws.sw,
                plan.ready_init_words.data(),
                plan.nwords * sizeof(std::uint64_t));
    std::uint32_t* node_row = ws.ready_node.data() + l * ws.sn;
    for (const std::uint32_t v : plan.sources) node_row[plan.eo[v]] = v;
    std::uint32_t* lvlrow = ws.cpu_level.data() + l * ws.sc;
    std::uint8_t* sleeprow = ws.cpu_sleep.data() + l * ws.sc;
    std::int64_t* busyrow = ws.cpu_busy.data() + l * ws.sc;
    for (std::uint32_t cpu = 0; cpu < plan.ncpus; ++cpu) {
      lvlrow[cpu] = plan.initial_level;
      sleeprow[cpu] = 0;
      busyrow[cpu] = 0;
    }
    if (trace) ws.traces[l].clear();
  }
  }  // end of batch.setup

  const bool counters =
      options.lane_cells != nullptr || options.shared_cell != nullptr;
  ProfScope drain_scope(options.prof, options.ph_drain, options.slot);
  switch (plan.form) {
    case Form::Static:
      run_class<Form::Static>(plan, batch, lanes, options, results, ws,
                              counters, trace);
      break;
    case Form::Greedy:
      run_class<Form::Greedy>(plan, batch, lanes, options, results, ws,
                              counters, trace);
      break;
    case Form::StaticSpec:
      run_class<Form::StaticSpec>(plan, batch, lanes, options, results, ws,
                                  counters, trace);
      break;
    case Form::Adaptive:
      run_class<Form::Adaptive>(plan, batch, lanes, options, results, ws,
                                counters, trace);
      break;
  }
}

void simulate_batch(const Application& app, const OfflineResult& off,
                    const PowerModel& pm, const Overheads& overheads,
                    const SpeedPolicy& policy, const ScenarioBatch& batch,
                    std::size_t lanes, BatchWorkspace& ws, SimResult* results,
                    const BatchSimOptions& options) {
  {
    ProfScope setup_scope(options.prof, options.ph_setup, options.slot);
    ws.scratch_plan.assign(app, off, pm, overheads, policy);
  }
  simulate_batch(ws.scratch_plan, batch, lanes, ws, results, options);
}

void simulate_batch(const Application& app, const OfflineResult& off,
                    const PowerModel& pm, const Overheads& overheads,
                    Scheme scheme, const PolicyOptions& popt,
                    const ScenarioBatch& batch, std::size_t lanes,
                    BatchWorkspace& ws, SimResult* results,
                    const BatchSimOptions& options) {
  const auto policy = make_policy(scheme, popt);
  policy->reset(off, pm);
  simulate_batch(app, off, pm, overheads, *policy, batch, lanes, ws, results,
                 options);
}

}  // namespace paserta
