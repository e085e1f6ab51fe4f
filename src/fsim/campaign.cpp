// Sharded multithreaded campaign engine behind run_campaign().
//
// Structure: the pattern stream arrives packed into 64-wide capture batches
// (a cube set is packed by PackedPatterns' converting constructor, its
// checks noted in the same word-speed pass), and transition grading derives
// each launch batch from them; the fault list is split into contiguous
// shards, one per worker. Each worker owns a private FaultSimulator
// (good-machine cache, event queues, epoch scratch; the netlist-sized
// observe index is built once and shared read-only) and replays the full
// batch stream over its shard, so a fault's detection history is exactly
// what the serial engine would compute — shard membership never changes
// per-fault results, which is what makes the output bit-identical for every
// thread count.
//
// Per-fault state is two bits, detected (the result itself) and dropped,
// plus hit counts (8 B) only under n-detect (drop_limit > 1): with
// drop_limit <= 1 a fault's first nonzero mask already decides its drop.
// The coverage curve comes from per-pattern first-detection counts that
// each shard keeps and the engine sums after the join.
// Faults come from a source read in ascending index order: a materialised
// list, or a replica's list lifted from its core's and decoded one instance
// block at a time, so grading a thousand-core SoC holds only the core's
// list.
//
// Cross-shard dropping: a shared atomic drop bitmap records every fault that
// needs no further simulation (detected drop_limit times, or its owner
// exhausted the pattern stream). It is also the liveness set: each batch, a
// shard walks the clear bits of its own range in ascending order, masking
// the boundary words it shares with its neighbours. Workers settle their
// drops into the campaign-wide remaining count once per batch, consult it
// between batches and stop streaming as soon as it hits zero.
//
// Run control and checkpointing: when a RunControl and/or checkpoint path is
// configured, the batch stream is cut into rounds of
// `checkpoint_every_batches` batches. Rounds are barriers — every shard
// finishes the round (workers keep their FaultSimulator and live count
// across rounds, and a persistent ThreadPool keeps workers warm) before the
// serial orchestrator check()s the RunControl and, at the configured
// cadence, snapshots the shared per-fault state into a CampaignCheckpoint.
// `batches_done` only ever advances at a completed barrier, which is what
// makes a resumed run bit-identical to an uninterrupted one (see
// fsim/checkpoint.hpp for why partial progress past the barrier is safe).
// Workers also poll() the RunControl before each batch and every
// kPollFaults faults inside one, so a deadline or cancel lands mid-batch
// even when the whole pattern set is a single batch; a stop marks the round
// incomplete. Without run control or checkpointing the whole stream is one
// round and the hot loop costs one null-pointer compare per fault.
#include "fsim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/thread_pool.hpp"
#include "fsim/checkpoint.hpp"
#include "fsim/fault_sim.hpp"

namespace aidft {
namespace {

// Faults a worker grades between two RunControl polls inside a batch.
constexpr std::size_t kPollFaults = 256;

// Shared cross-shard drop state: bit f set = fault f needs no further
// simulation. mark() sets the bit and reports whether it was newly set;
// workers count their new marks and settle() them into the remaining count
// once per batch, so the contended counter sees one update per shard-batch
// rather than one per dropped fault. fetch_or keeps the count exact even if
// two workers ever raced on the same fault (single-owner sharding today, but
// the map stays correct under future work-stealing shards).
//
// Deferring the count changes no decision: campaign_done() is read by a
// worker only between batches while its shard still has alive (unmarked)
// faults, which keep remaining_ > 0 either way, and by the orchestrator only
// after the round barrier, when every shard has settled.
class DropMap {
 public:
  explicit DropMap(std::size_t n) : words_((n + 63) / 64), remaining_(n) {}

  bool mark(std::size_t i) {
    const std::uint64_t bit = 1ull << (i & 63);
    const std::uint64_t prev =
        words_[i >> 6].fetch_or(bit, std::memory_order_relaxed);
    return (prev & bit) == 0;
  }

  void settle(std::size_t newly_marked) {
    if (newly_marked != 0) {
      remaining_.fetch_sub(newly_marked, std::memory_order_relaxed);
    }
  }

  /// Calls visit(i) for every fault i of [begin, end) not yet dropped, in
  /// ascending order, until it returns false. Each word is read once, so
  /// visit may mark the fault it is given.
  template <typename Visit>
  void walk_live(std::size_t begin, std::size_t end, Visit&& visit) const {
    for_each_word(begin, end, [&](std::size_t w, std::uint64_t range) {
      std::uint64_t live = ~words_[w].load(std::memory_order_relaxed) & range;
      while (live != 0) {
        const std::size_t i =
            (w << 6) | static_cast<std::size_t>(__builtin_ctzll(live));
        live &= live - 1;
        if (!visit(i)) return false;
      }
      return true;
    });
  }

  std::size_t count_live(std::size_t begin, std::size_t end) const {
    std::size_t live = 0;
    for_each_word(begin, end, [&](std::size_t w, std::uint64_t range) {
      live += static_cast<std::size_t>(__builtin_popcountll(
          ~words_[w].load(std::memory_order_relaxed) & range));
      return true;
    });
    return live;
  }

  /// Marks every fault of [begin, end); returns how many were newly marked.
  std::size_t mark_range(std::size_t begin, std::size_t end) {
    std::size_t newly_marked = 0;
    for_each_word(begin, end, [&](std::size_t w, std::uint64_t range) {
      const std::uint64_t prev =
          words_[w].fetch_or(range, std::memory_order_relaxed);
      newly_marked +=
          static_cast<std::size_t>(__builtin_popcountll(range & ~prev));
      return true;
    });
    return newly_marked;
  }

  std::size_t bytes() const { return words_.size() * sizeof(std::uint64_t); }

  bool campaign_done() const {
    return remaining_.load(std::memory_order_relaxed) == 0;
  }

  /// Restores a bitmap snapshot (checkpoint resume; call before workers run).
  void restore(const std::vector<std::uint64_t>& words) {
    std::size_t dropped_count = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words_[w].store(words[w], std::memory_order_relaxed);
      dropped_count += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    }
    remaining_.fetch_sub(dropped_count, std::memory_order_relaxed);
  }

  /// Plain copy of the bitmap (checkpoint save; call only at a barrier).
  std::vector<std::uint64_t> snapshot() const {
    std::vector<std::uint64_t> words(words_.size());
    for (std::size_t w = 0; w < words_.size(); ++w) {
      words[w] = words_[w].load(std::memory_order_relaxed);
    }
    return words;
  }

 private:
  // Calls f(w, range) for each word w overlapping [begin, end), `range`
  // holding the word's bits inside it: shards share their boundary words.
  // Stops when f returns false.
  template <typename F>
  static void for_each_word(std::size_t begin, std::size_t end, F&& f) {
    if (begin >= end) return;
    const std::size_t first = begin >> 6;
    const std::size_t last = (end - 1) >> 6;
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t range = ~0ull;
      if (w == first) range &= ~0ull << (begin & 63);
      if (w == last) range &= ~0ull >> (63 - ((end - 1) & 63));
      if (!f(w, range)) return;
    }
  }

  std::vector<std::atomic<std::uint64_t>> words_;
  std::atomic<std::size_t> remaining_;
};

// Fault sources: run_sharded reads fault i through a cursor that one walk
// of a shard advances in ascending index order. A list source indexes a
// materialised list.
template <typename FaultT>
struct ListSource {
  std::span<const FaultT> faults;

  std::size_t size() const { return faults.size(); }

  struct Cursor {
    const FaultT* faults;
    const FaultT& operator()(std::size_t i) const { return faults[i]; }
  };
  Cursor cursor(std::size_t) const { return {faults.data()}; }
};

// A lifted source decodes a replica's faults from its core's list: one
// division where a walk starts, then a block step whenever the index
// leaves the current instance, never a division per fault.
struct LiftedSource {
  LiftedFaults view;

  std::size_t size() const { return view.size(); }

  class Cursor {
   public:
    Cursor(const LiftedFaults& view, std::size_t first)
        : core_(view.core.data()),
          stride_(view.core.size()),
          core_gates_(static_cast<GateId>(view.core_gates)) {
      const std::size_t instance = first / stride_;
      block_ = instance * stride_;
      base_ = static_cast<GateId>(instance * view.core_gates);
    }

    Fault operator()(std::size_t i) {
      while (i - block_ >= stride_) {
        block_ += stride_;
        base_ += core_gates_;
      }
      Fault f = core_[i - block_];
      f.gate += base_;
      return f;
    }

   private:
    const Fault* core_;
    std::size_t stride_;
    GateId core_gates_;
    std::size_t block_ = 0;  // index of the current instance's first fault
    GateId base_ = 0;        // gate offset of the current instance
  };
  Cursor cursor(std::size_t first) const { return {view, first}; }
};

// Sets fault i's detected bit and reports whether this is its first
// detection. Only the fault's owner shard sets its bit, but shards share
// boundary words, so the set is an atomic fetch_or — issued only after a
// plain load shows the bit clear, so a repeat detection (drop_limit 0,
// n-detect) costs one load. Reads outside the workers happen after a join.
bool mark_detected(std::vector<std::uint64_t>& bits, std::size_t i) {
  std::atomic_ref<std::uint64_t> word(bits[i >> 6]);
  const std::uint64_t bit = 1ull << (i & 63);
  if (word.load(std::memory_order_relaxed) & bit) return false;
  word.fetch_or(bit, std::memory_order_relaxed);
  return true;
}

// Fills `detected` / `detected_after` from the summed per-pattern first
// detection counts. The sum is serial and each count depends only on
// per-fault first detections, so it is deterministic regardless of worker
// interleaving.
void finalize_result(CampaignResult& r,
                     const std::vector<std::uint64_t>& first_detections) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < first_detections.size(); ++i) {
    run += first_detections[i];
    r.detected_after[i] = run;
  }
  r.detected = run;
}

// Per-shard state that survives round barriers: the contiguous fault range,
// how many of its faults are still live (not in the drop map), the faults
// it first detected per pattern, and the worker's private simulator
// (constructed lazily on the worker's first round so its caches live near
// that worker).
struct ShardState {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t live = 0;
  std::vector<std::uint64_t> first_detections;  // per pattern
  std::optional<FaultSimulator> fsim;
  std::vector<OpDiff> op_diffs;  // filled by detailed grading only
  std::uint64_t op_diffs_handed = 0;  // pairs passed to the hook, unflushed
  std::uint64_t events_flushed = 0;
  std::uint64_t early_exits_flushed = 0;
  std::uint64_t root_propagations_flushed = 0;
  std::uint64_t local_walks_flushed = 0;
};

// The sharded engine, shared by both fault models and every fault source.
// `grade` maps (FaultSimulator&, op_diffs, fault, capture_batch) to a
// detect mask; `needs_launch` says whether a fault requires the launch batch
// (transition faults) and `any_launch` whether any fault of the list does;
// `on_detect`, when set, runs on every nonzero mask. The reference engine
// builds its own good machine per fault, so under it no batch is loaded.
template <typename Source, typename Grade, typename NeedsLaunch>
CampaignResult run_sharded(const Netlist& nl, const Source& faults,
                           const PackedPatterns& patterns,
                           const CampaignOptions& options, Grade&& grade,
                           NeedsLaunch&& needs_launch, bool any_launch,
                           const DetailedDetectHook* on_detect = nullptr) {
  CampaignResult r;
  r.total_faults = faults.size();
  r.detected_bits.assign((faults.size() + 63) / 64, 0);
  r.detected_after.assign(patterns.count, 0);
  if (patterns.count == 0 || faults.size() == 0) return r;

  AIDFT_REQUIRE_CTX(patterns.width == nl.num_combinational_inputs(),
                    "run_campaign", "pattern width mismatch");
  AIDFT_REQUIRE_CTX(!patterns.has_x, "run_campaign",
                    "campaign patterns must be fully specified");
  const std::vector<PatternBatch>& capture = patterns.batches;
  std::vector<PatternBatch> launch;
  if (any_launch) {
    launch.reserve(capture.size());
    for (std::size_t b = 0; b < capture.size(); ++b) {
      launch.push_back(launch_batch(patterns, b));
    }
  }

  RunControl* rc = options.run_control;
  const bool orchestrated = rc != nullptr || !options.checkpoint_path.empty() ||
                            !options.resume_from.empty();
  const std::size_t total_batches = capture.size();
  const std::size_t round_batches =
      orchestrated ? std::max<std::size_t>(1, options.checkpoint_every_batches)
                   : total_batches;

  // Shared per-fault state; each fault's bits and hit count are written by
  // exactly one shard, and the round barrier (ThreadPool join) orders worker
  // writes before the orchestrator's checkpoint reads. Hit counts exist
  // only under n-detect. `resumed` holds the first detections per pattern
  // a checkpoint carried in; the shards count theirs on top.
  const std::size_t drop_limit = options.drop_limit;
  const bool n_detect = drop_limit > 1;
  std::vector<std::uint64_t> hits(n_detect ? faults.size() : 0, 0);
  DropMap drops(faults.size());
  std::vector<std::uint64_t> resumed(patterns.count, 0);
  std::size_t batches_done = 0;
  if (!options.resume_from.empty()) {
    CampaignCheckpoint ckpt =
        load_campaign_checkpoint(options.resume_from);
    AIDFT_REQUIRE_CTX(ckpt.total_faults == faults.size(), "run_campaign",
                      "resume checkpoint fault count (" +
                          std::to_string(ckpt.total_faults) +
                          ") does not match the live fault list (" +
                          std::to_string(faults.size()) + ")");
    AIDFT_REQUIRE_CTX(ckpt.total_patterns == patterns.count, "run_campaign",
                      "resume checkpoint pattern count (" +
                          std::to_string(ckpt.total_patterns) +
                          ") does not match the live pattern set (" +
                          std::to_string(patterns.count) + ")");
    AIDFT_REQUIRE_CTX(ckpt.drop_limit == options.drop_limit, "run_campaign",
                      "resume checkpoint drop_limit differs from options");
    AIDFT_REQUIRE_CTX(ckpt.batches_done <= total_batches, "run_campaign",
                      "resume checkpoint is ahead of the pattern stream");
    r.detected_bits = std::move(ckpt.detected);
    resumed = std::move(ckpt.first_detections);
    if (n_detect) hits = std::move(ckpt.hits);
    drops.restore(ckpt.dropped);
    batches_done = static_cast<std::size_t>(ckpt.batches_done);
  }

  const std::size_t num_threads =
      std::min(resolve_threads(options.num_threads), faults.size());

  obs::Telemetry* telemetry = options.telemetry;
  obs::Span run_span = obs::span(telemetry, "campaign.run", "campaign");
  if (run_span.active()) {
    run_span.arg("faults", faults.size());
    run_span.arg("patterns", patterns.count);
    run_span.arg("workers", num_threads);
    run_span.arg("state_bytes",
                 r.detected_bits.capacity() * sizeof(std::uint64_t) +
                     hits.capacity() * sizeof(std::uint64_t) + drops.bytes());
  }
  obs::add(telemetry, "campaign.runs");
  obs::add(telemetry, "campaign.faults", faults.size());
  obs::add(telemetry, "campaign.patterns", patterns.count);
  const std::uint64_t checks_before = rc != nullptr ? rc->checks() : 0;

  // Workers set only detected bits and hits[i] for i inside their own
  // shard, and count first detections in their own vector; a fault's first
  // detection is its true first because its single owner scans batches in
  // stream order.
  std::vector<ShardState> shards(num_threads);
  for (std::size_t s = 0; s < num_threads; ++s) {
    shards[s].begin = s * faults.size() / num_threads;
    shards[s].end = (s + 1) * faults.size() / num_threads;
    shards[s].live = drops.count_live(shards[s].begin, shards[s].end);
    shards[s].first_detections.assign(patterns.count, 0);
  }
  // Campaign-wide first detections per pattern (serial; after a join).
  const auto first_detections = [&] {
    std::vector<std::uint64_t> sum = resumed;
    for (const ShardState& shard : shards) {
      for (std::size_t p = 0; p < sum.size(); ++p) {
        sum[p] += shard.first_detections[p];
      }
    }
    return sum;
  };
  const auto observe = std::make_shared<const ObserveIndex>(nl);

  std::optional<ThreadPool> pool;
  if (num_threads > 1) pool.emplace(num_threads);

  std::atomic<bool> round_incomplete{false};
  const auto run_shard = [&](std::size_t s, std::size_t round_begin,
                             std::size_t round_end) {
    ShardState& shard = shards[s];
    obs::Span shard_span = obs::span(telemetry, "campaign.shard", "campaign");
    obs::Stopwatch shard_clock;
    std::size_t batches_run = 0;
    std::size_t dropped_here = 0;
    if (!shard.fsim && shard.live != 0) shard.fsim.emplace(nl, observe);

    for (std::size_t b = round_begin; b < round_end && shard.live != 0; ++b) {
      if (drops.campaign_done()) break;  // cross-shard early exit
      if (rc != nullptr && rc->poll() != StopReason::kNone) {
        round_incomplete.store(true, std::memory_order_relaxed);
        break;
      }
      ++batches_run;
      FaultSimulator& fsim = *shard.fsim;
      if (options.engine != CampaignEngine::kReference) {
        fsim.load_batch(capture[b]);
      }
      if (!launch.empty()) {
        bool shard_needs_launch = false;
        auto fault = faults.cursor(shard.begin);
        drops.walk_live(shard.begin, shard.end, [&](std::size_t i) {
          shard_needs_launch = needs_launch(fault(i));
          return !shard_needs_launch;
        });
        if (shard_needs_launch) fsim.load_launch_batch(launch[b]);
      }

      std::size_t newly_marked = 0;
      std::size_t until_poll = kPollFaults;
      bool stopped = false;
      auto fault = faults.cursor(shard.begin);
      drops.walk_live(shard.begin, shard.end, [&](std::size_t i) {
        if (rc != nullptr && --until_poll == 0) {
          until_poll = kPollFaults;
          stopped = rc->poll() != StopReason::kNone;
          if (stopped) return false;
        }
        const std::uint64_t mask =
            grade(fsim, shard.op_diffs, fault(i), capture[b]);
        if (mask == 0) return true;
        if (mark_detected(r.detected_bits, i)) {
          ++shard.first_detections[b * 64 + static_cast<std::size_t>(
                                                __builtin_ctzll(mask))];
        }
        bool drop = drop_limit == 1;
        if (n_detect) {
          hits[i] += static_cast<std::uint64_t>(__builtin_popcountll(mask));
          drop = hits[i] >= drop_limit;
        }
        shard.op_diffs_handed += shard.op_diffs.size();
        if ((on_detect != nullptr &&
             (*on_detect)(i, b, mask, shard.op_diffs)) ||
            drop) {
          newly_marked += drops.mark(i);
          ++dropped_here;
          --shard.live;
        }
        return true;
      });
      drops.settle(newly_marked);
      if (stopped) {
        round_incomplete.store(true, std::memory_order_relaxed);
        break;
      }
    }
    // Shard exhausted the stream: retire the survivors so campaign_done()
    // converges for the other shards. Never on an early stop — survivors
    // still need the unapplied patterns after a resume.
    if (round_end == total_batches &&
        !round_incomplete.load(std::memory_order_relaxed) && shard.live != 0) {
      drops.settle(drops.mark_range(shard.begin, shard.end));
      shard.live = 0;
    }

    // Telemetry is flushed once per shard-round — the hot loop above only
    // bumps plain locals (and FaultSimulator's event tally).
    if (telemetry != nullptr) {
      const FaultSimulator* fsim = shard.fsim ? &*shard.fsim : nullptr;
      // Adds the simulator tally's growth since the last flush to `name`.
      const auto flush = [&](const char* name, std::uint64_t now,
                             std::uint64_t& flushed) {
        obs::add(telemetry, name, now - flushed);
        flushed = now;
      };
      const std::uint64_t events = fsim ? fsim->events_simulated() : 0;
      shard_span.arg("fsim_events", events - shard.events_flushed);
      flush("fsim.events", events, shard.events_flushed);
      flush("fsim.early_exits", fsim ? fsim->early_exits() : 0,
            shard.early_exits_flushed);
      flush("fsim.root_propagations", fsim ? fsim->root_propagations() : 0,
            shard.root_propagations_flushed);
      flush("fsim.local_walks", fsim ? fsim->local_walks() : 0,
            shard.local_walks_flushed);
      obs::add(telemetry, "campaign.batches", batches_run);
      obs::add(telemetry, "campaign.faults_dropped", dropped_here);
      obs::add(telemetry, "fsim.op_diffs", shard.op_diffs_handed);
      shard.op_diffs_handed = 0;
      obs::observe(telemetry, "campaign.shard_us", shard_clock.micros());
      shard_span.arg("shard", s);
      shard_span.arg("faults", shard.end - shard.begin);
      shard_span.arg("batches", batches_run);
      shard_span.arg("dropped", dropped_here);
    }
  };

  // Writes the resumable state as of `batches_done`.
  auto save_checkpoint = [&] {
    CampaignCheckpoint ckpt;
    ckpt.drop_limit = options.drop_limit;
    ckpt.total_faults = faults.size();
    ckpt.total_patterns = patterns.count;
    ckpt.batches_done = batches_done;
    ckpt.detected = r.detected_bits;
    ckpt.first_detections = first_detections();
    ckpt.hits = hits;  // empty unless n-detect
    ckpt.dropped = drops.snapshot();
    save_campaign_checkpoint(ckpt, options.checkpoint_path);
  };

  while (batches_done < total_batches && !drops.campaign_done()) {
    if (rc != nullptr) {
      const StopReason stop = rc->check();
      if (stop != StopReason::kNone) {
        r.outcome = outcome_from(stop);
        break;
      }
    }
    const std::size_t round_end =
        std::min(batches_done + round_batches, total_batches);
    if (pool) {
      pool->parallel_for(num_threads,
                         [&](std::size_t, std::size_t begin, std::size_t end) {
                           for (std::size_t s = begin; s < end; ++s) {
                             run_shard(s, batches_done, round_end);
                           }
                         });
    } else {
      run_shard(0, batches_done, round_end);
    }
    if (round_incomplete.load(std::memory_order_relaxed)) {
      // A worker observed a stop mid-round; batches_done stays at the last
      // completed barrier so the checkpoint below stays resumable.
      r.outcome = outcome_from(rc->poll());
      break;
    }
    batches_done = round_end;
    if (!options.checkpoint_path.empty() && batches_done < total_batches &&
        !drops.campaign_done()) {
      save_checkpoint();
    }
  }
  if (r.outcome != StageOutcome::kCompleted &&
      !options.checkpoint_path.empty()) {
    // Final checkpoint on an early stop. Partial in-round progress recorded
    // in the detected bits, counts, hits and drops is safe to keep (see
    // checkpoint.hpp).
    save_checkpoint();
  }
  r.batches_graded =
      r.outcome == StageOutcome::kCompleted ? total_batches : batches_done;

  finalize_result(r, first_detections());
  obs::add(telemetry, "campaign.faults_detected", r.detected);
  if (rc != nullptr) {
    obs::add(telemetry, "runctl.checks", rc->checks() - checks_before);
  }
  if (run_span.active()) {
    run_span.arg("detected", r.detected);
    run_span.arg("outcome", to_string(r.outcome));
  }
  return r;
}

// Stuck-at / transition grading of a list or lifted source with an
// optional detection hook; `detailed` (stuck-at, PPSFP) fills the op_diffs
// the hook reads. The checks read the list the source holds — a lifted
// source's core list, once, against the core's gate count.
template <typename Source>
CampaignResult run_faults(const Netlist& netlist, const Source& source,
                          const PackedPatterns& patterns,
                          const CampaignOptions& options, bool detailed,
                          const DetailedDetectHook* on_detect) {
  AIDFT_REQUIRE_CTX(on_detect == nullptr || (options.checkpoint_path.empty() &&
                                             options.resume_from.empty()),
                    "run_campaign",
                    "a detection hook cannot checkpoint or resume: its state "
                    "is not in the checkpoint");
  const bool reference = options.engine == CampaignEngine::kReference;
  AIDFT_REQUIRE_CTX(!(detailed && reference), "run_campaign",
                    "detailed detection hooks need the PPSFP engine");
  constexpr bool lifted = std::is_same_v<Source, LiftedSource>;
  std::span<const Fault> faults;
  std::size_t gates = netlist.num_gates();
  if constexpr (lifted) {
    faults = source.view.core;
    gates = source.view.core_gates;
  } else {
    faults = source.faults;
  }
  const char* fault_of = lifted ? "core fault " : "fault ";
  const char* gates_of =
      lifted ? ", outside the core's " : ", outside the netlist's ";
  // One pass over the faults: sites inside the netlist (a core fault's
  // instance-0 copy), kinds the engine grades, and whether any fault needs
  // launch batches.
  const auto needs_launch = [](const Fault& f) {
    return f.kind == FaultKind::kTransition;
  };
  const Topology& t = netlist.topology();
  bool any_launch = false;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    AIDFT_REQUIRE_CTX(f.gate < gates, "run_campaign",
                      fault_of + std::to_string(i) + " sits on gate " +
                          std::to_string(f.gate) + gates_of +
                          std::to_string(gates) + " gates");
    AIDFT_REQUIRE_CTX(f.is_stem() || f.pin < t.fanin_size(f.gate),
                      "run_campaign",
                      fault_of + std::to_string(i) + " sits on pin " +
                          std::to_string(f.pin) + " of gate " +
                          std::to_string(f.gate) + ", which has " +
                          std::to_string(t.fanin_size(f.gate)) + " fanins");
    AIDFT_REQUIRE_CTX(!(reference || detailed) || f.kind == FaultKind::kStuckAt,
                      "run_campaign",
                      "reference and detailed grading need stuck-at faults");
    any_launch = any_launch || needs_launch(f);
  }
  return run_sharded(
      netlist, source, patterns, options,
      [&](FaultSimulator& fsim, std::vector<OpDiff>& op_diffs,
          const Fault& f, const PatternBatch& batch) {
        if (detailed) return fsim.detect_mask_detailed(f, op_diffs);
        return reference ? fsim.detect_mask_reference(batch, f)
                         : fsim.detect_mask(f);
      },
      needs_launch, any_launch, on_detect);
}

}  // namespace

CampaignResult run_campaign(const Netlist& netlist, std::span<const Fault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options) {
  return run_faults(netlist, ListSource<Fault>{faults}, patterns, options,
                    false, nullptr);
}

CampaignResult run_campaign(const Netlist& netlist, const LiftedFaults& faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options) {
  AIDFT_REQUIRE_CTX(faults.instances >= 1 &&
                        netlist.replicas() == faults.instances,
                    "run_campaign",
                    "a lifted fault list of " +
                        std::to_string(faults.instances) +
                        " instances needs a Netlist::replicate() netlist of "
                        "as many, not " + std::to_string(netlist.replicas()));
  AIDFT_REQUIRE_CTX(faults.core_gates * faults.instances == netlist.num_gates(),
                    "run_campaign",
                    "lifted core_gates (" + std::to_string(faults.core_gates) +
                        ") is not the replica's gates per instance");
  return run_faults(netlist, LiftedSource{faults}, patterns, options, false,
                    nullptr);
}

CampaignResult run_campaign(const Netlist& netlist, std::span<const Fault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options,
                            const DetectHook& on_detect) {
  const DetailedDetectHook mask_only =
      [&](std::size_t fault, std::size_t batch, std::uint64_t mask,
          std::span<const OpDiff>) {
        return on_detect(fault, batch, mask);
      };
  return run_faults(netlist, ListSource<Fault>{faults}, patterns, options,
                    false, &mask_only);
}

CampaignResult run_campaign(const Netlist& netlist, std::span<const Fault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options,
                            const DetailedDetectHook& on_detect) {
  return run_faults(netlist, ListSource<Fault>{faults}, patterns, options,
                    true, &on_detect);
}

CampaignResult run_campaign(const Netlist& netlist,
                            std::span<const BridgingFault> faults,
                            const PackedPatterns& patterns,
                            const CampaignOptions& options) {
  AIDFT_REQUIRE_CTX(options.engine == CampaignEngine::kPpsfp, "run_campaign",
                    "bridging campaigns have no reference engine");
  return run_sharded(
      netlist, ListSource<BridgingFault>{faults}, patterns, options,
      [](FaultSimulator& fsim, std::vector<OpDiff>&,
         const BridgingFault& f,
         const PatternBatch&) { return fsim.detect_mask_bridging(f); },
      [](const BridgingFault&) { return false; }, false);
}

}  // namespace aidft
