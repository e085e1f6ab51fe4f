// Fault simulation engines.
//
// Two engines over the same fault model:
//  * reference: two full sweeps (full_sweep below) per call, the good
//    machine and the machine with the fault injected — simple, obviously
//    correct, and sharing only the per-gate word evaluator with the
//    levelized, tiled good machine (ParallelSimulator) and with PPSFP. It is
//    the oracle in tests and the "serial" baseline in benchmark E3;
//  * PPSFP (parallel-pattern single-fault propagation): one good-machine
//    simulation per 64-pattern batch, then per-fault grading in two steps.
//    This is the engine every campaign (ATPG dropping, BIST grading,
//    diagnosis) runs on.
//     - Local walk. A stuck-at fault's effect leaves its fanout-free region
//       only through the region's root: the first gate on the site's
//       unique fanout path that is observed or whose fanout list does not
//       hold exactly one entry. The walk follows that path over good-machine
//       words and keeps `flip`, the lanes on which the fault flips the
//       current gate; side inputs at their controlling value clear lanes,
//       and at zero lanes the fault is undetected in the batch.
//     - Root observability. The lanes on which flipping the root reaches an
//       observe point, obs(root), come from one event-driven forward
//       propagation of the root with every live lane flipped, with an epoch
//       trick so no per-propagation state reset is needed. Lanes are
//       independent, so detect(f) = flip_f & obs(root) exactly. obs(root) is
//       cached per batch and instance, so the ~5 faults of a region share one
//       propagation. Mask-only grading stops a propagation as soon as every
//       lane it flips is detected (the mask cannot grow further). Detailed
//       grading keeps the (observe point, word) pairs of the last root it
//       propagated, and a fault gets them masked by its flip, so its cost
//       follows the root's cone, not the observe-point count.
//
// On a replicated SoC under broadcast stimulus the good machine is one
// tile, instance 0 (see ParallelSimulator::simulate): PPSFP reads a fault's
// good values at `g - base`, `base` being its instance's first gate, and
// sizes its scratch and root cache to the tile, while faulty propagation
// still walks the real SoC topology from the real fault site. The root
// cache holds one instance at a time: a new batch or a new base empties it,
// so every instance propagates its own roots and no result is reused across
// instances.
//
// Stuck-at, transition and bridging faults share one propagation kernel,
// which holds one or two forced sites: a root flip, a DFF D-pin fault
// (observed at capture, so it has no region), or a bridge, which is one
// propagation with both nets held, or, when its nets sit in two instances,
// the OR of two single-net propagations (instance cones share no gate).
//
// Transition-delay faults are graded on pattern *pairs* (launch, capture):
// the launch vector must set the line to the transition's initial value and
// the capture vector must detect the corresponding stuck-at.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fault/bridging.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/parallel_sim.hpp"

namespace aidft {

/// One full sweep of the netlist in topological order over 64-lane words,
/// with the stuck-at `fault` injected (null: the good machine). On entry
/// `values` (one word per gate) holds the primary-input and DFF words; on
/// exit every other gate's word is evaluated and constants hold theirs. A
/// stem fault forces its gate's word, also on an input or flop; a pin fault
/// forces that pin of its gate, except on a DFF, where it corrupts only the
/// capture and the sweep leaves it alone.
void full_sweep(const Netlist& netlist, std::vector<std::uint64_t>& values,
                const Fault* fault);

/// One observe point a detailed grading reached: `op` indexes
/// observe_points(), `word` holds the lanes on which that point fails.
struct OpDiff {
  std::uint32_t op = 0;
  std::uint64_t word = 0;
  friend bool operator==(const OpDiff&, const OpDiff&) = default;
};

/// Which observe points read each gate, as CSR rows over the netlist's
/// gates: points(g) lists the indices into observe_points() that observe
/// gate g (a gate can be observed by several points, e.g. a net driving the
/// D pins of several flops), ascending. Immutable once built, so every
/// simulator of a campaign shares one read-only instead of holding a
/// netlist-sized copy each.
class ObserveIndex {
 public:
  explicit ObserveIndex(const Netlist& netlist);

  bool observed(GateId g) const { return observed_[g]; }
  std::span<const std::uint32_t> points(GateId g) const {
    return {list_.data() + offsets_[g], offsets_[g + 1] - offsets_[g]};
  }

 private:
  std::vector<bool> observed_;  // gate feeds a PO marker value or a DFF D pin
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> list_;
};

class FaultSimulator {
 public:
  /// A simulator with its own ObserveIndex of `netlist`.
  explicit FaultSimulator(const Netlist& netlist);
  /// A simulator reading the shared `index`, which must be of `netlist`.
  FaultSimulator(const Netlist& netlist,
                 std::shared_ptr<const ObserveIndex> index);

  /// Loads a capture batch: runs the good-machine simulation and caches it.
  void load_batch(const PatternBatch& batch);

  /// Loads the launch batch for transition grading (values the lines held
  /// in the cycle before capture).
  void load_launch_batch(const PatternBatch& batch);

  /// Lanes (bit p = pattern p of the loaded batch) on which `fault` is
  /// detected at any observe point. Requires load_batch(); transition faults
  /// additionally require load_launch_batch().
  std::uint64_t detect_mask(const Fault& fault);

  /// Like detect_mask() for stuck-at faults, but additionally replaces
  /// `op_diffs` with the observe points the fault reached — the raw
  /// failing-cycle data a tester would log. Each point appears at most once,
  /// every word is nonzero and holds live lanes only, and the pairs come in
  /// the order the fault's region root propagated them, not index order; a
  /// point not listed does not fail.
  /// The OR of the words is the returned mask. Used by response compaction,
  /// LBIST signatures and diagnosis.
  std::uint64_t detect_mask_detailed(const Fault& fault,
                                     std::vector<OpDiff>& op_diffs);

  /// Oracle: full resimulation with the fault injected; same contract as
  /// detect_mask() for stuck-at faults.
  std::uint64_t detect_mask_reference(const PatternBatch& batch,
                                      const Fault& fault);

  /// Lanes on which a bridging fault is detected: both nets hold the words
  /// the bridge gives them, computed from their good values, and the effect
  /// propagates like a stuck-at fault's. The two nets should have no
  /// combinational path between them (guaranteed by same-level candidates
  /// from sample_bridging_faults); otherwise behaviour is the zero-delay
  /// approximation that ignores feedback.
  std::uint64_t detect_mask_bridging(const BridgingFault& fault);

  /// IDDQ (pseudo-stuck-at) detection: an elevated quiescent current flows
  /// whenever the defect site is *activated* — the line driven to the
  /// opposite of its stuck value — no propagation to an observe point
  /// needed. This is why a handful of IDDQ vectors covers what takes
  /// hundreds of logic vectors (benchmark E16).
  std::uint64_t detect_mask_iddq(const Fault& fault);

  /// Good-machine value of the *line* a fault sits on (driver value for pin
  /// faults), from the loaded batch.
  std::uint64_t line_value(const Fault& fault) const;

  /// Lifetime count of faulty-machine events this simulator processed, i.e.
  /// gates evaluated: a local walk's site injection and each gate it steps
  /// to, plus a propagation's injections and event-driven evaluations. A
  /// root's propagation is counted once per batch and instance, by the
  /// fault that first reaches it. Mask-only grading (detect_mask) stops a
  /// propagation once the mask is final, so it evaluates fewer gates than
  /// detect_mask_detailed. A plain member tally — campaign workers own a
  /// private simulator and flush it into the `fsim.events` counter at shard
  /// end, keeping the hot loop atomic-free.
  std::uint64_t events_simulated() const { return events_; }

  /// Lifetime count of propagations that stopped early because the mask was
  /// final (flushed as `fsim.early_exits`, like events).
  std::uint64_t early_exits() const { return early_exits_; }

  /// Lifetime count of region roots propagated (cache misses; flushed as
  /// `fsim.root_propagations`).
  std::uint64_t root_propagations() const { return root_propagations_; }

  /// Lifetime count of local walks, one per graded stuck-at or transition
  /// fault that has a region (flushed as `fsim.local_walks`).
  std::uint64_t local_walks() const { return local_walks_; }

 private:
  // A line the faulty machine holds at `word`: gate `gate`'s output stem
  // (pin == kStemPin) or its input pin `pin`; kNoSite holds nothing.
  struct Site {
    GateId gate;
    std::uint8_t pin;
    std::uint64_t word;
  };
  static constexpr Site kNoSite{kNoGate, kStemPin, 0};
  static Site stuck_site(const Fault& fault);
  // Grades the faulty machine that holds the stuck-at `site`: the local
  // walk to its region's root, then the root's cached observability. With
  // `op_diffs` set, appends the fault's pairs. A DFF D-pin site has no
  // region and goes to propagate() directly.
  std::uint64_t grade_region(Site site, std::vector<OpDiff>* op_diffs);
  // A root's cached observability: the live lanes on which flipping the
  // root reaches an observe point. Valid while `tag` == cache_epoch_.
  struct RootObs {
    std::uint64_t lanes = 0;
    std::uint32_t tag = 0;
  };
  // The cached entry of `root`, in the instance starting at `base`,
  // propagating the root on a miss; `detailed` also needs its pairs in
  // root_pairs_.
  const RootObs& root_obs(GateId root, GateId base, bool detailed);
  // Empties the root cache (a new batch or a new instance).
  void invalidate_roots();
  // Propagation over the loaded capture batch of the faulty machine that
  // holds `first` and, if set, `second`, a stem in the same tile block
  // (a bridge's two nets); a held site keeps its word wherever the faulty
  // effect reconverges. With `op_diffs` set, appends one pair per observe
  // point reached.
  std::uint64_t propagate(Site first, Site second = kNoSite,
                          std::vector<OpDiff>* op_diffs = nullptr);
  // Starts a fresh faulty machine (retags every scratch entry on wrap).
  void next_epoch();

  const Netlist* netlist_;
  const Topology* topo_ = nullptr;  // compiled view; set in the constructor
  // Holds the capture batch's good values for its tile (read in place, not
  // through a cached reference: simulators are moved).
  ParallelSimulator good_sim_;
  bool loaded_ = false;             // load_batch() has run
  // The launch batch's good machine, with its own tile: a launch batch can
  // be broadcast when its capture batch is not, or the reverse.
  std::optional<ParallelSimulator> launch_sim_;
  std::uint64_t lane_mask_ = 0;
  std::uint64_t launch_lane_mask_ = 0;

  // Per-fault propagation scratch (epoch-tagged faulty values), allocated
  // on the first load and grown to the largest tile loaded: a faulty
  // machine indexes it relative to its instance's first gate, and a bridge
  // whose nets sit in two instances runs as two of them.
  std::vector<std::uint64_t> faulty_;
  std::vector<std::uint32_t> epoch_;
  std::uint64_t events_ = 0;
  std::uint64_t early_exits_ = 0;
  std::uint32_t cur_epoch_ = 0;
  std::vector<std::vector<GateId>> buckets_;  // levelized work queue
  std::vector<bool> queued_;

  // Root cache, indexed like the scratch above (tile-relative), for the
  // instance starting at cache_base_. The pairs are those of one root,
  // pairs_root_, the last one detailed grading propagated: a region's
  // faults are mostly graded in a row, and a pool of every root's pairs
  // would grow with the tile times the observe points each root reaches.
  std::vector<RootObs> roots_;
  std::vector<OpDiff> root_pairs_;
  GateId pairs_root_ = kNoGate;
  std::uint32_t cache_epoch_ = 0;
  GateId cache_base_ = 0;
  std::uint64_t root_propagations_ = 0;
  std::uint64_t local_walks_ = 0;
  std::shared_ptr<const ObserveIndex> observe_;
};

}  // namespace aidft
