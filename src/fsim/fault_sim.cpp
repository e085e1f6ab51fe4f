#include "fsim/fault_sim.hpp"

#include <algorithm>
#include <span>

namespace aidft {

ObserveIndex::ObserveIndex(const Netlist& netlist)
    : observed_(netlist.num_gates(), false),
      offsets_(netlist.num_gates() + 1, 0),
      list_(netlist.num_observe_points()) {
  // Counting sort of observe-point indices by observed gate: count, prefix
  // sum to row ends, then place in reverse so each row ascends.
  auto observed_gate = [&](std::size_t i) {
    return netlist.observed_gate(netlist.observe_point(i));
  };
  for (std::size_t i = 0; i < list_.size(); ++i) ++offsets_[observed_gate(i)];
  for (std::size_t g = 1; g < offsets_.size(); ++g) {
    offsets_[g] += offsets_[g - 1];
  }
  for (std::size_t i = list_.size(); i-- > 0;) {
    const GateId og = observed_gate(i);
    observed_[og] = true;
    list_[--offsets_[og]] = static_cast<std::uint32_t>(i);
  }
}

FaultSimulator::FaultSimulator(const Netlist& netlist)
    : FaultSimulator(netlist, std::make_shared<const ObserveIndex>(netlist)) {}

FaultSimulator::FaultSimulator(const Netlist& netlist,
                               std::shared_ptr<const ObserveIndex> index)
    : netlist_(&netlist),
      topo_(&netlist.topology()),
      good_sim_(netlist),
      buckets_(netlist.num_levels() + 1),
      observe_(std::move(index)) {}

void FaultSimulator::next_epoch() {
  ++cur_epoch_;
  if (cur_epoch_ == 0) {  // wrapped: invalidate all tags
    std::fill(epoch_.begin(), epoch_.end(), 0);
    cur_epoch_ = 1;
  }
}

void FaultSimulator::invalidate_roots() {
  ++cache_epoch_;
  if (cache_epoch_ == 0) {  // wrapped: invalidate all tags
    for (RootObs& r : roots_) r.tag = 0;
    cache_epoch_ = 1;
  }
  pairs_root_ = kNoGate;
}

void FaultSimulator::load_batch(const PatternBatch& batch) {
  good_sim_.simulate(batch);
  loaded_ = true;
  lane_mask_ = batch.lane_mask();
  if (faulty_.size() < good_sim_.tile()) {
    faulty_.resize(good_sim_.tile(), 0);
    epoch_.resize(good_sim_.tile(), 0);
    queued_.resize(good_sim_.tile(), false);
    roots_.resize(good_sim_.tile());
  }
  invalidate_roots();
}

void FaultSimulator::load_launch_batch(const PatternBatch& batch) {
  if (!launch_sim_) launch_sim_.emplace(*netlist_);
  launch_sim_->simulate(batch);
  launch_lane_mask_ = batch.lane_mask();
}

std::uint64_t FaultSimulator::line_value(const Fault& f) const {
  AIDFT_REQUIRE(loaded_, "load_batch() before line_value()");
  return good_sim_.value(f.is_stem() ? f.gate : topo_->fanin(f.gate)[f.pin]);
}

FaultSimulator::Site FaultSimulator::stuck_site(const Fault& fault) {
  return {fault.gate, fault.pin, fault.stuck_at_one() ? ~0ull : 0ull};
}

std::uint64_t FaultSimulator::propagate(Site first, Site second,
                                        std::vector<OpDiff>* op_diffs) {
  const Topology& t = *topo_;
  const std::vector<std::uint64_t>& good = good_sim_.values();
  const std::uint64_t lane_mask = lane_mask_;
  // Every gate this faulty machine reaches lies in the sites' instance,
  // which starts at `base`: good values and scratch are indexed relative to
  // it (base is 0 when the tile is the whole netlist).
  const GateId base = good_sim_.tile_base(first.gate);
  next_epoch();
  auto good_at = [&](GateId g) { return good[g - base]; };
  auto fval = [&](GateId g) -> std::uint64_t {
    return epoch_[g - base] == cur_epoch_ ? faulty_[g - base] : good[g - base];
  };
  auto set_fval = [&](GateId g, std::uint64_t v) {
    faulty_[g - base] = v;
    epoch_[g - base] = cur_epoch_;
  };

  ++events_;  // the injection itself

  const ObserveIndex& observe = *observe_;
  // Each gate is evaluated at most once per propagation and CSR rows are
  // disjoint, so every point is appended at most once; a gate that changed
  // on dead lanes only has a zero diff and appends nothing.
  auto record_diff = [&](GateId og, std::uint64_t diff) {
    if (op_diffs == nullptr || diff == 0) return;
    for (std::uint32_t op : observe.points(og)) op_diffs->push_back({op, diff});
  };

  // A DFF D-pin fault corrupts only the captured value, which is observed
  // directly at scan-out: activation is detection, nothing propagates.
  if (first.pin != kStemPin && t.type(first.gate) == GateType::kDff) {
    const GateId driver = t.fanin(first.gate)[first.pin];
    const std::uint64_t diff = (good_at(driver) ^ first.word) & lane_mask;
    if (op_diffs != nullptr && diff != 0) {
      // Only this flop's own observe point fails: the one among the points
      // observing its D driver whose gate is the flop itself.
      for (std::uint32_t op : observe.points(driver)) {
        if (netlist_->observe_point(op) == first.gate) {
          op_diffs->push_back({op, diff});
        }
      }
    }
    return diff;
  }

  std::uint64_t detect = 0;
  // Levels [lo, hi] hold queued gates; the levelized loop visits only them.
  std::uint32_t lo = UINT32_MAX;
  std::uint32_t hi = 0;

  auto enqueue_fanouts = [&](GateId g) {
    for (GateId s : t.fanout(g)) {
      if (is_state_element(t.type(s))) continue;  // captured, not propagated
      if (!queued_[s - base]) {
        queued_[s - base] = true;
        const std::uint32_t lvl = t.level(s);
        buckets_[lvl].push_back(s);
        lo = std::min(lo, lvl);
        hi = std::max(hi, lvl);
      }
    }
  };

  // --- inject -------------------------------------------------------------
  // `active`: the lanes on which a site differs from the good machine.
  // Every other lane of the faulty machine equals the good one, so
  // detect ⊆ active throughout; once they are equal, no later event can
  // change the mask and a mask-only caller (op_diffs == nullptr) stops.
  std::uint64_t active = 0;
  auto inject = [&](const Site& s) {
    std::uint64_t nv = s.word;  // a stem site's
    if (s.pin != kStemPin) {
      const std::span<const GateId> fin = t.fanin(s.gate);
      nv = eval_gate_words(t.type(s.gate), fin.size(), [&](std::size_t k) {
        return k == s.pin ? s.word : good_at(fin[k]);
      });
    }
    const std::uint64_t d = (nv ^ good_at(s.gate)) & lane_mask;
    if (d == 0) return;
    active |= d;
    set_fval(s.gate, nv);
    if (observe.observed(s.gate)) {
      detect |= d;
      record_diff(s.gate, d);
    }
  };
  const bool two_sites = second.gate != kNoGate;
  inject(first);
  if (two_sites) inject(second);
  if (active == 0) return 0;
  if (op_diffs == nullptr && detect == active) {
    ++early_exits_;
    return detect;
  }
  // A site is held by marking it queued for the whole propagation, so no
  // event re-evaluates it. Only a bridge needs that: one net's effect can
  // reach the other, while a single site never reaches itself (the graph
  // is acyclic and flops capture, not propagate). A site equal to the good
  // machine on every live lane was not injected and starts no events.
  auto hold = [&](bool held) {
    if (!two_sites) return;
    queued_[first.gate - base] = held;
    queued_[second.gate - base] = held;
  };
  hold(true);
  auto injected = [&](GateId g) { return epoch_[g - base] == cur_epoch_; };
  if (injected(first.gate)) enqueue_fanouts(first.gate);
  if (two_sites && injected(second.gate)) enqueue_fanouts(second.gate);

  // --- levelized forward propagation ---------------------------------------
  for (std::uint32_t lvl = lo; lvl <= hi; ++lvl) {
    auto& bucket = buckets_[lvl];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const GateId id = bucket[i];
      queued_[id - base] = false;
      ++events_;
      const GateType type = t.type(id);
      const std::span<const GateId> fin = t.fanin(id);
      const std::uint64_t nv = eval_gate_words(
          type, fin.size(),
          [&](std::size_t k) { return fval(fin[k]); });
      if (nv != fval(id)) {
        set_fval(id, nv);
        if (observe.observed(id)) {
          const std::uint64_t d = (nv ^ good_at(id)) & lane_mask;
          detect |= d;
          record_diff(id, d);
        }
        enqueue_fanouts(id);
      }
    }
    bucket.clear();
    if (op_diffs == nullptr && detect == active && lvl < hi) {
      // Mask final: drop the queued work of the skipped levels so the next
      // call starts with empty buckets and a clear queued_ bitmap.
      for (std::uint32_t skip = lvl + 1; skip <= hi; ++skip) {
        for (GateId id : buckets_[skip]) queued_[id - base] = false;
        buckets_[skip].clear();
      }
      ++early_exits_;
      break;
    }
  }
  hold(false);
  return detect;
}

const FaultSimulator::RootObs& FaultSimulator::root_obs(GateId root,
                                                        GateId base,
                                                        bool detailed) {
  if (base != cache_base_) {
    cache_base_ = base;
    invalidate_roots();
  }
  RootObs& r = roots_[root - base];
  if (r.tag == cache_epoch_ && (!detailed || pairs_root_ == root)) return r;
  ++root_propagations_;
  const Site flipped{root, kStemPin, ~good_sim_.values()[root - base]};
  r.tag = cache_epoch_;
  if (!detailed) {
    r.lanes = propagate(flipped);
  } else {
    root_pairs_.clear();
    r.lanes = propagate(flipped, kNoSite, &root_pairs_);
    pairs_root_ = root;
  }
  return r;
}

std::uint64_t FaultSimulator::grade_region(Site site,
                                           std::vector<OpDiff>* op_diffs) {
  const Topology& t = *topo_;
  if (site.pin != kStemPin && t.type(site.gate) == GateType::kDff) {
    return propagate(site, kNoSite, op_diffs);
  }
  ++local_walks_;
  const std::vector<std::uint64_t>& good = good_sim_.values();
  const GateId base = good_sim_.tile_base(site.gate);
  auto good_at = [&](GateId g) { return good[g - base]; };

  // --- local walk ------------------------------------------------------------
  // `flip`: the live lanes on which the fault flips gate g. Only g differs
  // from the good machine among the fanins of its unique fanout, which
  // reads it on one pin (a gate reading g on two pins is two fanout
  // entries, so g is a root).
  GateId g = site.gate;
  std::uint64_t nv = site.word;  // a stem site's
  if (site.pin != kStemPin) {
    const std::span<const GateId> fin = t.fanin(g);
    nv = eval_gate_words(t.type(g), fin.size(), [&](std::size_t k) {
      return k == site.pin ? site.word : good_at(fin[k]);
    });
  }
  ++events_;
  std::uint64_t flip = (nv ^ good_at(g)) & lane_mask_;
  // A root is observed or has a fanout count other than one; a gate whose
  // single fanout is a flop is observed (the flop's D pin).
  const ObserveIndex& observe = *observe_;
  while (flip != 0 && !observe.observed(g) && t.fanout_size(g) == 1) {
    const GateId next = t.fanout(g)[0];
    const std::uint64_t faulty = good_at(g) ^ flip;
    const std::span<const GateId> fin = t.fanin(next);
    flip = good_at(next) ^
           eval_gate_words(t.type(next), fin.size(), [&](std::size_t k) {
             return fin[k] == g ? faulty : good_at(fin[k]);
           });
    ++events_;
    g = next;
  }
  if (flip == 0) return 0;

  // --- the root's observability ---------------------------------------------
  // Outside the region the faulty machine is, lane by lane, either the good
  // machine or the machine with the root flipped.
  const RootObs& root = root_obs(g, base, op_diffs != nullptr);
  if (op_diffs != nullptr) {
    for (const OpDiff& d : root_pairs_) {
      if ((d.word & flip) != 0) op_diffs->push_back({d.op, d.word & flip});
    }
  }
  return root.lanes & flip;
}

std::uint64_t FaultSimulator::detect_mask(const Fault& fault) {
  AIDFT_REQUIRE(loaded_, "load_batch() before detect_mask()");
  if (fault.kind == FaultKind::kStuckAt) {
    return grade_region(stuck_site(fault), nullptr);
  }
  // Transition fault: launch must set the line to the initial value
  // (opposite of the final `value`), capture must detect stuck-at(initial).
  AIDFT_REQUIRE(launch_sim_.has_value(),
                "load_launch_batch() before transition detect_mask()");
  const GateId line_gate = fault.is_stem()
                               ? fault.gate
                               : topo_->fanin(fault.gate)[fault.pin];
  const std::uint64_t init_word = launch_sim_->value(line_gate);
  // slow-to-rise (value==1): needs launch value 0; fault behaves as SA0.
  const std::uint64_t armed =
      fault.stuck_at_one() ? ~init_word : init_word;  // lanes with init value
  Fault as_stuck = fault;
  as_stuck.kind = FaultKind::kStuckAt;
  as_stuck.value = fault.value ? 0 : 1;  // stuck at the *initial* value
  const std::uint64_t det = grade_region(stuck_site(as_stuck), nullptr);
  return det & armed & launch_lane_mask_ & lane_mask_;
}

std::uint64_t FaultSimulator::detect_mask_iddq(const Fault& fault) {
  AIDFT_REQUIRE(loaded_, "load_batch() before detect_mask_iddq()");
  AIDFT_REQUIRE(fault.kind == FaultKind::kStuckAt,
                "IDDQ grades stuck-at (pseudo-stuck-at) faults");
  const std::uint64_t stuck_word = fault.stuck_at_one() ? ~0ull : 0ull;
  return (line_value(fault) ^ stuck_word) & lane_mask_;
}

std::uint64_t FaultSimulator::detect_mask_bridging(const BridgingFault& fault) {
  AIDFT_REQUIRE(loaded_, "load_batch() before detect_mask_bridging()");
  const std::size_t n = netlist_->num_gates();
  AIDFT_REQUIRE(fault.a < n && fault.b < n && fault.a != fault.b,
                "bridging fault sites invalid");
  const std::uint64_t va = good_sim_.value(fault.a);
  const std::uint64_t vb = good_sim_.value(fault.b);
  Site a{fault.a, kStemPin, va};
  Site b{fault.b, kStemPin, vb};
  switch (fault.type) {
    case BridgeType::kWiredAnd: a.word = b.word = va & vb; break;
    case BridgeType::kWiredOr: a.word = b.word = va | vb; break;
    case BridgeType::kADominatesB: b.word = va; break;
    case BridgeType::kBDominatesA: a.word = vb; break;
  }
  // Nets in two tile blocks sit in two instances of a broadcast replica,
  // whose cones share no gate: the faulty machine is the two single-net
  // machines side by side.
  if (good_sim_.tile_base(fault.a) != good_sim_.tile_base(fault.b)) {
    return propagate(a) | propagate(b);
  }
  return propagate(a, b);
}

std::uint64_t FaultSimulator::detect_mask_detailed(
    const Fault& fault, std::vector<OpDiff>& op_diffs) {
  AIDFT_REQUIRE(loaded_, "load_batch() before detect_mask_detailed()");
  AIDFT_REQUIRE(fault.kind == FaultKind::kStuckAt,
                "detailed masks are for stuck-at faults");
  op_diffs.clear();
  return grade_region(stuck_site(fault), &op_diffs);
}

std::uint64_t FaultSimulator::detect_mask_reference(const PatternBatch& batch,
                                                    const Fault& fault) {
  AIDFT_REQUIRE(fault.kind == FaultKind::kStuckAt,
                "reference engine grades stuck-at faults only");
  const Netlist& nl = *netlist_;
  AIDFT_REQUIRE(batch.words.size() == nl.num_combinational_inputs(),
                "batch width != combinational input count");
  std::vector<std::uint64_t> good(nl.num_gates(), 0);
  for (std::size_t i = 0; i < batch.words.size(); ++i) {
    good[nl.combinational_input(i)] = batch.words[i];
  }
  std::vector<std::uint64_t> faulty = good;
  full_sweep(nl, good, nullptr);
  const std::uint64_t stuck_word = fault.stuck_at_one() ? ~0ull : 0ull;
  if (!fault.is_stem() && nl.type(fault.gate) == GateType::kDff) {
    const GateId driver = topo_->fanin(fault.gate)[fault.pin];
    return (good[driver] ^ stuck_word) & batch.lane_mask();
  }
  full_sweep(nl, faulty, &fault);
  std::uint64_t detect = 0;
  for (std::size_t i = 0; i < nl.num_observe_points(); ++i) {
    const GateId og = nl.observed_gate(nl.observe_point(i));
    detect |= good[og] ^ faulty[og];
  }
  return detect & batch.lane_mask();
}

void full_sweep(const Netlist& nl, std::vector<std::uint64_t>& values,
                const Fault* fault) {
  const Topology& t = nl.topology();
  const std::uint64_t stuck_word =
      (fault != nullptr && fault->stuck_at_one()) ? ~0ull : 0ull;
  for (GateId id : t.topo_order()) {
    const GateType type = t.type(id);
    const bool site = fault != nullptr && id == fault->gate;
    const bool pin_site = site && !fault->is_stem();
    if (is_source(type) || is_state_element(type)) {
      if (type == GateType::kConst1) values[id] = ~0ull;
      if (type == GateType::kConst0) values[id] = 0;
    } else {
      const std::span<const GateId> fin = t.fanin(id);
      values[id] = eval_gate_words(type, fin.size(), [&](std::size_t k) {
        return pin_site && k == fault->pin ? stuck_word : values[fin[k]];
      });
    }
    if (site && fault->is_stem()) values[id] = stuck_word;
  }
}

}  // namespace aidft
