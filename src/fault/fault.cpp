#include "fault/fault.hpp"

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"

namespace aidft {
namespace {

constexpr std::uint32_t kAbsent = UINT32_MAX;

// Dense line slot of (gate, pin): gate g owns slot fanin_offset(g) + g for
// its output stem, then one slot per input pin (see DESIGN.md).
std::uint32_t line_slot(const Topology& t, GateId gate, std::uint8_t pin) {
  const std::uint32_t stem = t.fanin_offset(gate) + gate;
  return pin == kStemPin ? stem : stem + 1 + pin;
}

// Index of the first fault at each 2*slot + value (kAbsent where none), the
// lookup both collapsers share. A later duplicate of a fault is not indexed,
// so structural rules only ever reach the first occurrence.
std::vector<std::uint32_t> index_faults(const Netlist& nl,
                                        const std::vector<Fault>& faults) {
  const Topology& t = nl.topology();
  const std::size_t n = nl.num_gates();
  const std::size_t slots = t.fanin_offset(static_cast<GateId>(n)) + n;
  AIDFT_REQUIRE(faults.size() < kAbsent && 2 * slots < kAbsent,
                "fault collapsing: more than 2^32 faults or line slots");
  std::vector<std::uint32_t> index(2 * slots, kAbsent);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    AIDFT_REQUIRE(f.gate < n, "fault collapsing: gate out of range");
    // A pin past the gate's arity would alias the next gate's slots.
    AIDFT_REQUIRE(f.is_stem() || f.pin < t.fanin_size(f.gate),
                  "fault collapsing: pin out of range");
    AIDFT_REQUIRE(f.value <= 1, "fault collapsing: value must be 0 or 1");
    std::uint32_t& first = index[2 * line_slot(t, f.gate, f.pin) + f.value];
    if (first == kAbsent) first = static_cast<std::uint32_t>(i);
  }
  return index;
}

}  // namespace

std::pair<GateId, std::uint8_t> canonical_line(const Netlist& nl, GateId gate,
                                               std::uint8_t pin) {
  if (pin == kStemPin) return {gate, kStemPin};
  const Topology& t = nl.topology();
  AIDFT_ASSERT(pin < t.fanin_size(gate), "canonical_line: pin out of range");
  const GateId driver = t.fanin(gate)[pin];
  if (t.fanout_size(driver) == 1) return {driver, kStemPin};
  return {gate, pin};
}

std::string fault_name(const Netlist& nl, const Fault& f) {
  const std::string& gname = nl.name_of(f.gate);
  std::string base = gname.empty() ? "n" + std::to_string(f.gate) : gname;
  if (!f.is_stem()) base += ".in" + std::to_string(f.pin);
  if (f.kind == FaultKind::kStuckAt) {
    return base + (f.stuck_at_one() ? "/SA1" : "/SA0");
  }
  return base + (f.stuck_at_one() ? "/STR" : "/STF");  // slow-to-rise/fall
}

static std::vector<Fault> generate_faults(const Netlist& nl, FaultKind kind) {
  AIDFT_REQUIRE(nl.finalized(), "fault generation requires finalized netlist");
  const Topology& t = nl.topology();
  std::vector<Fault> faults;
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const GateType type = t.type(id);
    if (type == GateType::kOutput) continue;
    // Output stem faults. For constants only the opposite polarity is a
    // distinct behaviour (stuck at its own value is a no-op by construction).
    for (std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1}}) {
      if (kind == FaultKind::kStuckAt) {
        if (type == GateType::kConst0 && v == 0) continue;
        if (type == GateType::kConst1 && v == 1) continue;
      } else {
        // A constant line never transitions; no transition faults on it.
        if (type == GateType::kConst0 || type == GateType::kConst1) continue;
      }
      faults.push_back(Fault{id, kStemPin, v, kind});
    }
    // Branch faults on pins whose driver forks.
    const std::span<const GateId> fanin = t.fanin(id);
    for (std::uint8_t pin = 0; pin < fanin.size(); ++pin) {
      if (t.fanout_size(fanin[pin]) <= 1) continue;
      for (std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1}}) {
        faults.push_back(Fault{id, pin, v, kind});
      }
    }
  }
  return faults;
}

std::vector<Fault> generate_stuck_at_faults(const Netlist& nl) {
  return generate_faults(nl, FaultKind::kStuckAt);
}

std::vector<Fault> generate_transition_faults(const Netlist& nl) {
  return generate_faults(nl, FaultKind::kTransition);
}

std::vector<Fault> collapse_equivalent(const Netlist& nl,
                                       const std::vector<Fault>& faults) {
  if (faults.empty()) return {};
  const Topology& t = nl.topology();
  const std::vector<std::uint32_t> index = index_faults(nl, faults);
  // Union-find over fault indices; the root of a class is its lowest index.
  std::vector<std::uint32_t> parent(faults.size());
  std::iota(parent.begin(), parent.end(), 0u);
  auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };

  // Unites the fault on the line feeding pin `pin` of gate `id` at value
  // `in_v` (the branch fault, or the driver's stem fault for fanout-1
  // drivers) with the stem fault of `id` at value `out_v`.
  auto unite = [&](GateId id, std::uint8_t pin, std::uint8_t in_v,
                   std::uint8_t out_v) {
    const auto [cg, cp] = canonical_line(nl, id, pin);
    std::uint32_t a = index[2 * line_slot(t, cg, cp) + in_v];
    std::uint32_t b = index[2 * line_slot(t, id, kStemPin) + out_v];
    if (a == kAbsent || b == kAbsent) return;
    a = find(a);
    b = find(b);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  };

  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const std::size_t arity = t.fanin_size(id);
    switch (t.type(id)) {
      case GateType::kBuf:
        // Same polarity passes through.
        for (std::uint8_t v : {0, 1}) unite(id, 0, v, v);
        break;
      case GateType::kNot:
        for (std::uint8_t v : {0, 1}) unite(id, 0, v, 1 - v);
        break;
      case GateType::kAnd:
        for (std::uint8_t pin = 0; pin < arity; ++pin) unite(id, pin, 0, 0);
        break;
      case GateType::kNand:
        for (std::uint8_t pin = 0; pin < arity; ++pin) unite(id, pin, 0, 1);
        break;
      case GateType::kOr:
        for (std::uint8_t pin = 0; pin < arity; ++pin) unite(id, pin, 1, 1);
        break;
      case GateType::kNor:
        for (std::uint8_t pin = 0; pin < arity; ++pin) unite(id, pin, 1, 0);
        break;
      default:
        break;  // XOR/XNOR/MUX/DFF/IO: no structural equivalence
    }
  }

  std::vector<Fault> reps;
  for (std::uint32_t i = 0; i < faults.size(); ++i) {
    if (find(i) == i) reps.push_back(faults[i]);
  }
  return reps;
}

std::vector<Fault> collapse_dominance(const Netlist& nl,
                                      const std::vector<Fault>& faults) {
  // Safe textbook rules: for a controlling-value gate, the output fault at
  // the non-controlled polarity is dominated by each input fault at the
  // controlling... precisely: AND output SA1 is detected whenever any input
  // SA1 is detected through this gate; keeping all input SA1 faults lets us
  // drop the output SA1. Analogously NAND out-SA0, OR out-SA0, NOR out-SA1.
  // Only applied when every input line's corresponding fault is present in
  // `faults` (otherwise dropping would lose coverage accounting).
  if (faults.empty()) return {};
  const Topology& t = nl.topology();
  const std::vector<std::uint32_t> index = index_faults(nl, faults);
  auto has_line_fault = [&](GateId id, std::uint8_t pin, std::uint8_t v) {
    const auto [cg, cp] = canonical_line(nl, id, pin);
    return index[2 * line_slot(t, cg, cp) + v] != kAbsent;
  };

  std::vector<bool> drop(faults.size(), false);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    std::uint8_t in_v = 0, out_v = 0;
    switch (t.type(id)) {
      case GateType::kAnd: in_v = 1; out_v = 1; break;
      case GateType::kNand: in_v = 1; out_v = 0; break;
      case GateType::kOr: in_v = 0; out_v = 0; break;
      case GateType::kNor: in_v = 0; out_v = 1; break;
      default: continue;
    }
    const std::size_t arity = t.fanin_size(id);
    bool all_present = arity != 0;
    for (std::uint8_t pin = 0; pin < arity && all_present; ++pin) {
      all_present = has_line_fault(id, pin, in_v);
    }
    if (!all_present) continue;
    const std::uint32_t out = index[2 * line_slot(t, id, kStemPin) + out_v];
    if (out != kAbsent) drop[out] = true;
  }

  std::vector<Fault> kept;
  kept.reserve(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!drop[i]) kept.push_back(faults[i]);
  }
  return kept;
}

std::vector<Fault> sample_faults(const std::vector<Fault>& faults,
                                 double fraction, std::uint64_t seed) {
  AIDFT_REQUIRE(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0,1]");
  if (fraction >= 1.0) return faults;
  std::vector<Fault> shuffled = faults;
  Rng rng(seed);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(faults.size()) * fraction + 0.5);
  shuffled.resize(std::max<std::size_t>(1, keep));
  return shuffled;
}

}  // namespace aidft
