#include "fault/fault.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/rng.hpp"

namespace aidft {
namespace {

// Key for (gate, pin, value) lookup during collapsing.
std::uint64_t fault_key(const Fault& f) {
  return (static_cast<std::uint64_t>(f.gate) << 16) |
         (static_cast<std::uint64_t>(f.pin) << 8) | f.value;
}

// Union-find over fault indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::size_t> parent_;
};

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
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(faults.size() * 2);
  for (std::size_t i = 0; i < faults.size(); ++i) index.emplace(fault_key(faults[i]), i);
  UnionFind uf(faults.size());

  // Looks up the fault on the line feeding pin `pin` of gate `id` with value
  // `v` — either the branch fault or, for fanout-1 drivers, the stem fault.
  auto line_fault = [&](GateId id, std::uint8_t pin, std::uint8_t v) -> std::size_t {
    auto [cg, cp] = canonical_line(nl, id, pin);
    auto it = index.find(fault_key(Fault{cg, cp, v, faults[0].kind}));
    return it == index.end() ? SIZE_MAX : it->second;
  };
  auto stem_fault = [&](GateId id, std::uint8_t v) -> std::size_t {
    auto it = index.find(fault_key(Fault{id, kStemPin, v, faults[0].kind}));
    return it == index.end() ? SIZE_MAX : it->second;
  };
  auto unite = [&](std::size_t a, std::size_t b) {
    if (a != SIZE_MAX && b != SIZE_MAX) uf.unite(a, b);
  };

  const Topology& t = nl.topology();
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    const std::size_t arity = t.fanin_size(id);
    switch (t.type(id)) {
      case GateType::kBuf:
        // Same polarity passes through.
        for (std::uint8_t v : {0, 1}) {
          unite(line_fault(id, 0, v), stem_fault(id, v));
        }
        break;
      case GateType::kNot:
        for (std::uint8_t v : {0, 1}) {
          unite(line_fault(id, 0, v), stem_fault(id, static_cast<std::uint8_t>(1 - v)));
        }
        break;
      case GateType::kAnd:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 0), stem_fault(id, 0));
        }
        break;
      case GateType::kNand:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 0), stem_fault(id, 1));
        }
        break;
      case GateType::kOr:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 1), stem_fault(id, 1));
        }
        break;
      case GateType::kNor:
        for (std::uint8_t pin = 0; pin < arity; ++pin) {
          unite(line_fault(id, pin, 1), stem_fault(id, 0));
        }
        break;
      default:
        break;  // XOR/XNOR/MUX/DFF/IO: no structural equivalence
    }
  }

  std::vector<Fault> reps;
  std::vector<bool> taken(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::size_t root = uf.find(i);
    if (!taken[root]) {
      taken[root] = true;
      reps.push_back(faults[root]);
    }
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
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < faults.size(); ++i) index.emplace(fault_key(faults[i]), i);
  auto has_line_fault = [&](GateId id, std::uint8_t pin, std::uint8_t v) {
    auto [cg, cp] = canonical_line(nl, id, pin);
    return index.count(fault_key(Fault{cg, cp, v, faults[0].kind})) > 0;
  };

  const Topology& t = nl.topology();
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
    auto it = index.find(fault_key(Fault{id, kStemPin, out_v, faults[0].kind}));
    if (it != index.end()) drop[it->second] = true;
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
