// Stuck-at and transition-delay fault models over netlist lines.
//
// A fault site is a *line*: either a gate's output stem (pin == kStemPin) or
// a specific fanout branch, identified as input pin `pin` of gate `gate`.
// Branch sites are only distinct lines when the driver has fanout > 1; the
// fault-universe generator already canonicalises fanout-1 pins onto the
// driver's stem, so every generated fault is a distinct physical line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace aidft {

inline constexpr std::uint8_t kStemPin = 0xFF;

enum class FaultKind : std::uint8_t {
  kStuckAt,      // line permanently at `value`
  kTransition,   // slow-to-rise when value==1 (final value late), slow-to-fall
                 // when value==0; detected as a stuck-at in the capture cycle
                 // of a pattern pair whose first vector sets the opposite value
};

struct Fault {
  GateId gate = kNoGate;
  std::uint8_t pin = kStemPin;  // kStemPin = output stem, else fanin index
  std::uint8_t value = 0;       // stuck-at value / transition final value
  FaultKind kind = FaultKind::kStuckAt;

  bool is_stem() const { return pin == kStemPin; }
  bool stuck_at_one() const { return value != 0; }

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// Human-readable "G42/SA0" or "G42.in1/STR" style label.
std::string fault_name(const Netlist& netlist, const Fault& fault);

/// The line a (gate, pin) pair actually refers to after canonicalising
/// fanout-1 branch pins onto the driver's stem. Returns {gate, pin} of the
/// canonical site.
std::pair<GateId, std::uint8_t> canonical_line(const Netlist& netlist,
                                               GateId gate, std::uint8_t pin);

/// Full uncollapsed stuck-at fault universe: two faults per distinct line.
/// Lines: every gate output except OUTPUT markers; every input pin whose
/// driver has fanout > 1. Constant gates contribute only the detectable
/// polarity (stuck at the opposite of their value).
std::vector<Fault> generate_stuck_at_faults(const Netlist& netlist);

/// Transition-fault universe over the same lines (slow-to-rise and
/// slow-to-fall per line).
std::vector<Fault> generate_transition_faults(const Netlist& netlist);

/// Equivalence collapsing via structural rules (AND in-SA0 ≡ out-SA0, NOT
/// in-SA0 ≡ out-SA1, BUF pass-through, ...). Returns one representative per
/// equivalence class: its first member in `faults`, in input order. Faults
/// are looked up by dense line slot (stem and pins of gate g from
/// Topology::fanin_offset(g) + g; see DESIGN.md), ignoring the fault kind;
/// only the first occurrence of a (gate, pin, value) joins a class, so a
/// later duplicate is kept as its own representative. Throws aidft::Error
/// on a fault whose gate is out of range, whose pin is at or past the
/// gate's fanin count, or whose value is not 0 or 1.
std::vector<Fault> collapse_equivalent(const Netlist& netlist,
                                       const std::vector<Fault>& faults);

/// Dominance collapsing on top of equivalence: drops the dominating fault of
/// each controlling-gate rule (e.g. AND output SA1 is dominated by every
/// input SA1 and can be removed when every input's fault is in the set).
/// Coverage of the reduced set implies coverage of the dropped faults. Same
/// slot lookup, first-occurrence rule and fault checks as
/// collapse_equivalent(); the kept faults stay in input order.
std::vector<Fault> collapse_dominance(const Netlist& netlist,
                                      const std::vector<Fault>& faults);

/// Deterministic uniform sample without replacement (for fault sampling on
/// large designs). `fraction` in (0,1].
std::vector<Fault> sample_faults(const std::vector<Fault>& faults,
                                 double fraction, std::uint64_t seed);

}  // namespace aidft
