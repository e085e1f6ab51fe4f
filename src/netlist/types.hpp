// Fundamental identifiers and gate vocabulary of the gate-level IR.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string_view>

namespace aidft {

/// Dense index of a gate inside one Netlist. Gates are never deleted, so ids
/// are stable for the lifetime of the netlist.
using GateId = std::uint32_t;
inline constexpr GateId kNoGate = 0xFFFFFFFFu;

enum class GateType : std::uint8_t {
  kInput,   // primary input; no fanin
  kOutput,  // primary output marker; exactly one fanin, value = fanin value
  kBuf,     // 1-input buffer
  kNot,     // 1-input inverter
  kAnd,     // n-input AND (n >= 1)
  kNand,    // n-input NAND
  kOr,      // n-input OR
  kNor,     // n-input NOR
  kXor,     // n-input XOR (parity)
  kXnor,    // n-input XNOR
  kMux,     // 3-input: fanin[0]=select, fanin[1]=data0, fanin[2]=data1
  kConst0,  // constant 0, no fanin
  kConst1,  // constant 1, no fanin
  kDff,     // D flip-flop: fanin[0]=D; gate value is Q (state element)
};

/// Human-readable gate-type name ("AND", "DFF", ...).
std::string_view to_string(GateType type);

/// True for state elements (currently only DFF).
constexpr bool is_state_element(GateType type) { return type == GateType::kDff; }

/// Fanin counts a gate of `type` may have, [min, max]; max is unbounded for
/// the n-input logic gates. Netlist::finalize() rejects a gate outside it
/// and DRC rule D2 reports one.
struct FaninRange {
  std::size_t min;
  std::size_t max;
};
constexpr FaninRange fanin_range(GateType type) {
  switch (type) {
    case GateType::kInput:
    case GateType::kConst0:
    case GateType::kConst1:
      return {0, 0};
    case GateType::kOutput:
    case GateType::kBuf:
    case GateType::kNot:
    case GateType::kDff:
      return {1, 1};
    case GateType::kMux:
      return {3, 3};
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
      break;
  }
  return {1, std::numeric_limits<std::size_t>::max()};
}

/// True for types with no fanin.
constexpr bool is_source(GateType type) {
  return type == GateType::kInput || type == GateType::kConst0 ||
         type == GateType::kConst1;
}

}  // namespace aidft
