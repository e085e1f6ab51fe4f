#include "aichip/wrapper.hpp"

namespace aidft::aichip {

WrappedCore insert_core_wrapper(const Netlist& core) {
  AIDFT_REQUIRE(core.finalized(), "insert_core_wrapper requires finalized core");
  WrappedCore out;
  out.netlist.set_name(core.name() + "_wrapped");

  // Clone gates; PIs keep their names, internal logic is rewired through
  // the boundary muxes.
  const std::vector<GateId> map = clone_gates(out.netlist, core, "");
  out.wrapper_enable = out.netlist.add_input("wen");

  // Input boundary: cell + mux per PI. The cell's functional D input is the
  // pin itself (boundary register shadows the pin in functional mode, the
  // standard WBR arrangement), so the cell is exercised functionally too.
  std::vector<GateId> feed = map;
  std::size_t wi = 0;
  for (GateId pi : core.inputs()) {
    const GateId cell =
        out.netlist.add_dff(map[pi], "wbr_in" + std::to_string(wi));
    const GateId mux = out.netlist.add_gate(
        GateType::kMux, {out.wrapper_enable, map[pi], cell},
        "wbr_in_mux" + std::to_string(wi));
    feed[pi] = mux;
    out.functional_inputs.push_back(map[pi]);
    out.input_cells.push_back(cell);
    ++wi;
  }

  // Wire the clone: sinks of a PI read the boundary mux instead.
  clone_fanins(out.netlist, core, map, feed);

  // Output boundary: a capture cell on each PO driver (the PO marker stays,
  // so functional observation is unchanged; the cell adds the scan-out
  // path used during internal test).
  std::size_t wo = 0;
  for (GateId po : core.outputs()) {
    const GateId driver = map[core.topology().fanin0(po)];
    out.output_cells.push_back(
        out.netlist.add_dff(driver, "wbr_out" + std::to_string(wo++)));
  }

  out.netlist.finalize();
  return out;
}

}  // namespace aidft::aichip
