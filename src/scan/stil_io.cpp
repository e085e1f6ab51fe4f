#include "scan/stil_io.hpp"

#include <ostream>
#include <sstream>

#include "sim/parallel_sim.hpp"

namespace aidft {
namespace {

std::string signal_name(const Netlist& nl, GateId g) {
  const auto& n = nl.name_of(g);
  return n.empty() ? "n" + std::to_string(g) : n;
}

char bit_char(Val3 v) {
  switch (v) {
    case Val3::kZero: return '0';
    case Val3::kOne: return '1';
    case Val3::kX: return 'N';  // STIL: N = unknown/no-care drive
  }
  return 'N';
}

}  // namespace

void write_stil(const Netlist& nl, const ScanPlan& plan,
                const std::vector<TestCube>& patterns, std::ostream& out) {
  const std::vector<std::size_t> flop_pos =
      checked_flop_positions(nl, plan, "write_stil");
  const std::size_t npi = nl.inputs().size();
  const std::size_t nff = nl.dffs().size();
  for (const auto& p : patterns) {
    AIDFT_REQUIRE(p.size() == npi + nff, "pattern width mismatch");
  }

  out << "STIL 1.0;\n\n";
  out << "// design: " << nl.name() << "\n";
  out << "// generated by aidft\n\n";

  out << "Signals {\n";
  for (GateId pi : nl.inputs()) {
    out << "  \"" << signal_name(nl, pi) << "\" In;\n";
  }
  for (GateId po : nl.outputs()) {
    out << "  \"" << signal_name(nl, po) << "\" Out;\n";
  }
  out << "  \"test_se\" In;\n";
  for (std::size_t c = 0; c < plan.num_chains(); ++c) {
    out << "  \"test_si" << c << "\" In;\n  \"test_so" << c << "\" Out;\n";
  }
  out << "}\n\n";

  out << "SignalGroups {\n  \"_pi\" = '";
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    if (i) out << " + ";
    out << "\"" << signal_name(nl, nl.inputs()[i]) << "\"";
  }
  out << "';\n  \"_po\" = '";
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    if (i) out << " + ";
    out << "\"" << signal_name(nl, nl.outputs()[i]) << "\"";
  }
  out << "';\n}\n\n";

  out << "ScanStructures {\n";
  for (std::size_t c = 0; c < plan.num_chains(); ++c) {
    const auto& chain = plan.chains[c];
    out << "  ScanChain \"chain" << c << "\" {\n";
    out << "    ScanLength " << chain.cells.size() << ";\n";
    out << "    ScanIn \"test_si" << c << "\"; ScanOut \"test_so" << c << "\";\n";
    out << "    ScanCells";
    for (GateId ff : chain.cells) out << " \"" << signal_name(nl, ff) << "\"";
    out << ";\n  }\n";
  }
  out << "}\n\n";

  out << "Procedures {\n";
  out << "  \"load_unload\" {\n    V { \"test_se\" = 1; }\n";
  out << "    Shift { V { ";
  for (std::size_t c = 0; c < plan.num_chains(); ++c) {
    out << "\"test_si" << c << "\" = #; \"test_so" << c << "\" = #; ";
  }
  out << "} }\n  }\n";
  out << "  \"capture\" {\n    V { \"test_se\" = 0; \"_pi\" = \\r" << npi
      << " # ; \"_po\" = \\r" << nl.outputs().size() << " # ; }\n  }\n";
  out << "}\n\n";

  // Expected responses from the fault-free machine.
  ParallelSimulator sim(nl);

  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    // X bits drive as 0 for response computation (writer records them as N).
    std::vector<TestCube> filled(patterns.begin() + base,
                                 patterns.begin() + base + count);
    for (auto& f : filled) f.constant_fill(Val3::kZero);
    sim.simulate(pack_patterns(filled, 0, count));

    for (std::size_t lane = 0; lane < count; ++lane) {
      const TestCube& p = patterns[base + lane];
      out << "Pattern \"p" << base + lane << "\" {\n";
      // Scan load per chain (scan-in order: last cell's bit first).
      out << "  Call \"load_unload\" {\n";
      for (std::size_t c = 0; c < plan.num_chains(); ++c) {
        const auto& chain = plan.chains[c];
        out << "    \"test_si" << c << "\" = ";
        for (auto it = chain.cells.rbegin(); it != chain.cells.rend(); ++it) {
          out << bit_char(p.bits[flop_pos[*it]]);
        }
        out << ";\n";
      }
      out << "  }\n";
      // Capture with PI values and expected PO values.
      out << "  Call \"capture\" {\n    \"_pi\" = ";
      for (std::size_t i = 0; i < npi; ++i) out << bit_char(p.bits[i]);
      out << ";\n    \"_po\" = ";
      for (GateId po : nl.outputs()) {
        out << (((sim.value(po) >> lane) & 1) ? 'H' : 'L');
      }
      out << ";\n  }\n";
      // Unload with expected captured values (scan-out order).
      out << "  Call \"load_unload\" {\n";
      for (std::size_t c = 0; c < plan.num_chains(); ++c) {
        const auto& chain = plan.chains[c];
        out << "    \"test_so" << c << "\" = ";
        for (auto it = chain.cells.rbegin(); it != chain.cells.rend(); ++it) {
          out << (((sim.next_state(*it) >> lane) & 1) ? 'H' : 'L');
        }
        out << ";\n";
      }
      out << "  }\n}\n";
    }
  }
}

std::string write_stil_string(const Netlist& nl, const ScanPlan& plan,
                              const std::vector<TestCube>& patterns) {
  std::ostringstream ss;
  write_stil(nl, plan, patterns, ss);
  return ss.str();
}

}  // namespace aidft
