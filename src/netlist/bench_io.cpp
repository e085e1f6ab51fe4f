#include "netlist/bench_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

namespace aidft {
namespace {

std::string upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::toupper(c)); });
  return s;
}

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<GateType> parse_type(const std::string& kw) {
  static const std::unordered_map<std::string, GateType> map = {
      {"AND", GateType::kAnd},     {"NAND", GateType::kNand},
      {"OR", GateType::kOr},       {"NOR", GateType::kNor},
      {"XOR", GateType::kXor},     {"XNOR", GateType::kXnor},
      {"NOT", GateType::kNot},     {"INV", GateType::kNot},
      {"BUF", GateType::kBuf},     {"BUFF", GateType::kBuf},
      {"MUX", GateType::kMux},     {"DFF", GateType::kDff},
      {"CONST0", GateType::kConst0}, {"CONST1", GateType::kConst1},
  };
  auto it = map.find(kw);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

struct PendingGate {
  std::string name;
  GateType type;
  std::vector<std::string> fanin_names;
  int line;
};

// Echo of offending input for error messages, capped and made printable so
// a multi-megabyte or binary line cannot blow up the exception text.
std::string excerpt(const std::string& s) {
  constexpr std::size_t kMax = 80;
  std::string out = s.substr(0, std::min(kMax, s.size()));
  for (char& c : out) {
    if (!std::isprint(static_cast<unsigned char>(c))) c = '?';
  }
  if (s.size() > kMax) out += "...";
  return out;
}

[[noreturn]] void fail(const std::string& file, int line,
                       const std::string& msg) {
  throw Error(file + ":" + std::to_string(line) + ": " + msg);
}

}  // namespace

Netlist read_bench(std::istream& in, std::string circuit_name) {
  // Every parse error carries `<src>:<line>` — the file path when coming
  // from read_bench_file, the circuit name otherwise.
  const std::string src = circuit_name;
  std::vector<std::pair<std::string, int>> input_names;   // name, line
  std::vector<std::pair<std::string, int>> output_names;  // name, line
  std::vector<PendingGate> defs;

  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line = raw;
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    line = strip(line);
    if (line.empty()) continue;

    const std::string uline = upper(line);
    auto paren_arg = [&](std::size_t kw_len) -> std::string {
      const std::size_t open = line.find('(', kw_len);
      const std::size_t close = line.rfind(')');
      if (open == std::string::npos || close == std::string::npos ||
          close <= open) {
        fail(src, line_no, "malformed declaration: " + excerpt(raw));
      }
      return strip(line.substr(open + 1, close - open - 1));
    };

    if (uline.rfind("INPUT", 0) == 0 && uline.find('=') == std::string::npos) {
      input_names.emplace_back(paren_arg(5), line_no);
      continue;
    }
    if (uline.rfind("OUTPUT", 0) == 0 && uline.find('=') == std::string::npos) {
      output_names.emplace_back(paren_arg(6), line_no);
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(src, line_no, "expected '=': " + excerpt(raw));
    }
    PendingGate pg;
    pg.name = strip(line.substr(0, eq));
    pg.line = line_no;
    if (pg.name.empty()) {
      fail(src, line_no, "missing signal name before '=': " + excerpt(raw));
    }
    std::string rhs = strip(line.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      fail(src, line_no, "expected TYPE(args): " + excerpt(raw));
    }
    const std::string kw = upper(strip(rhs.substr(0, open)));
    const auto type = parse_type(kw);
    if (!type) fail(src, line_no, "unknown gate type '" + excerpt(kw) + "'");
    pg.type = *type;
    std::string args = rhs.substr(open + 1, close - open - 1);
    std::stringstream ss(args);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      tok = strip(tok);
      if (!tok.empty()) pg.fanin_names.push_back(tok);
    }
    defs.push_back(std::move(pg));
  }

  Netlist netlist(std::move(circuit_name));
  std::unordered_map<std::string, GateId> ids;
  for (const auto& [name, line] : input_names) {
    if (ids.count(name)) fail(src, line, "duplicate INPUT " + excerpt(name));
    ids.emplace(name, netlist.add_input(name));
  }
  for (const auto& pg : defs) {
    if (ids.count(pg.name)) {
      fail(src, pg.line, "duplicate signal " + excerpt(pg.name));
    }
    ids.emplace(pg.name, netlist.add_gate(pg.type, pg.name));
  }
  for (const auto& pg : defs) {
    const GateId sink = ids.at(pg.name);
    for (const auto& fn : pg.fanin_names) {
      if (fn == pg.name) {
        fail(src, pg.line,
             "recursive definition: '" + excerpt(fn) + "' feeds itself");
      }
      auto it = ids.find(fn);
      if (it == ids.end()) {
        fail(src, pg.line, "undefined signal '" + excerpt(fn) + "'");
      }
      netlist.connect(it->second, sink);
    }
  }
  for (const auto& [name, line] : output_names) {
    auto it = ids.find(name);
    if (it == ids.end()) {
      fail(src, line, "OUTPUT of undefined signal '" + excerpt(name) + "'");
    }
    netlist.add_output(it->second, "out_" + name);
  }
  // Structural defects only finalize() can see (multi-gate combinational
  // cycles, arity violations) get the file context attached here.
  try {
    netlist.finalize();
  } catch (const Error& e) {
    throw Error(src + ": " + e.what());
  }
  return netlist;
}

Netlist read_bench_string(const std::string& text, std::string circuit_name) {
  std::istringstream ss(text);
  return read_bench(ss, std::move(circuit_name));
}

Netlist read_bench_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot open .bench file: " + path);
  return read_bench(f, path);
}

void write_bench(const Netlist& netlist, std::ostream& out) {
  AIDFT_REQUIRE(netlist.finalized(), "write_bench requires a finalized netlist");
  auto sig_name = [&](GateId id) {
    const std::string& name = netlist.name_of(id);
    return name.empty() ? "n" + std::to_string(id) : name;
  };
  const Topology& t = netlist.topology();
  out << "# circuit: " << netlist.name() << "\n";
  for (GateId id : netlist.inputs()) out << "INPUT(" << sig_name(id) << ")\n";
  for (GateId id : netlist.outputs()) {
    out << "OUTPUT(" << sig_name(t.fanin0(id)) << ")\n";
  }
  for (GateId id : t.topo_order()) {
    const GateType type = t.type(id);
    if (type == GateType::kInput || type == GateType::kOutput) continue;
    out << sig_name(id) << " = " << to_string(type) << "(";
    const std::span<const GateId> fanin = t.fanin(id);
    for (std::size_t i = 0; i < fanin.size(); ++i) {
      if (i) out << ", ";
      out << sig_name(fanin[i]);
    }
    out << ")\n";
  }
}

std::string write_bench_string(const Netlist& netlist) {
  std::ostringstream ss;
  write_bench(netlist, ss);
  return ss.str();
}

}  // namespace aidft
