#include "netlist/topology.hpp"

#include <algorithm>
#include <string>

#include "netlist/netlist.hpp"

namespace aidft {

Csr build_fanout_csr(const Netlist& netlist) {
  const std::size_t n = netlist.num_gates();
  Csr out;
  // Counting pass, prefix sum, then a fill pass that scans sinks in id order
  // so each row comes out ascending.
  out.offsets.assign(n + 1, 0);
  for (GateId id = 0; id < n; ++id) {
    for (GateId f : netlist.gate(id).fanin) {
      if (f < n) ++out.offsets[f + 1];
    }
  }
  for (std::size_t i = 1; i <= n; ++i) out.offsets[i] += out.offsets[i - 1];
  out.edges.resize(out.offsets[n]);
  std::vector<std::uint32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (GateId id = 0; id < n; ++id) {
    for (GateId f : netlist.gate(id).fanin) {
      if (f < n) out.edges[cursor[f]++] = id;
    }
  }
  return out;
}

Topology Topology::build(const Netlist& netlist) {
  const std::size_t n = netlist.num_gates();
  Topology t;
  t.types_.resize(n);
  std::size_t nedges = 0;
  for (GateId id = 0; id < n; ++id) {
    t.types_[id] = netlist.type(id);
    nedges += netlist.gate(id).fanin.size();
  }

  // Fanin CSR: edge order is exactly Gate::fanin (pin order matters to
  // every engine — MUX select, DFF D, fault pin indices).
  t.fanin_.offsets.resize(n + 1);
  t.fanin_.edges.reserve(nedges);
  for (GateId id = 0; id < n; ++id) {
    t.fanin_.offsets[id] = static_cast<std::uint32_t>(t.fanin_.edges.size());
    const auto& fanin = netlist.gate(id).fanin;
    t.fanin_.edges.insert(t.fanin_.edges.end(), fanin.begin(), fanin.end());
  }
  t.fanin_.offsets[n] = static_cast<std::uint32_t>(t.fanin_.edges.size());
  t.fanout_ = build_fanout_csr(netlist);

  // Kahn's algorithm over the combinational graph, with topo_ as the FIFO.
  // DFFs break cycles: a DFF is a source (its Q is available at time 0);
  // its D-input edge is not a topological dependency of the DFF itself.
  // FIFO order is level-sorted (all of level L is enqueued before any gate
  // of level L+1), which the per-level buckets below rely on.
  auto is_root = [&](GateId id) {
    return is_source(t.types_[id]) || is_state_element(t.types_[id]);
  };
  std::vector<std::uint32_t> pending(n, 0);
  t.topo_.reserve(n);
  for (GateId id = 0; id < n; ++id) {
    // Logic with no fanin is enqueued too (defensive; arity check forbids).
    if (!is_root(id)) {
      pending[id] = static_cast<std::uint32_t>(t.fanin_size(id));
    }
    if (pending[id] == 0) t.topo_.push_back(id);
  }
  t.levels_.assign(n, 0);
  for (std::size_t head = 0; head < t.topo_.size(); ++head) {
    const GateId id = t.topo_[head];
    if (!is_root(id)) {
      for (GateId f : t.fanin(id)) {
        t.levels_[id] = std::max(t.levels_[id], t.levels_[f] + 1);
      }
    }
    for (GateId s : t.fanout(id)) {
      if (is_state_element(t.types_[s])) continue;  // edge into DFF D pin
      AIDFT_ASSERT(pending[s] > 0, "topological bookkeeping broken");
      if (--pending[s] == 0) t.topo_.push_back(s);
    }
  }
  if (t.topo_.size() != n) {
    throw Error("netlist '" + netlist.name() +
                "' has a combinational cycle (or unreachable gate): sorted " +
                std::to_string(t.topo_.size()) + " of " + std::to_string(n) +
                " gates");
  }

  // Level buckets: the level-sorted topo order is the concatenation of the
  // buckets; verify and record the boundaries.
  t.num_levels_ = 0;
  for (std::uint32_t lvl : t.levels_) {
    t.num_levels_ = std::max(t.num_levels_, lvl + 1);
  }
  t.level_begin_.assign(t.num_levels_ + 1, 0);
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < t.topo_.size(); ++i) {
    const std::uint32_t lvl = t.levels_[t.topo_[i]];
    AIDFT_ASSERT(lvl >= prev, "topo order is not level-sorted");
    for (std::uint32_t l = prev; l < lvl; ++l) {
      t.level_begin_[l + 1] = static_cast<std::uint32_t>(i);
    }
    prev = lvl;
  }
  for (std::uint32_t l = prev; l < t.num_levels_; ++l) {
    t.level_begin_[l + 1] = static_cast<std::uint32_t>(t.topo_.size());
  }
  return t;
}

Topology Topology::replicate(const Topology& core, std::size_t n) {
  const std::size_t g = core.num_gates();
  // Ids run to n*g - 1 and must stay below kNoGate; offsets run to n*E.
  auto fits = [n](std::size_t per_copy, std::size_t limit) {
    return per_copy == 0 || n <= limit / per_copy;
  };
  AIDFT_REQUIRE(fits(g, kNoGate) &&
                    fits(core.fanin_.edges.size(), UINT32_MAX) &&
                    fits(core.fanout_.edges.size(), UINT32_MAX),
                "replicating " + std::to_string(g) + " gates x " +
                    std::to_string(n) +
                    " overflows 32-bit gate ids or edge offsets");

  auto tile_csr = [&](const Csr& c) {
    const std::size_t edges = c.edges.size();
    Csr out;
    out.offsets.reserve(n * g + 1);
    out.edges.reserve(n * edges);
    for (std::size_t i = 0; i < n; ++i) {
      const auto gate_base = static_cast<GateId>(i * g);
      const auto edge_base = static_cast<std::uint32_t>(i * edges);
      for (std::size_t k = 0; k < g; ++k) {
        out.offsets.push_back(edge_base + c.offsets[k]);
      }
      for (GateId e : c.edges) out.edges.push_back(gate_base + e);
    }
    out.offsets.push_back(static_cast<std::uint32_t>(n * edges));
    return out;
  };

  Topology t;
  t.types_.reserve(n * g);
  t.levels_.reserve(n * g);
  for (std::size_t i = 0; i < n; ++i) {
    t.types_.insert(t.types_.end(), core.types_.begin(), core.types_.end());
    t.levels_.insert(t.levels_.end(), core.levels_.begin(),
                     core.levels_.end());
  }
  t.fanin_ = tile_csr(core.fanin_);
  t.fanout_ = tile_csr(core.fanout_);
  t.num_levels_ = core.num_levels_;
  t.topo_.reserve(n * g);
  t.level_begin_.reserve(core.level_begin_.size());
  for (std::uint32_t lvl = 0; lvl < core.num_levels_; ++lvl) {
    t.level_begin_.push_back(static_cast<std::uint32_t>(t.topo_.size()));
    const std::span<const GateId> bucket = core.level_gates(lvl);
    for (std::size_t i = 0; i < n; ++i) {
      const auto gate_base = static_cast<GateId>(i * g);
      for (GateId id : bucket) t.topo_.push_back(gate_base + id);
    }
  }
  t.level_begin_.push_back(static_cast<std::uint32_t>(t.topo_.size()));
  return t;
}

std::size_t Topology::bytes() const {
  auto csr_bytes = [](const Csr& c) {
    return c.offsets.capacity() * sizeof(std::uint32_t) +
           c.edges.capacity() * sizeof(GateId);
  };
  return types_.capacity() * sizeof(GateType) +
         levels_.capacity() * sizeof(std::uint32_t) + csr_bytes(fanin_) +
         csr_bytes(fanout_) + topo_.capacity() * sizeof(GateId) +
         level_begin_.capacity() * sizeof(std::uint32_t);
}

}  // namespace aidft
