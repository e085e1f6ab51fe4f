#include "aichip/soc.hpp"

#include <algorithm>
#include <string>

namespace aidft::aichip {

std::size_t SocNetlist::comb_index(std::size_t inst, std::size_t k) const {
  AIDFT_ASSERT(inst < num_instances, "instance out of range");
  AIDFT_ASSERT(k < core_pis + core_ffs, "core input index out of range");
  if (k < core_pis) return inst * core_pis + k;
  // Flop pseudo-inputs come after all instances' primary inputs.
  return num_instances * core_pis + inst * core_ffs + (k - core_pis);
}

SocNetlist make_replicated_soc(const Netlist& core, std::size_t n) {
  SocNetlist soc;
  // Instance-major tiling keeps every instance's PIs and flops contiguous
  // and in core order, which is what comb_index() assumes.
  soc.netlist = Netlist::replicate(core, n);
  soc.num_instances = n;
  soc.core_pis = core.inputs().size();
  soc.core_ffs = core.dffs().size();
  return soc;
}

TestCube broadcast_cube(const SocNetlist& soc, const TestCube& core_cube) {
  AIDFT_REQUIRE(core_cube.size() == soc.core_pis + soc.core_ffs,
                "core cube width mismatch");
  TestCube out(soc.num_instances * core_cube.size());
  for (std::size_t inst = 0; inst < soc.num_instances; ++inst) {
    for (std::size_t k = 0; k < core_cube.size(); ++k) {
      out.bits[soc.comb_index(inst, k)] = core_cube.bits[k];
    }
  }
  return out;
}

PackedPatterns broadcast_patterns(const SocNetlist& soc,
                                  const PackedPatterns& core) {
  const std::size_t n = soc.num_instances;
  const std::size_t pis = soc.core_pis;
  const std::size_t ffs = soc.core_ffs;
  PackedPatterns out;
  out.count = core.count;
  out.has_x = core.has_x;
  if (core.count == 0) return out;
  AIDFT_REQUIRE(core.width == pis + ffs, "core cube width mismatch");
  out.width = n * core.width;
  out.batches.resize(core.batches.size());
  for (std::size_t b = 0; b < core.batches.size(); ++b) {
    const std::uint64_t* in = core.batches[b].words.data();
    PatternBatch& tiled = out.batches[b];
    tiled.npatterns = core.batches[b].npatterns;
    tiled.words.resize(out.width);
    // comb_index() order: instance i's PIs start at i * pis, its flops
    // after every instance's PIs, at n * pis + i * ffs.
    std::uint64_t* flops = tiled.words.data() + n * pis;
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(in, in + pis, tiled.words.data() + i * pis);
      std::copy(in + pis, in + pis + ffs, flops + i * ffs);
    }
  }
  return out;
}

std::vector<Fault> lift_faults(const SocNetlist& soc,
                               std::span<const Fault> core_faults) {
  const std::size_t n = soc.num_instances;
  AIDFT_REQUIRE(n >= 1 && soc.netlist.replicas() == n,
                "lift_faults needs a make_replicated_soc() SoC");
  const std::size_t g = soc.netlist.num_gates() / n;
  for (const Fault& f : core_faults) {
    AIDFT_REQUIRE(f.gate < g, "lift_faults: core fault on gate " +
                                  std::to_string(f.gate) +
                                  " outside the core's " + std::to_string(g) +
                                  " gates");
  }
  std::vector<Fault> out;
  out.reserve(n * core_faults.size());
  for (std::size_t i = 0; i < n; ++i) {
    const auto base = static_cast<GateId>(i * g);
    for (Fault f : core_faults) {
      f.gate += base;
      out.push_back(f);
    }
  }
  return out;
}

}  // namespace aidft::aichip
