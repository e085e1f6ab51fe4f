#include "sim/parallel_sim.hpp"

#include <algorithm>

namespace aidft {

PatternBatch pack_patterns(const std::vector<TestCube>& cubes,
                           std::size_t first, std::size_t count) {
  AIDFT_REQUIRE(count >= 1 && count <= 64, "pack_patterns: count in [1,64]");
  AIDFT_REQUIRE(first + count <= cubes.size(), "pack_patterns: range overflow");
  const std::size_t width = cubes[first].size();
  PatternBatch batch;
  batch.npatterns = count;
  batch.words.assign(width, 0);
  for (std::size_t p = 0; p < count; ++p) {
    const TestCube& cube = cubes[first + p];
    AIDFT_REQUIRE(cube.size() == width, "pack_patterns: ragged cube widths");
    // Branch-free: the loop's cost does not depend on the bits it packs.
    for (std::size_t i = 0; i < width; ++i) {
      batch.words[i] |= std::uint64_t{cube.bits[i] == Val3::kOne} << p;
    }
  }
  return batch;
}

std::vector<TestCube> random_patterns(std::size_t ninputs, std::size_t count,
                                      Rng& rng) {
  std::vector<TestCube> v(count, TestCube(ninputs));
  for (auto& cube : v) cube.random_fill(rng);
  return v;
}

ParallelSimulator::ParallelSimulator(const Netlist& netlist)
    : netlist_(&netlist), tile_(netlist.num_gates()) {
  AIDFT_REQUIRE(netlist.finalized(), "simulator requires finalized netlist");
  topo_ = &netlist.topology();
  // A replica's level bucket is the core's bucket repeated instance by
  // instance, so instance 0's gates are each bucket's first 1/n.
  if (netlist.replicas() > 1) {
    for (std::uint32_t lvl = 0; lvl < topo_->num_levels(); ++lvl) {
      instance_level_size_.push_back(static_cast<std::uint32_t>(
          topo_->level_gates(lvl).size() / netlist.replicas()));
    }
  }
}

bool ParallelSimulator::broadcast(const PatternBatch& batch) const {
  const std::size_t n = netlist_->replicas();
  if (n < 2) return false;
  // combinational_inputs() of a replica: every instance's PIs, instance
  // by instance, then every instance's flops the same way.
  auto same_in_every_instance = [n](const std::uint64_t* block,
                                    std::size_t width) {
    for (std::size_t i = 1; i < n; ++i) {
      if (!std::equal(block, block + width, block + i * width)) return false;
    }
    return true;
  };
  const std::size_t pis = netlist_->inputs().size() / n;
  const std::size_t ffs = netlist_->dffs().size() / n;
  return same_in_every_instance(batch.words.data(), pis) &&
         same_in_every_instance(batch.words.data() + n * pis, ffs);
}

void ParallelSimulator::simulate(const PatternBatch& batch) {
  const Netlist& nl = *netlist_;
  AIDFT_REQUIRE(batch.words.size() == nl.num_combinational_inputs(),
                "batch width != combinational input count");
  const Topology& t = *topo_;
  const bool tiled = broadcast(batch);
  const std::size_t tile =
      tiled ? t.num_gates() / netlist_->replicas() : t.num_gates();
  tile_ = tile;
  values_.resize(tile);
  for (std::size_t i = 0; i < batch.words.size(); ++i) {
    const GateId g = nl.combinational_input(i);
    if (g < tile) values_[g] = batch.words[i];
  }
  if (t.num_levels() == 0) return;
  auto tile_gates = [&](std::uint32_t lvl) {
    const std::span<const GateId> bucket = t.level_gates(lvl);
    return tiled ? bucket.first(instance_level_size_[lvl]) : bucket;
  };
  // Level 0 holds exactly the sources and DFFs: constants get their words,
  // inputs and DFF loads were set above.
  for (GateId id : tile_gates(0)) {
    if (t.type(id) == GateType::kConst0) values_[id] = 0;
    if (t.type(id) == GateType::kConst1) values_[id] = ~0ull;
  }
  // Levels >= 1 are pure logic: contiguous CSR sweep, no per-gate dispatch
  // on source/state kinds.
  for (std::uint32_t lvl = 1; lvl < t.num_levels(); ++lvl) {
    for (GateId id : tile_gates(lvl)) {
      const std::span<const GateId> fin = t.fanin(id);
      values_[id] = eval_gate_words(
          t.type(id), fin.size(),
          [&](std::size_t i) { return values_[fin[i]]; });
    }
  }
}

std::vector<std::uint64_t> ParallelSimulator::observed_response() const {
  std::vector<std::uint64_t> out;
  const Netlist& nl = *netlist_;
  out.reserve(nl.num_observe_points());
  for (std::size_t i = 0; i < nl.num_observe_points(); ++i) {
    out.push_back(value(nl.observed_gate(nl.observe_point(i))));
  }
  return out;
}

}  // namespace aidft
