// Golden structural digests of the netlist builders. Each digest is FNV-1a
// over every gate's (type, name, fanin list) plus the topological order and
// every level of the finalized result, so any change to gate ids, names, pin
// order, topo order or levelisation in a generator or a netlist rewrite
// (SoC replication, compare trees, core wrapper, scan insertion, test
// points) shows up as a changed value. The constants are the values of the
// reference implementation; a refactor of the IR must reproduce them.
#include <gtest/gtest.h>

#include <cstdint>

#include "aichip/soc.hpp"
#include "aichip/wrapper.hpp"
#include "bench_circuits/generators.hpp"
#include "bist/test_points.hpp"
#include "scan/scan.hpp"

namespace aidft {
namespace {

class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  void u32(std::uint32_t v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest(const Netlist& nl) {
  Fnv1a h;
  h.u32(static_cast<std::uint32_t>(nl.num_gates()));
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    h.u32(static_cast<std::uint32_t>(nl.type(id)));
    const std::string name = nl.name_of(id);
    h.u32(static_cast<std::uint32_t>(name.size()));
    h.bytes(name.data(), name.size());
    const auto& fanin = nl.gate(id).fanin;
    h.u32(static_cast<std::uint32_t>(fanin.size()));
    for (GateId f : fanin) h.u32(f);
  }
  for (GateId id : nl.topo_order()) h.u32(id);
  for (GateId id = 0; id < nl.num_gates(); ++id) {
    h.u32(nl.topology().level(id));
  }
  return h.value();
}

Netlist core() { return circuits::make_mac(4, true); }

TEST(StructuralDigest, Generators) {
  EXPECT_EQ(digest(circuits::make_alu(8)), 0xfb53760cd087620full);
  EXPECT_EQ(digest(circuits::make_random_logic(12, 400, 0xD16E57)),
            0xf27cb75428b1ceceull);
}

TEST(StructuralDigest, ReplicatedSoc) {
  EXPECT_EQ(digest(aichip::make_replicated_soc(core(), 3).netlist),
            0xe8f461257c9f4f90ull);
  EXPECT_EQ(digest(aichip::make_replicated_soc_with_compare(core(), 3).netlist),
            0x30353178ae312e74ull);
}

TEST(StructuralDigest, CoreWrapper) {
  EXPECT_EQ(digest(aichip::insert_core_wrapper(core()).netlist),
            0x1aa0e8552b0edeffull);
}

TEST(StructuralDigest, ScanInsertion) {
  const Netlist nl = core();
  EXPECT_EQ(digest(insert_scan(nl, plan_scan_chains(nl, 3)).netlist),
            0x5f02e04ee9e973d5ull);
}

TEST(StructuralDigest, TestPoints) {
  const Netlist nl = circuits::make_alu(8);
  // The first logic gates in id order: two observe taps, then one control
  // splice of each polarity.
  std::vector<GateId> logic;
  for (GateId id = 0; id < nl.num_gates() && logic.size() < 4; ++id) {
    if (!is_source(nl.type(id)) && nl.type(id) != GateType::kOutput) {
      logic.push_back(id);
    }
  }
  ASSERT_EQ(logic.size(), 4u);
  TestPointPlan plan;
  plan.observe = {logic[0], logic[1]};
  plan.control = {{logic[2], true}, {logic[3], false}};
  EXPECT_EQ(digest(apply_test_points(nl, plan)), 0xcc0264d57aa28704ull);
}

}  // namespace
}  // namespace aidft
