#include "sim/parallel_sim.hpp"

#include <algorithm>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace aidft {
namespace {

// Row of `n` <= 64 Val3 bytes: bit k set when byte k is a 1. Bytes that
// are X set their bit in `x`.
std::uint64_t row_of(const std::uint8_t* bytes, std::size_t n,
                     std::uint64_t& x) {
  static_assert(sizeof(Val3) == 1);
  std::uint64_t ones = 0;
  std::size_t k = 0;
#if defined(__SSE2__)
  // 16 bytes per load, never past byte n: one compare each against 1 and
  // X, and movemask gathers the 16 results into 16 bits.
  const __m128i one = _mm_set1_epi8(static_cast<char>(Val3::kOne));
  const __m128i unknown = _mm_set1_epi8(static_cast<char>(Val3::kX));
  for (; k + 16 <= n; k += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + k));
    ones |= std::uint64_t{static_cast<std::uint16_t>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(v, one)))}
            << k;
    x |= std::uint64_t{static_cast<std::uint16_t>(
             _mm_movemask_epi8(_mm_cmpeq_epi8(v, unknown)))}
         << k;
  }
#endif
  // The tail on SSE2, every byte elsewhere.
  for (; k < n; ++k) {
    ones |= std::uint64_t{bytes[k] == static_cast<std::uint8_t>(Val3::kOne)}
            << k;
    x |= std::uint64_t{bytes[k] == static_cast<std::uint8_t>(Val3::kX)} << k;
  }
  return ones;
}

// Packs `count` <= 64 cubes, each batch.words.size() wide, into `batch`
// (X as 0). Returns the OR of their X rows: nonzero when any holds an X.
std::uint64_t pack_into(const TestCube* cubes, std::size_t count,
                        PatternBatch& batch) {
  const std::size_t width = batch.words.size();
  batch.npatterns = count;
  std::uint64_t x = 0;
  for (std::size_t col = 0; col < width; col += 64) {
    const std::size_t n = std::min<std::size_t>(64, width - col);
    std::uint64_t rows[64] = {};  // rows past `count` stay 0
    for (std::size_t p = 0; p < count; ++p) {
      rows[p] = row_of(
          reinterpret_cast<const std::uint8_t*>(cubes[p].bits.data()) + col,
          n, x);
    }
    transpose64(rows);
    std::copy(rows, rows + n, batch.words.begin() + col);
  }
  return x;
}

}  // namespace

// Swaps the off-diagonal 32x32 blocks, then the 16x16 blocks inside each,
// and so on down to single bits.
void transpose64(std::uint64_t (&a)[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

PatternBatch pack_patterns(const std::vector<TestCube>& cubes,
                           std::size_t first, std::size_t count) {
  AIDFT_REQUIRE(count >= 1 && count <= 64, "pack_patterns: count in [1,64]");
  AIDFT_REQUIRE(first + count <= cubes.size(), "pack_patterns: range overflow");
  const std::size_t width = cubes[first].size();
  for (std::size_t p = 1; p < count; ++p) {
    AIDFT_REQUIRE(cubes[first + p].size() == width,
                  "pack_patterns: ragged cube widths");
  }
  PatternBatch batch;
  batch.words.resize(width);
  pack_into(cubes.data() + first, count, batch);
  return batch;
}

PackedPatterns::PackedPatterns(const std::vector<TestCube>& cubes)
    : count(cubes.size()) {
  if (cubes.empty()) return;
  width = cubes.front().size();
  for (const TestCube& cube : cubes) {
    if (cube.size() != width) {
      width = kRagged;
      return;
    }
  }
  batches.resize((count + 63) / 64);
  std::uint64_t x = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batches[b].words.resize(width);
    x |= pack_into(cubes.data() + 64 * b,
                   std::min<std::size_t>(64, count - 64 * b), batches[b]);
  }
  has_x = x != 0;
}

PatternBatch launch_batch(const PackedPatterns& patterns, std::size_t b) {
  PatternBatch launch = patterns.batches[b];
  // The lane carried into lane 0: lane 63 of the batch before, or pattern
  // 0 itself.
  const std::vector<std::uint64_t>& carry =
      patterns.batches[b == 0 ? 0 : b - 1].words;
  const unsigned carry_lane = b == 0 ? 0 : 63;
  for (std::size_t i = 0; i < launch.words.size(); ++i) {
    launch.words[i] = (launch.words[i] << 1) | ((carry[i] >> carry_lane) & 1);
  }
  return launch;
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
