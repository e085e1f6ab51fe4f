// Static LFSR reseeding compression (Könemann 1991).
//
// Each test cube is encoded as a single LFSR seed: the tester loads
// lfsr_bits, the LFSR free-runs for chain_len cycles feeding the chains
// through a phase shifter, and linearity makes every scan cell an XOR of
// seed bits — so encoding is again GF(2) solving, but the variable budget
// is FIXED at lfsr_bits per pattern regardless of chain length. The classic
// rule of thumb follows directly: a cube with s care bits encodes with
// probability ~1 - 2^(s - lfsr_bits), so the LFSR must be sized to the
// *maximum* care density while EDT's per-cycle injection scales with the
// average — the comparison benchmark E17 measures exactly that difference.
// The hardware is the seeded, free-running configuration of the
// LinearMachine in compress/lfsr.hpp.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitvec.hpp"
#include "compress/lfsr.hpp"
#include "sim/pattern.hpp"

namespace aidft {

struct ReseedConfig {
  std::size_t lfsr_bits = 64;
  std::uint64_t seed = 0x5EED;  // derives taps and phase shifter
};

class ReseedCodec {
 public:
  ReseedCodec(const ReseedConfig& config, std::size_t num_chains,
              std::size_t chain_len);

  /// Solves for the seed delivering every care bit of `chain_load`
  /// ([chain][cell], X = free); nullopt when the care bits exceed the
  /// seed's linear capacity.
  std::optional<BitVec> encode(const ChainLoad& chain_load) const;

  /// Expands a seed into the fully specified chain fill.
  std::vector<std::vector<bool>> expand(const BitVec& seed) const;

  std::size_t bits_per_pattern() const { return machine_.bits(); }
  double compression_ratio() const {
    return static_cast<double>(machine_.num_outputs() * chain_len_) /
           static_cast<double>(machine_.bits());
  }

 private:
  LinearMachine machine_;  // no injectors, one output per chain
  std::size_t chain_len_;
};

}  // namespace aidft
