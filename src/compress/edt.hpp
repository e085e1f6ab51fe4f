// EDT-style embedded deterministic test compression.
//
// Stimulus side: a ring-generator LFSR seeded at zero receives `channels`
// fresh bits per shift cycle (the compressed stimulus), and a phase-shifter
// XOR network taps its state to feed every scan chain in parallel (the
// injecting configuration of the LinearMachine in compress/lfsr.hpp). Because
// the whole structure is linear over GF(2), each scan cell's loaded value is
// a known XOR of the injected channel bits; encoding a test cube is solving
// that linear system for the cube's care bits (Gaussian elimination). The
// don't-care cells come out pseudo-random for free — exactly the classic
// EDT argument for why compression barely costs coverage. Encoding a span
// of loads steps the symbolic decompressor once for all of them.
//
// Response side: a spatial XOR compactor folds chain c into output channel
// c % outs each unload cycle. It has no class of its own: the compressed
// session (compress/session.hpp) maps each observe point to the compactor
// output bit it reaches and grades a fault from the points it fails.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "compress/lfsr.hpp"
#include "sim/pattern.hpp"

namespace aidft {

struct EdtConfig {
  std::size_t lfsr_bits = 32;
  std::size_t channels = 2;        // compressed stimulus bits per shift cycle
  std::uint64_t seed = 0x0ED72019; // derives taps, injectors, phase shifter
};

class EdtCodec {
 public:
  EdtCodec(const EdtConfig& config, std::size_t num_chains,
           std::size_t chain_len);

  /// Solves for a channel-input stream delivering every care bit of
  /// `chain_load` ([chain][cell position], Val3, X = free). Returns one
  /// BitVec per channel, each warmup_cycles()+chain_len bits (bit t = value
  /// injected at shift cycle t, warm-up first); nullopt when the care bits
  /// exceed the linear capacity.
  std::optional<std::vector<BitVec>> encode(const ChainLoad& chain_load) const;
  /// encode() of every load in one symbolic sweep of the decompressor
  /// (LinearMachine::solve): element k is encode(*loads[k]). The equations
  /// of all loads are held at once, so a caller bounds their number.
  std::vector<std::optional<std::vector<BitVec>>> encode(
      std::span<const ChainLoad* const> loads) const;

  /// Runs the concrete decompressor on a channel stream; returns the fully
  /// specified chain fill it delivers ([chain][cell position]).
  std::vector<std::vector<bool>> decompress(
      const std::vector<BitVec>& stream) const;

  /// Scan cells loaded per pattern / compressed bits fed per pattern
  /// (including warm-up injections).
  double compression_ratio() const;

  /// Shift cycles before chain filling starts, used to charge the LFSR with
  /// enough injected variables that even the first-loaded (deepest) cells
  /// have rich linear expressions. Without warm-up, cells loaded in cycle 0
  /// depend on at most `channels` variables and most cubes are unencodable.
  std::size_t warmup_cycles() const { return warmup_; }
  /// Channel bits consumed per pattern: channels * (warmup + chain_len).
  std::size_t bits_per_pattern() const {
    return machine_.num_injectors() * (warmup_ + chain_len_);
  }

 private:
  LinearMachine machine_;  // one injector per channel, one output per chain
  std::size_t chain_len_;
  std::size_t warmup_ = 0;
};

}  // namespace aidft
