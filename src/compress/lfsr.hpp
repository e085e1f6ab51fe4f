// One linear machine behind every LFSR stimulus source.
//
// EDT, static LFSR reseeding (Könemann) and the STUMPS PRPG are the same
// hardware: an nbits Galois LFSR whose state feeds every scan chain through
// an XOR phase shifter (three state taps per chain). They differ only in
// how the LFSR is driven:
//   - EDT starts from zero, XORs one fresh channel bit into each injector
//     every cycle, and fills the chains after a warm-up;
//   - reseeding loads a seed and free-runs, with no injectors;
//   - the PRPG free-runs from a fixed seed, one step per scan cell.
// The machine is linear over GF(2), so running it on symbolic state (one
// expression over the free variables per state bit) makes every loaded cell
// a known XOR of those variables, and encoding a test cube is one GF(2)
// solve for the cube's care bits. That symbolic state does not depend on
// the cube, so one sweep of it over the warm-up and shift cycles serves a
// whole block of cubes: each cell's expression is formed once, when some
// cube of the block cares about it, and copied into the equations of every
// cube that does; each cube's equations are then solved on their own, in
// the order a lone cube would have made them.
//
// The MISR that LBIST compacts responses into is the same Galois step run
// the other way: every cycle it absorbs one response vector, input i
// flipping state bit i % nbits. It takes a 64-pattern batch per call: the
// observe words XOR-fold into nbits residue columns, a 64x64 transpose turns
// each block of 64 columns into one word per pattern, and each pattern is
// one multiword step s = (s >> 1) ^ (s & 1 ? poly : 0) ^ in.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "sim/pattern.hpp"

namespace aidft {

/// A scan load: [chain][cell position], X = free.
using ChainLoad = std::vector<std::vector<Val3>>;

/// `count` distinct values offset + rng.next_below(bound), in draw order.
std::vector<std::size_t> distinct_draws(Rng& rng, std::size_t count,
                                        std::size_t bound,
                                        std::size_t offset = 0);

class LinearMachine {
 public:
  /// An nbits LFSR whose feedback taps (exponents of the polynomial,
  /// excluding x^n and 1) come from a table for common widths, else are
  /// three distinct taps in [1, nbits-2] drawn from `tap_seed`. From
  /// Rng(draw_seed) it draws `injectors` distinct injector positions first,
  /// then three distinct phase-shifter taps for each of `outputs` outputs.
  LinearMachine(std::size_t nbits, std::size_t injectors, std::size_t outputs,
                std::uint64_t tap_seed, std::uint64_t draw_seed);

  std::size_t bits() const { return nbits_; }
  std::size_t num_injectors() const { return injectors_.size(); }
  std::size_t num_outputs() const { return ps_masks_.size(); }

  /// One Galois step (right-shift form): bit 0 falls off and, when set,
  /// feeds back into the top bit and every tap.
  std::uint64_t step(std::uint64_t state) const {
    return (state >> 1) ^ (feedback_ & (0 - (state & 1)));
  }
  /// Phase-shifter output `out`: the parity of its state taps.
  bool output(std::uint64_t state, std::size_t out) const {
    return __builtin_parityll(state & ps_masks_[out]);
  }

  /// The free-running outputs of 64 lanes at once, lane p from starts[p]:
  /// bit p of word t is output(s, t) after t + 1 steps of that lane, for
  /// every output t (a lane at the all-zero state reads 0 throughout).
  std::vector<std::uint64_t> lane_outputs(
      const std::uint64_t (&starts)[64]) const;

  /// step() on symbolic state, in place.
  void step(std::vector<BitVec>& state) const;
  /// output() on symbolic state.
  BitVec output(const std::vector<BitVec>& state, std::size_t out) const;

  /// Runs warmup + chain_len steps from `state`. After step t, injector i
  /// takes bit t of streams[i] (no streams: free-running); from step
  /// `warmup` on, output c loads cell chain_len-1-(t-warmup) of chain c.
  std::vector<std::vector<bool>> fill(std::uint64_t state, std::size_t warmup,
                                      std::size_t chain_len,
                                      const std::vector<BitVec>& streams) const;

  /// For each load of `loads` (chains of at most chain_len cells), the
  /// variable assignment under which fill() delivers every care bit of the
  /// load, or nullopt in its place when its care bits are inconsistent.
  /// Free variables come out 0. `state` holds the start state as
  /// expressions over the variables; with injectors, variable
  /// t * num_injectors() + i is the bit injector i takes after step t. One
  /// symbolic sweep serves every load, and the equations of all of them are
  /// held at once, so a caller bounds their number.
  std::vector<std::optional<BitVec>> solve(
      std::vector<BitVec> state, std::size_t warmup, std::size_t chain_len,
      std::span<const ChainLoad* const> loads) const;

 private:
  std::size_t nbits_;
  std::uint64_t feedback_ = 0;  // top bit and taps, XORed in on feedback
  std::vector<std::size_t> injectors_;
  std::vector<std::uint64_t> ps_masks_;  // per output: its state taps
};

/// Multiple-input signature register over GF(2) (Galois form).
class Misr {
 public:
  explicit Misr(std::size_t bits, std::uint64_t poly_seed = 0x315F);

  void reset() { state_.assign(state_.size(), 0); }
  /// Absorbs `lanes` <= 64 cycles of parallel response bits in lane order:
  /// words[i] bit p is input i of cycle p (bits above `lanes` are ignored).
  /// Any number of inputs; inputs beyond `bits` wrap around.
  void absorb(std::span<const std::uint64_t> words, std::size_t lanes);
  /// Absorbs one cycle: absorb() with one lane.
  void shift_in(const std::vector<bool>& bits_in);
  /// Current signature, packed LSB-first.
  std::vector<std::uint64_t> signature() const { return state_; }
  std::size_t bits() const { return nbits_; }

 private:
  struct Block {
    std::uint64_t w[64];
  };

  std::size_t nbits_;
  std::vector<std::uint64_t> poly_;  // top bit and taps, XORed on feedback
  std::vector<std::uint64_t> state_;
  std::vector<Block> cols_;  // absorb() scratch: 64 residue columns a block
};

}  // namespace aidft
