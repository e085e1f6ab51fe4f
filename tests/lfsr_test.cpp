#include "compress/lfsr.hpp"

#include <gtest/gtest.h>

#include "bist/lbist.hpp"
#include "compress/edt.hpp"
#include "compress/reseed.hpp"

namespace aidft {
namespace {

// An expression over the start state's bits, evaluated at `start`.
bool evaluate(const BitVec& expr, std::uint64_t start) {
  return __builtin_parityll(expr.words().front() & start);
}

TEST(Lfsr, StepIsInvertibleAtEveryWidth) {
  // The Galois step is invertible exactly when the feedback reaches the top
  // bit: step(1) is then the feedback word, top bit set. A fallback tap at
  // the top bit would cancel it and zero that bit after every step.
  for (std::uint64_t seed :
       {EdtConfig{}.seed, ReseedConfig{}.seed, LbistConfig{}.seed}) {
    for (std::size_t width = 8; width <= 64; ++width) {
      const LinearMachine machine(width, 0, 1, seed, 0);
      EXPECT_TRUE((machine.step(1) >> (width - 1)) & 1)
          << "width " << width << " seed " << seed;
    }
  }
}

TEST(Lfsr, SymbolicStepMatchesConcrete) {
  for (std::size_t width : {8, 16, 40, 48, 64}) {
    const LinearMachine machine(width, 0, 5, 0x5EED, 7);
    std::vector<BitVec> state(width, BitVec(width));
    for (std::size_t i = 0; i < width; ++i) state[i].set(i, true);
    Rng rng(width);
    const std::uint64_t start =
        width == 64 ? rng.next_u64() : rng.next_u64() & ((1ull << width) - 1);
    std::uint64_t concrete = start;
    for (int t = 0; t < 100; ++t) {
      machine.step(state);
      concrete = machine.step(concrete);
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(evaluate(state[i], start), (concrete >> i) & 1)
            << "width " << width << " step " << t << " bit " << i;
      }
      for (std::size_t out = 0; out < machine.num_outputs(); ++out) {
        EXPECT_EQ(evaluate(machine.output(state, out), start),
                  machine.output(concrete, out));
      }
    }
  }
}

}  // namespace
}  // namespace aidft
