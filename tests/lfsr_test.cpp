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

// The per-load solve that one symbolic sweep per block replaced, kept as its
// oracle: its own symbolic pass per load, one row per care bit in shift
// order, chain by chain, and Gauss–Jordan elimination on BitVec rows.
// `injectors` are the machine's injector positions.
std::optional<BitVec> per_load_solve(const LinearMachine& machine,
                                     const std::vector<std::size_t>& injectors,
                                     std::vector<BitVec> state,
                                     std::size_t warmup, std::size_t chain_len,
                                     const ChainLoad& chain_load) {
  const std::size_t nvars = state.front().size();
  std::vector<BitVec> rows;
  std::vector<bool> rhs;
  for (std::size_t t = 0; t < warmup + chain_len; ++t) {
    machine.step(state);
    for (std::size_t i = 0; i < injectors.size(); ++i) {
      state[injectors[i]].flip(t * injectors.size() + i);
    }
    if (t < warmup) continue;
    const std::size_t pos = chain_len - 1 - (t - warmup);
    for (std::size_t c = 0; c < chain_load.size(); ++c) {
      const auto& load = chain_load[c];
      if (pos >= load.size() || load[pos] == Val3::kX) continue;
      rows.push_back(machine.output(state, c));
      rhs.push_back(load[pos] == Val3::kOne);
    }
  }
  std::vector<std::size_t> pivot_col;
  std::size_t r = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t k = 0; k < r; ++k) {
      if (rows[i].get(pivot_col[k])) {
        rows[i] ^= rows[k];
        rhs[i] = rhs[i] ^ rhs[k];
      }
    }
    const std::size_t col = rows[i].find_first();
    if (col == nvars) {
      if (rhs[i]) return std::nullopt;
      continue;
    }
    std::swap(rows[i], rows[r]);
    rhs.swap(rhs[i], rhs[r]);
    pivot_col.push_back(col);
    for (std::size_t k = 0; k < r; ++k) {
      if (rows[k].get(col)) {
        rows[k] ^= rows[r];
        rhs[k] = rhs[k] ^ rhs[r];
      }
    }
    ++r;
  }
  BitVec solution(nvars);
  for (std::size_t k = 0; k < r; ++k) solution.set(pivot_col[k], rhs[k]);
  return solution;
}

// Loads over `chains` chains of at most chain_len cells: ragged lengths
// (chain 1 always empty), with every fifth load all X and every seventh
// fully specified at full length (more care bits than any machine here
// has variables: unencodable).
std::vector<ChainLoad> mixed_loads(std::size_t count, std::size_t chains,
                                   std::size_t chain_len, double care,
                                   Rng& rng) {
  std::vector<ChainLoad> loads(count, ChainLoad(chains));
  for (std::size_t k = 0; k < count; ++k) {
    for (std::size_t c = 0; c < chains; ++c) {
      const bool full = k % 7 == 3;
      const std::size_t len = c == 1               ? 0
                              : c == 0 || full ? chain_len
                                               : rng.next_below(chain_len + 1);
      for (std::size_t p = 0; p < len; ++p) {
        const bool cares = full || (k % 5 != 0 && rng.next_double() < care);
        loads[k][c].push_back(!cares              ? Val3::kX
                              : rng.next_bool() ? Val3::kOne
                                                : Val3::kZero);
      }
    }
  }
  return loads;
}

// The many-load solve against the per-load oracle, block by block, for an
// EDT machine (zero start, `channels` injectors) or, with no channels, a
// reseeding one (seed-variable start). Returns how many loads were
// unencodable.
std::size_t expect_blocks_match_oracle(std::size_t width, std::size_t channels,
                                       std::uint64_t seed) {
  constexpr std::size_t kChains = 8;
  constexpr std::size_t kChainLen = 24;
  const LinearMachine machine(width, channels, kChains, seed, seed);
  // The constructor draws the injector positions first.
  Rng draws(seed);
  const std::vector<std::size_t> injectors =
      distinct_draws(draws, channels, width);
  const std::size_t warmup = channels == 0 ? 0 : (width + channels - 1) / channels;
  const std::size_t nvars =
      channels == 0 ? width : channels * (warmup + kChainLen);
  std::vector<BitVec> start(width, BitVec(nvars));
  if (channels == 0) {
    for (std::size_t i = 0; i < width; ++i) start[i].set(i, true);
  }
  Rng rng(width * 131 + channels);
  std::size_t unencodable = 0;
  for (std::size_t block : {1, 63, 64, 65}) {
    const std::vector<ChainLoad> loads =
        mixed_loads(block, kChains, kChainLen, 0.05, rng);
    std::vector<const ChainLoad*> ptrs;
    for (const ChainLoad& load : loads) ptrs.push_back(&load);
    const std::vector<std::optional<BitVec>> got =
        machine.solve(start, warmup, kChainLen, ptrs);
    EXPECT_EQ(got.size(), block);
    for (std::size_t k = 0; k < loads.size() && k < got.size(); ++k) {
      const std::optional<BitVec> want = per_load_solve(
          machine, injectors, start, warmup, kChainLen, loads[k]);
      EXPECT_EQ(got[k], want) << "width " << width << " channels " << channels
                              << " block " << block << " load " << k;
      unencodable += !want.has_value();
    }
  }
  return unencodable;
}

TEST(ManyLoadSolve, EdtBlocksMatchPerLoadSolve) {
  for (std::size_t width : {16, 24, 32, 64}) {
    for (std::size_t channels = 1; channels <= 4; ++channels) {
      EXPECT_GT(expect_blocks_match_oracle(width, channels, EdtConfig{}.seed),
                0u)
          << "no unencodable load at width " << width;
    }
  }
}

TEST(ManyLoadSolve, ReseedBlocksMatchPerLoadSolve) {
  for (std::size_t width : {16, 24, 32, 64}) {
    EXPECT_GT(expect_blocks_match_oracle(width, 0, ReseedConfig{}.seed), 0u)
        << "no unencodable load at width " << width;
  }
}

TEST(ManyLoadSolve, NoLoadsNoSolutions) {
  const LinearMachine machine(32, 2, 4, 1, 1);
  EXPECT_TRUE(machine.solve(std::vector<BitVec>(32, BitVec(8)), 2, 2, {})
                  .empty());
}

TEST(ManyLoadSolve, CodecBlocksMatchSingleLoads) {
  // EdtCodec and ReseedCodec: a block's element k is the lone encode of load
  // k, and the decompressor delivers its care bits.
  constexpr std::size_t kChains = 5, kChainLen = 30;
  const EdtCodec edt(EdtConfig{}, kChains, kChainLen);
  const ReseedCodec reseed(ReseedConfig{}, kChains, kChainLen);
  Rng rng(99);
  const std::vector<ChainLoad> loads =
      mixed_loads(70, kChains, kChainLen, 0.04, rng);
  std::vector<const ChainLoad*> ptrs;
  for (const ChainLoad& load : loads) ptrs.push_back(&load);
  const auto block = edt.encode(ptrs);
  ASSERT_EQ(block.size(), loads.size());
  std::size_t delivered = 0;
  for (std::size_t k = 0; k < loads.size(); ++k) {
    EXPECT_EQ(block[k], edt.encode(loads[k])) << "load " << k;
    if (!block[k]) continue;
    const auto fill = edt.decompress(*block[k]);
    for (std::size_t c = 0; c < kChains; ++c) {
      for (std::size_t p = 0; p < loads[k][c].size(); ++p) {
        const Val3 want = loads[k][c][p];
        if (want == Val3::kX) continue;
        ASSERT_EQ(fill[c][p], want == Val3::kOne) << "load " << k;
      }
    }
    ++delivered;
    const auto seed = reseed.encode(loads[k]);
    if (seed) {
      EXPECT_EQ(reseed.expand(*seed).size(), kChains);
    }
  }
  EXPECT_GT(delivered, loads.size() / 2);
}

}  // namespace
}  // namespace aidft
