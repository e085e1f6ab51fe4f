#include "compress/lfsr.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace aidft {
namespace {

// The care-bit equations of one load: row i is the `stride` words
// [i * stride, (i + 1) * stride) over the variables, rhs[i] its value.
struct Equations {
  std::vector<std::uint64_t> rows;
  std::vector<std::uint8_t> rhs;
};

// Gauss–Jordan elimination over GF(2) in row order: each row is reduced by
// the pivots so far, becomes a pivot at its lowest remaining column, and
// clears that column from the earlier pivot rows. Free variables are 0.
std::optional<BitVec> solve_gf2(Equations& eq, std::size_t nvars) {
  const std::size_t stride = (nvars + 63) / 64;
  auto row = [&](std::size_t i) { return eq.rows.data() + i * stride; };
  auto has = [](const std::uint64_t* r, std::size_t col) {
    return (r[col >> 6] >> (col & 63)) & 1;
  };
  auto add = [&](std::size_t dst, std::size_t src) {
    std::uint64_t* d = row(dst);
    const std::uint64_t* s = row(src);
    for (std::size_t w = 0; w < stride; ++w) d[w] ^= s[w];
    eq.rhs[dst] ^= eq.rhs[src];
  };
  std::vector<std::size_t> pivot_col;
  std::size_t r = 0;
  for (std::size_t i = 0; i < eq.rhs.size(); ++i) {
    for (std::size_t k = 0; k < r; ++k) {
      if (has(row(i), pivot_col[k])) add(i, k);
    }
    const std::uint64_t* ri = row(i);
    std::size_t w = 0;
    while (w < stride && ri[w] == 0) ++w;
    if (w == stride) {
      if (eq.rhs[i]) return std::nullopt;  // 0 = 1: unencodable cube
      continue;
    }
    const std::size_t col = w * 64 + std::countr_zero(ri[w]);
    if (i != r) {
      std::swap_ranges(row(i), row(i) + stride, row(r));
      std::swap(eq.rhs[i], eq.rhs[r]);
    }
    pivot_col.push_back(col);
    for (std::size_t k = 0; k < r; ++k) {
      if (has(row(k), col)) add(k, r);
    }
    ++r;
  }
  BitVec solution(nvars);
  for (std::size_t k = 0; k < r; ++k) solution.set(pivot_col[k], eq.rhs[k]);
  return solution;
}

// Primitive or near-primitive polynomials; what matters for encoding is
// the rank of the resulting linear map, which these give.
std::vector<std::size_t> feedback_taps(std::size_t nbits, std::uint64_t seed) {
  switch (nbits) {
    case 16: return {12, 3, 1};
    case 24: return {7, 2, 1};
    case 32: return {22, 2, 1};
    case 48: return {28, 3, 2};
    case 64: return {4, 3, 1};
    default: {
      // A tap at nbits-1 would cancel the feedback into the top bit, which
      // then reads 0 after every step: the step loses a dimension.
      Rng rng(seed ^ 0xFEEDBACC);
      return distinct_draws(rng, 3, nbits - 2, 1);
    }
  }
}

}  // namespace

std::vector<std::size_t> distinct_draws(Rng& rng, std::size_t count,
                                        std::size_t bound,
                                        std::size_t offset) {
  std::vector<std::size_t> out;
  while (out.size() < count) {
    const std::size_t v = offset + rng.next_below(bound);
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

LinearMachine::LinearMachine(std::size_t nbits, std::size_t injectors,
                             std::size_t outputs, std::uint64_t tap_seed,
                             std::uint64_t draw_seed)
    : nbits_(nbits) {
  AIDFT_REQUIRE(nbits >= 8 && nbits <= 64, "LFSR width in [8,64]");
  AIDFT_REQUIRE(injectors <= nbits, "at most one injector per LFSR bit");
  feedback_ = 1ull << (nbits - 1);
  for (std::size_t tap : feedback_taps(nbits, tap_seed)) {
    feedback_ ^= 1ull << tap;
  }
  Rng rng(draw_seed);
  injectors_ = distinct_draws(rng, injectors, nbits);
  ps_masks_.reserve(outputs);
  for (std::size_t out = 0; out < outputs; ++out) {
    std::uint64_t mask = 0;
    for (std::size_t tap : distinct_draws(rng, 3, nbits)) mask |= 1ull << tap;
    ps_masks_.push_back(mask);
  }
}

std::vector<std::uint64_t> LinearMachine::lane_outputs(
    const std::uint64_t (&starts)[64]) const {
  // Bit-sliced: word b of `slice` holds state bit b of every lane. A step
  // moves word b + 1 to b and XORs the old word 0 into each feedback
  // position, so after step t state bit b is slice[t + b], and the window
  // slides one word a step instead of moving the words.
  std::uint64_t block[64];
  std::copy_n(starts, 64, block);
  transpose64(block);
  const std::size_t n = num_outputs();
  std::vector<std::uint64_t> slice(nbits_ + n, 0);
  std::copy_n(block, nbits_, slice.begin());
  std::vector<std::uint64_t> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    for (std::uint64_t f = feedback_; f != 0; f &= f - 1) {
      slice[t + 1 + __builtin_ctzll(f)] ^= slice[t];
    }
    for (std::uint64_t m = ps_masks_[t]; m != 0; m &= m - 1) {
      out[t] ^= slice[t + 1 + __builtin_ctzll(m)];
    }
  }
  return out;
}

void LinearMachine::step(std::vector<BitVec>& state) const {
  // The old bit 0 rotates to the top row; no tap is the top bit, so XORing
  // it into the tap rows never reads a row it writes.
  BitVec bit0 = std::move(state.front());
  std::move(state.begin() + 1, state.end(), state.begin());
  state.back() = std::move(bit0);
  const std::uint64_t taps = feedback_ ^ (1ull << (nbits_ - 1));
  for (std::uint64_t m = taps; m != 0; m &= m - 1) {
    state[static_cast<std::size_t>(__builtin_ctzll(m))] ^= state.back();
  }
}

BitVec LinearMachine::output(const std::vector<BitVec>& state,
                             std::size_t out) const {
  BitVec expr(state.front().size());
  for (std::uint64_t m = ps_masks_[out]; m != 0; m &= m - 1) {
    expr ^= state[static_cast<std::size_t>(__builtin_ctzll(m))];
  }
  return expr;
}

std::vector<std::vector<bool>> LinearMachine::fill(
    std::uint64_t state, std::size_t warmup, std::size_t chain_len,
    const std::vector<BitVec>& streams) const {
  std::vector<std::vector<bool>> chains(num_outputs(),
                                        std::vector<bool>(chain_len, false));
  for (std::size_t t = 0; t < warmup + chain_len; ++t) {
    state = step(state);
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].get(t)) state ^= 1ull << injectors_[i];
    }
    if (t < warmup) continue;
    const std::size_t pos = chain_len - 1 - (t - warmup);
    for (std::size_t c = 0; c < chains.size(); ++c) {
      chains[c][pos] = output(state, c);
    }
  }
  return chains;
}

std::vector<std::optional<BitVec>> LinearMachine::solve(
    std::vector<BitVec> state, std::size_t warmup, std::size_t chain_len,
    std::span<const ChainLoad* const> loads) const {
  const std::size_t chains = num_outputs();
  const std::size_t nloads = loads.size();
  if (nloads == 0) return {};
  // Per cell (position, chain): which loads care, one bit per load.
  const std::size_t mask_words = (nloads + 63) / 64;
  std::vector<std::uint64_t> cares(chain_len * chains * mask_words, 0);
  for (std::size_t k = 0; k < nloads; ++k) {
    const ChainLoad& chain_load = *loads[k];
    AIDFT_REQUIRE(chain_load.size() == chains, "encode: chain count");
    for (std::size_t c = 0; c < chains; ++c) {
      const std::vector<Val3>& load = chain_load[c];
      AIDFT_REQUIRE(load.size() <= chain_len, "encode: chain longer than codec");
      for (std::size_t pos = 0; pos < load.size(); ++pos) {
        if (load[pos] == Val3::kX) continue;
        cares[(pos * chains + c) * mask_words + k / 64] |= 1ull << (k % 64);
      }
    }
  }
  const std::size_t nvars = state.front().size();
  // One row per care bit, with its value as the right-hand side, in shift
  // order, chain by chain: the order a single load would make them in.
  std::vector<Equations> equations(nloads);
  for (std::size_t t = 0; t < warmup + chain_len; ++t) {
    step(state);
    for (std::size_t i = 0; i < injectors_.size(); ++i) {
      state[injectors_[i]].flip(t * injectors_.size() + i);
    }
    if (t < warmup) continue;
    // Past the end of a short chain, no load cares: a pad bit shifts out.
    const std::size_t pos = chain_len - 1 - (t - warmup);
    for (std::size_t c = 0; c < chains; ++c) {
      const std::uint64_t* care = &cares[(pos * chains + c) * mask_words];
      BitVec expr;
      for (std::size_t j = 0; j < mask_words; ++j) {
        for (std::uint64_t m = care[j]; m != 0; m &= m - 1) {
          const std::size_t k = j * 64 + std::countr_zero(m);
          if (expr.empty()) expr = output(state, c);
          Equations& eq = equations[k];
          eq.rows.insert(eq.rows.end(), expr.words().begin(), expr.words().end());
          eq.rhs.push_back((*loads[k])[c][pos] == Val3::kOne);
        }
      }
    }
  }
  std::vector<std::optional<BitVec>> solutions;
  solutions.reserve(nloads);
  for (Equations& eq : equations) solutions.push_back(solve_gf2(eq, nvars));
  return solutions;
}

Misr::Misr(std::size_t bits, std::uint64_t poly_seed)
    : nbits_(bits), poly_((bits + 63) / 64, 0), state_(poly_.size(), 0),
      cols_(poly_.size()) {
  AIDFT_REQUIRE(bits >= 4, "MISR needs >= 4 bits");
  auto set = [&](std::size_t pos) { poly_[pos >> 6] |= 1ull << (pos & 63); };
  set(bits - 1);
  Rng rng(poly_seed);
  // Taps come from [1, bits - 2]: the feedback also flips the top bit, and
  // a tap there would cancel it, making the step singular. A draw of
  // bits - 1 is rejected like a repeat, so every width whose draws miss the
  // top bit keeps its taps; at 4 bits only two taps fit.
  const std::size_t count = std::min<std::size_t>(3, bits - 2);
  for (std::size_t drawn = 0; drawn < count;) {
    const std::size_t t = 1 + rng.next_below(bits - 1);
    const bool repeat = (poly_[t >> 6] >> (t & 63)) & 1;
    if (t != bits - 1 && !repeat) {
      set(t);
      ++drawn;
    }
  }
}

void Misr::absorb(std::span<const std::uint64_t> words, std::size_t lanes) {
  AIDFT_REQUIRE(lanes <= 64, "MISR absorbs at most 64 lanes a call");
  // Residue column j is the XOR of every input i with i % nbits == j.
  cols_.assign(cols_.size(), Block{});
  for (std::size_t i = 0, j = 0; i < words.size(); ++i) {
    cols_[j >> 6].w[j & 63] ^= words[i];
    if (++j == nbits_) j = 0;
  }
  // Block k becomes one word per lane: w[p] holds state bits 64k.. of the
  // input that cycle p XORs in.
  for (Block& block : cols_) transpose64(block.w);
  const std::size_t nw = state_.size();
  for (std::size_t p = 0; p < lanes; ++p) {
    const std::uint64_t feedback = 0 - (state_[0] & 1);
    for (std::size_t k = 0; k + 1 < nw; ++k) {
      state_[k] = (state_[k] >> 1) ^ (state_[k + 1] << 63) ^
                  (poly_[k] & feedback) ^ cols_[k].w[p];
    }
    state_[nw - 1] =
        (state_[nw - 1] >> 1) ^ (poly_[nw - 1] & feedback) ^ cols_[nw - 1].w[p];
  }
}

void Misr::shift_in(const std::vector<bool>& bits_in) {
  std::vector<std::uint64_t> words(bits_in.begin(), bits_in.end());
  absorb(words, 1);
}

}  // namespace aidft
