#include "compress/edt.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aidft {
namespace {

// `count` distinct values offset + rng.next_below(bound), in draw order.
std::vector<std::size_t> distinct_draws(Rng& rng, std::size_t count,
                                        std::size_t bound,
                                        std::size_t offset = 0) {
  std::vector<std::size_t> out;
  while (out.size() < count) {
    const std::size_t v = offset + rng.next_below(bound);
    if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
  }
  return out;
}

// Feedback tap positions (exponents of the polynomial, excluding x^n and 1)
// for common widths; primitive or near-primitive — what matters for
// encoding is the rank of the resulting linear map, which these give.
std::vector<std::size_t> feedback_taps(std::size_t nbits, std::uint64_t seed) {
  switch (nbits) {
    case 16: return {12, 3, 1};
    case 24: return {7, 2, 1};
    case 32: return {22, 2, 1};
    case 48: return {28, 3, 2};
    case 64: return {4, 3, 1};
    default: {
      // Deterministic fallback: three distinct taps from the seed.
      Rng rng(seed ^ 0xFEEDBACC);
      return distinct_draws(rng, 3, nbits - 1, 1);
    }
  }
}

}  // namespace

EdtCodec::EdtCodec(const EdtConfig& config, std::size_t num_chains,
                   std::size_t chain_len)
    : config_(config),
      num_chains_(num_chains),
      chain_len_(chain_len),
      warmup_((config.lfsr_bits + config.channels - 1) / config.channels) {
  AIDFT_REQUIRE(config.lfsr_bits >= 8 && config.lfsr_bits <= 64,
                "lfsr_bits in [8,64]");
  AIDFT_REQUIRE(config.channels >= 1 && config.channels <= config.lfsr_bits,
                "channels in [1, lfsr_bits]");
  AIDFT_REQUIRE(num_chains >= 1 && chain_len >= 1, "need chains and cells");
  taps_ = feedback_taps(config.lfsr_bits, config.seed);

  Rng rng(config.seed);
  // Injector positions: spread deterministically, distinct.
  injectors_ = distinct_draws(rng, config.channels, config.lfsr_bits);
  // Phase shifter: 3 distinct taps per chain (classic EDT uses small XORs).
  ps_taps_.resize(num_chains);
  for (auto& taps : ps_taps_) {
    taps = distinct_draws(rng, std::min<std::size_t>(3, config.lfsr_bits),
                          config.lfsr_bits);
  }
}

double EdtCodec::compression_ratio() const {
  return static_cast<double>(num_chains_ * chain_len_) /
         static_cast<double>(bits_per_pattern());
}

std::optional<std::vector<BitVec>> EdtCodec::encode(
    const std::vector<std::vector<Val3>>& chain_load) const {
  AIDFT_REQUIRE(chain_load.size() == num_chains_, "encode: chain count");
  const std::size_t total_cycles = warmup_ + chain_len_;
  const std::size_t nvars = config_.channels * total_cycles;

  // Symbolic LFSR state: one BitVec (over the injected variables) per bit.
  std::vector<BitVec> state(config_.lfsr_bits, BitVec(nvars));
  // Rows of the linear system, with right-hand sides.
  std::vector<BitVec> rows;
  std::vector<bool> rhs;

  for (std::size_t t = 0; t < total_cycles; ++t) {
    // Advance (Galois, right-shift form): feedback = bit 0.
    BitVec feedback = state[0];
    for (std::size_t i = 0; i + 1 < state.size(); ++i) {
      state[i] = state[i + 1];
    }
    state.back() = feedback;
    for (std::size_t tap : taps_) state[tap] ^= feedback;
    // Inject this cycle's channel variables.
    for (std::size_t ch = 0; ch < config_.channels; ++ch) {
      state[injectors_[ch]].flip(t * config_.channels + ch);
    }
    if (t < warmup_) continue;  // charging the LFSR, chains not filling yet
    const std::size_t shift = t - warmup_;
    // Chain inputs this cycle land at cell position (len-1-shift).
    for (std::size_t c = 0; c < num_chains_; ++c) {
      const auto& load = chain_load[c];
      const std::size_t len = load.size();
      AIDFT_REQUIRE(len <= chain_len_, "encode: chain longer than codec");
      const std::size_t shifts_remaining = chain_len_ - 1 - shift;
      if (shifts_remaining >= len) continue;  // pad bit, falls off the end
      const std::size_t pos = shifts_remaining;
      if (load[pos] == Val3::kX) continue;
      BitVec expr(nvars);
      for (std::size_t tap : ps_taps_[c]) expr ^= state[tap];
      rows.push_back(std::move(expr));
      rhs.push_back(load[pos] == Val3::kOne);
    }
  }

  // Gaussian elimination over GF(2).
  std::vector<std::size_t> pivot_col;
  std::size_t r = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    // Reduce row i by existing pivots.
    for (std::size_t k = 0; k < r; ++k) {
      if (rows[i].get(pivot_col[k])) {
        rows[i] ^= rows[k];
        rhs[i] = rhs[i] ^ rhs[k];
      }
    }
    const std::size_t col = rows[i].find_first();
    if (col == nvars) {
      if (rhs[i]) return std::nullopt;  // 0 = 1: unencodable cube
      continue;
    }
    // After the swap, row r is the new pivot row.
    std::swap(rows[i], rows[r]);
    rhs.swap(rhs[i], rhs[r]);
    pivot_col.push_back(col);
    // Eliminate this column from earlier pivot rows to reach reduced form.
    for (std::size_t k = 0; k < r; ++k) {
      if (rows[k].get(col)) {
        rows[k] ^= rows[r];
        rhs[k] = rhs[k] ^ rhs[r];
      }
    }
    ++r;
  }

  // Free variables 0; pivots get their reduced RHS.
  std::vector<bool> solution(nvars, false);
  for (std::size_t k = 0; k < r; ++k) solution[pivot_col[k]] = rhs[k];

  std::vector<BitVec> streams(config_.channels, BitVec(total_cycles));
  for (std::size_t t = 0; t < total_cycles; ++t) {
    for (std::size_t ch = 0; ch < config_.channels; ++ch) {
      streams[ch].set(t, solution[t * config_.channels + ch]);
    }
  }
  return streams;
}

std::vector<std::vector<bool>> EdtCodec::decompress(
    const std::vector<BitVec>& stream) const {
  AIDFT_REQUIRE(stream.size() == config_.channels, "decompress: channel count");
  const std::size_t total_cycles = warmup_ + chain_len_;
  for (const auto& s : stream) {
    AIDFT_REQUIRE(s.size() == total_cycles, "decompress: stream length");
  }
  std::uint64_t state = 0;
  const std::uint64_t msb = 1ull << (config_.lfsr_bits - 1);
  std::vector<std::vector<bool>> chains(num_chains_,
                                        std::vector<bool>(chain_len_, false));
  for (std::size_t t = 0; t < total_cycles; ++t) {
    // Advance (same order as the symbolic model).
    const bool feedback = state & 1ull;
    state >>= 1;
    if (feedback) {
      state |= msb;
      for (std::size_t tap : taps_) state ^= (1ull << tap);
    }
    for (std::size_t ch = 0; ch < config_.channels; ++ch) {
      if (stream[ch].get(t)) state ^= (1ull << injectors_[ch]);
    }
    if (t < warmup_) continue;
    const std::size_t shift = t - warmup_;
    for (std::size_t c = 0; c < num_chains_; ++c) {
      bool bit = false;
      for (std::size_t tap : ps_taps_[c]) bit ^= (state >> tap) & 1ull;
      chains[c][chain_len_ - 1 - shift] = bit;
    }
  }
  return chains;
}

XorCompactor::XorCompactor(std::size_t num_chains, std::size_t out_channels) {
  AIDFT_REQUIRE(out_channels >= 1, "compactor needs an output channel");
  groups_.resize(std::min(out_channels, num_chains));
  for (std::size_t c = 0; c < num_chains; ++c) {
    groups_[c % groups_.size()].push_back(c);
  }
}

std::vector<bool> XorCompactor::compact(const std::vector<bool>& chain_bits) const {
  std::vector<bool> out(groups_.size(), false);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    bool v = false;
    for (std::size_t c : groups_[g]) {
      AIDFT_REQUIRE(c < chain_bits.size(), "compact: chain bits too short");
      v ^= chain_bits[c];
    }
    out[g] = v;
  }
  return out;
}

bool XorCompactor::visible(const std::vector<bool>& chain_diffs) const {
  for (const auto& group : groups_) {
    bool parity = false;
    for (std::size_t c : group) {
      if (c < chain_diffs.size()) parity ^= chain_diffs[c];
    }
    if (parity) return true;
  }
  return false;
}

std::uint64_t XorCompactor::visible_lanes(
    std::span<const std::uint64_t> chain_diffs) const {
  std::uint64_t lanes = 0;
  for (const auto& group : groups_) {
    std::uint64_t parity = 0;
    for (std::size_t c : group) {
      if (c < chain_diffs.size()) parity ^= chain_diffs[c];
    }
    lanes |= parity;
  }
  return lanes;
}

Misr::Misr(std::size_t bits, std::uint64_t poly_seed) : nbits_(bits) {
  AIDFT_REQUIRE(bits >= 4, "MISR needs >= 4 bits");
  Rng rng(poly_seed);
  taps_ = distinct_draws(rng, 3, bits - 1, 1);
  state_.assign((bits + 63) / 64, 0);
}

void Misr::shift_in(const std::vector<bool>& bits_in) {
  // Galois step on the multiword state.
  const bool feedback = state_[0] & 1ull;
  // Right shift by one across words.
  for (std::size_t w = 0; w + 1 < state_.size(); ++w) {
    state_[w] = (state_[w] >> 1) | (state_[w + 1] << 63);
  }
  state_.back() >>= 1;
  auto flip = [&](std::size_t pos) { state_[pos >> 6] ^= 1ull << (pos & 63); };
  if (feedback) {
    flip(nbits_ - 1);
    for (std::size_t t : taps_) flip(t);
  }
  for (std::size_t i = 0; i < bits_in.size(); ++i) {
    if (bits_in[i]) flip(i % nbits_);
  }
}

}  // namespace aidft
