#include "compress/edt.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aidft {

EdtCodec::EdtCodec(const EdtConfig& config, std::size_t num_chains,
                   std::size_t chain_len)
    : machine_(config.lfsr_bits, config.channels, num_chains,
               config.seed, config.seed),
      chain_len_(chain_len) {
  AIDFT_REQUIRE(config.channels >= 1, "channels in [1, lfsr_bits]");
  AIDFT_REQUIRE(num_chains >= 1 && chain_len >= 1, "need chains and cells");
  warmup_ = (config.lfsr_bits + config.channels - 1) / config.channels;
}

double EdtCodec::compression_ratio() const {
  return static_cast<double>(machine_.num_outputs() * chain_len_) /
         static_cast<double>(bits_per_pattern());
}

std::optional<std::vector<BitVec>> EdtCodec::encode(
    const std::vector<std::vector<Val3>>& chain_load) const {
  const std::size_t channels = machine_.num_injectors();
  const std::size_t total_cycles = warmup_ + chain_len_;
  // Starts from zero: every variable is an injected channel bit.
  const auto solution = machine_.solve(
      std::vector<BitVec>(machine_.bits(), BitVec(channels * total_cycles)),
      warmup_, chain_len_, chain_load);
  if (!solution) return std::nullopt;
  std::vector<BitVec> streams(channels, BitVec(total_cycles));
  for (std::size_t t = 0; t < total_cycles; ++t) {
    for (std::size_t ch = 0; ch < channels; ++ch) {
      streams[ch].set(t, solution->get(t * channels + ch));
    }
  }
  return streams;
}

std::vector<std::vector<bool>> EdtCodec::decompress(
    const std::vector<BitVec>& stream) const {
  AIDFT_REQUIRE(stream.size() == machine_.num_injectors(),
                "decompress: channel count");
  for (const auto& s : stream) {
    AIDFT_REQUIRE(s.size() == warmup_ + chain_len_,
                  "decompress: stream length");
  }
  return machine_.fill(0, warmup_, chain_len_, stream);
}

Misr::Misr(std::size_t bits, std::uint64_t poly_seed) : nbits_(bits) {
  AIDFT_REQUIRE(bits >= 4, "MISR needs >= 4 bits");
  Rng rng(poly_seed);
  // Taps come from [1, bits - 2]: the feedback also flips the top bit, and
  // a tap there would cancel it, making the step singular. A draw of
  // bits - 1 is rejected like a repeat, so every width whose draws miss the
  // top bit keeps its taps; at 4 bits only two taps fit.
  const std::size_t count = std::min<std::size_t>(3, bits - 2);
  while (taps_.size() < count) {
    const std::size_t t = 1 + rng.next_below(bits - 1);
    const bool repeat = std::find(taps_.begin(), taps_.end(), t) != taps_.end();
    if (t != bits - 1 && !repeat) taps_.push_back(t);
  }
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
