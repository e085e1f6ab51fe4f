#include "compress/edt.hpp"

#include <utility>

#include "common/error.hpp"

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
    const ChainLoad& chain_load) const {
  const ChainLoad* const load = &chain_load;
  return std::move(encode({&load, 1}).front());
}

std::vector<std::optional<std::vector<BitVec>>> EdtCodec::encode(
    std::span<const ChainLoad* const> loads) const {
  const std::size_t channels = machine_.num_injectors();
  const std::size_t total_cycles = warmup_ + chain_len_;
  // Starts from zero: every variable is an injected channel bit.
  const auto solutions = machine_.solve(
      std::vector<BitVec>(machine_.bits(), BitVec(channels * total_cycles)),
      warmup_, chain_len_, loads);
  std::vector<std::optional<std::vector<BitVec>>> out;
  out.reserve(solutions.size());
  for (const std::optional<BitVec>& solution : solutions) {
    if (!solution) {
      out.emplace_back();
      continue;
    }
    std::vector<BitVec> streams(channels, BitVec(total_cycles));
    for (std::size_t t = 0; t < total_cycles; ++t) {
      for (std::size_t ch = 0; ch < channels; ++ch) {
        streams[ch].set(t, solution->get(t * channels + ch));
      }
    }
    out.emplace_back(std::move(streams));
  }
  return out;
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

}  // namespace aidft
