#include "compress/reseed.hpp"

#include <utility>

#include "common/error.hpp"

namespace aidft {

ReseedCodec::ReseedCodec(const ReseedConfig& config, std::size_t num_chains,
                         std::size_t chain_len)
    : machine_(config.lfsr_bits, 0, num_chains, config.seed, config.seed),
      chain_len_(chain_len) {
  AIDFT_REQUIRE(num_chains >= 1 && chain_len >= 1, "need chains and cells");
}

std::optional<BitVec> ReseedCodec::encode(
    const std::vector<std::vector<Val3>>& chain_load) const {
  // Starts from the seed: state bit i is seed variable i.
  std::vector<BitVec> state(machine_.bits(), BitVec(machine_.bits()));
  for (std::size_t i = 0; i < state.size(); ++i) state[i].set(i, true);
  const ChainLoad* const load = &chain_load;
  return std::move(machine_.solve(std::move(state), 0, chain_len_, {&load, 1})
                       .front());
}

std::vector<std::vector<bool>> ReseedCodec::expand(const BitVec& seed) const {
  AIDFT_REQUIRE(seed.size() == machine_.bits(), "expand: seed width");
  return machine_.fill(seed.words().front(), 0, chain_len_, {});
}

}  // namespace aidft
