#include "diag/dictionary.hpp"

#include <algorithm>

#include "fsim/campaign.hpp"

namespace aidft {

FaultDictionary::FaultDictionary(const Netlist& nl,
                                 const std::vector<Fault>& faults,
                                 const std::vector<TestCube>& patterns)
    : npatterns_(patterns.size()),
      words_per_sig_((patterns.size() + 63) / 64),
      signatures_(faults.size(),
                  std::vector<std::uint64_t>((patterns.size() + 63) / 64, 0)) {
  run_campaign(nl, faults, patterns, {.drop_limit = 0},
               [&](std::size_t fault, std::size_t batch, std::uint64_t mask) {
                 signatures_[fault][batch] = mask;
                 return false;
               });
}

std::vector<std::uint64_t> FaultDictionary::signature_of(const FailLog& log) {
  std::vector<std::uint64_t> sig(log.blocks.size(), 0);
  for (std::size_t b = 0; b < log.blocks.size(); ++b) {
    for (std::uint64_t w : log.blocks[b]) sig[b] |= w;
  }
  return sig;
}

std::vector<FaultDictionary::Match> FaultDictionary::match(
    const std::vector<std::uint64_t>& signature, std::size_t top_k) const {
  AIDFT_REQUIRE(signature.size() == words_per_sig_,
                "signature width does not match the dictionary");
  std::vector<Match> all(signatures_.size());
  for (std::size_t fi = 0; fi < signatures_.size(); ++fi) {
    std::size_t d = 0;
    for (std::size_t w = 0; w < words_per_sig_; ++w) {
      d += static_cast<std::size_t>(
          __builtin_popcountll(signatures_[fi][w] ^ signature[w]));
    }
    all[fi] = Match{fi, d};
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Match& a, const Match& b) {
                     return a.hamming < b.hamming;
                   });
  if (all.size() > top_k) all.resize(top_k);
  return all;
}

}  // namespace aidft
