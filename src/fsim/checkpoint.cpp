#include "fsim/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/error.hpp"

namespace aidft {
namespace {

constexpr char kMagic[8] = {'A', 'I', 'D', 'F', 'T', 'C', 'K', 'P'};

// FNV-1a over the serialized payload. Not cryptographic — it exists to turn
// a truncated or bit-flipped checkpoint into a clear Error instead of a
// silently wrong resume.
class Checksum {
 public:
  void feed(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

class Writer {
 public:
  Writer(std::FILE* f, const std::string& path) : f_(f), path_(path) {}

  void raw(const void* data, std::size_t n) {
    AIDFT_REQUIRE(std::fwrite(data, 1, n, f_) == n,
                  "checkpoint: short write to " + path_);
  }
  void u32(std::uint32_t v) { sum_.feed(&v, sizeof v); raw(&v, sizeof v); }
  void u64(std::uint64_t v) { sum_.feed(&v, sizeof v); raw(&v, sizeof v); }
  void i64(std::int64_t v) { sum_.feed(&v, sizeof v); raw(&v, sizeof v); }
  std::uint64_t checksum() const { return sum_.value(); }

 private:
  std::FILE* f_;
  const std::string& path_;
  Checksum sum_;
};

class Reader {
 public:
  Reader(std::FILE* f, const std::string& path) : f_(f), path_(path) {}

  void raw(void* data, std::size_t n) {
    AIDFT_REQUIRE(std::fread(data, 1, n, f_) == n,
                  "checkpoint: truncated file " + path_);
  }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); sum_.feed(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); sum_.feed(&v, sizeof v); return v; }
  std::int64_t i64() { std::int64_t v; raw(&v, sizeof v); sum_.feed(&v, sizeof v); return v; }
  std::uint64_t checksum() const { return sum_.value(); }

 private:
  std::FILE* f_;
  const std::string& path_;
  Checksum sum_;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

void save_campaign_checkpoint(const CampaignCheckpoint& ckpt,
                              const std::string& path) {
  AIDFT_REQUIRE(ckpt.first_detected_by.size() == ckpt.total_faults &&
                    (ckpt.hits.empty() ||
                     ckpt.hits.size() == ckpt.total_faults) &&
                    ckpt.dropped.size() == (ckpt.total_faults + 63) / 64,
                "checkpoint: inconsistent state vectors");
  const std::string tmp = path + ".tmp";
  File f(std::fopen(tmp.c_str(), "wb"));
  AIDFT_REQUIRE(f != nullptr, "checkpoint: cannot open " + tmp + " for write");
  {
    Writer w(f.get(), tmp);
    w.raw(kMagic, sizeof kMagic);
    w.u32(CampaignCheckpoint::kVersion);
    w.u64(ckpt.drop_limit);
    w.u64(ckpt.total_faults);
    w.u64(ckpt.total_patterns);
    w.u64(ckpt.batches_done);
    for (std::int64_t v : ckpt.first_detected_by) w.i64(v);
    for (std::uint64_t f = 0; f < ckpt.total_faults; ++f) {
      w.u64(ckpt.hits.empty() ? 0 : ckpt.hits[f]);
    }
    for (std::uint64_t v : ckpt.dropped) w.u64(v);
    const std::uint64_t sum = w.checksum();
    w.raw(&sum, sizeof sum);
  }
  AIDFT_REQUIRE(std::fflush(f.get()) == 0, "checkpoint: flush failed for " + tmp);
  f.reset();
  AIDFT_REQUIRE(std::rename(tmp.c_str(), path.c_str()) == 0,
                "checkpoint: rename " + tmp + " -> " + path + " failed");
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  File f(std::fopen(path.c_str(), "rb"));
  AIDFT_REQUIRE(f != nullptr, "checkpoint: cannot open " + path);
  Reader r(f.get(), path);
  char magic[8];
  r.raw(magic, sizeof magic);
  AIDFT_REQUIRE(std::memcmp(magic, kMagic, sizeof kMagic) == 0,
                "checkpoint: " + path + " is not an aidft campaign checkpoint");
  CampaignCheckpoint ckpt;
  const std::uint32_t version = r.u32();
  AIDFT_REQUIRE(version == CampaignCheckpoint::kVersion,
                "checkpoint: " + path + " has unsupported version " +
                    std::to_string(version) + " (expected " +
                    std::to_string(CampaignCheckpoint::kVersion) + ")");
  ckpt.drop_limit = r.u64();
  ckpt.total_faults = r.u64();
  ckpt.total_patterns = r.u64();
  ckpt.batches_done = r.u64();
  // Refuse absurd sizes before allocating (a corrupt header must not OOM).
  AIDFT_REQUIRE(ckpt.total_faults < (1ull << 40) &&
                    ckpt.total_patterns < (1ull << 40),
                "checkpoint: " + path + " has an implausible header");
  ckpt.first_detected_by.resize(ckpt.total_faults);
  ckpt.hits.resize(ckpt.total_faults);
  ckpt.dropped.resize((ckpt.total_faults + 63) / 64);
  for (auto& v : ckpt.first_detected_by) v = r.i64();
  for (auto& v : ckpt.hits) v = r.u64();
  for (auto& v : ckpt.dropped) v = r.u64();
  const std::uint64_t expected = r.checksum();
  std::uint64_t stored = 0;
  r.raw(&stored, sizeof stored);
  AIDFT_REQUIRE(stored == expected,
                "checkpoint: " + path + " failed checksum (corrupt file)");
  // A well-formed checksum does not make the state consistent: a detecting
  // pattern indexes the pattern stream, and a drop bit past the last fault
  // would retire a fault that does not exist.
  for (std::int64_t v : ckpt.first_detected_by) {
    AIDFT_REQUIRE(v >= -1 && v < static_cast<std::int64_t>(ckpt.total_patterns),
                  "checkpoint: " + path + " records a detecting pattern " +
                      std::to_string(v) + " outside the " +
                      std::to_string(ckpt.total_patterns) + "-pattern stream");
  }
  if (ckpt.total_faults % 64 != 0) {
    AIDFT_REQUIRE((ckpt.dropped.back() >> (ckpt.total_faults % 64)) == 0,
                  "checkpoint: " + path + " drops faults past its " +
                      std::to_string(ckpt.total_faults) + " faults");
  }
  return ckpt;
}

}  // namespace aidft
