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
    if (n == 0) return;  // an empty vector's data() may be null
    AIDFT_REQUIRE(std::fwrite(data, 1, n, f_) == n,
                  "checkpoint: short write to " + path_);
  }
  void u32(std::uint32_t v) { sum_.feed(&v, sizeof v); raw(&v, sizeof v); }
  void u64(std::uint64_t v) { sum_.feed(&v, sizeof v); raw(&v, sizeof v); }
  void u64s(const std::vector<std::uint64_t>& v) {
    sum_.feed(v.data(), v.size() * sizeof(std::uint64_t));
    raw(v.data(), v.size() * sizeof(std::uint64_t));
  }
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
    if (n == 0) return;  // an empty vector's data() may be null
    AIDFT_REQUIRE(std::fread(data, 1, n, f_) == n,
                  "checkpoint: truncated file " + path_);
  }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); sum_.feed(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); sum_.feed(&v, sizeof v); return v; }
  std::vector<std::uint64_t> u64s(std::uint64_t n) {
    std::vector<std::uint64_t> v(n);
    raw(v.data(), v.size() * sizeof(std::uint64_t));
    sum_.feed(v.data(), v.size() * sizeof(std::uint64_t));
    return v;
  }
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

std::uint64_t words_for(std::uint64_t faults) { return (faults + 63) / 64; }

// Hit counts are stored only under n-detect.
std::uint64_t hit_words(std::uint64_t drop_limit, std::uint64_t faults) {
  return drop_limit > 1 ? faults : 0;
}

// The bytes a file with this header holds: magic, version, the four header
// words, both bitmaps, the per-pattern counts, the hits and the checksum.
std::uint64_t file_bytes(const CampaignCheckpoint& h) {
  return sizeof kMagic + sizeof(std::uint32_t) +
         8 * (4 + 2 * words_for(h.total_faults) + h.total_patterns +
              hit_words(h.drop_limit, h.total_faults) + 1);
}

// A bitmap of `faults` bits must leave its last word's padding clear.
bool padding_clear(const std::vector<std::uint64_t>& bits,
                   std::uint64_t faults) {
  return faults % 64 == 0 || (bits.back() >> (faults % 64)) == 0;
}

}  // namespace

void save_campaign_checkpoint(const CampaignCheckpoint& ckpt,
                              const std::string& path) {
  AIDFT_REQUIRE(ckpt.detected.size() == words_for(ckpt.total_faults) &&
                    ckpt.first_detections.size() == ckpt.total_patterns &&
                    ckpt.hits.size() ==
                        hit_words(ckpt.drop_limit, ckpt.total_faults) &&
                    ckpt.dropped.size() == words_for(ckpt.total_faults),
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
    w.u64s(ckpt.detected);
    w.u64s(ckpt.first_detections);
    w.u64s(ckpt.hits);
    w.u64s(ckpt.dropped);
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
  // Bound the header so the size arithmetic below cannot overflow, then
  // hold it to the file's real size before allocating anything: a corrupt
  // or truncated header must not allocate what the file does not hold.
  AIDFT_REQUIRE(ckpt.total_faults < (1ull << 40) &&
                    ckpt.total_patterns < (1ull << 40),
                "checkpoint: " + path + " has an implausible header");
  const long header_end = std::ftell(f.get());
  AIDFT_REQUIRE(header_end >= 0 && std::fseek(f.get(), 0, SEEK_END) == 0,
                "checkpoint: cannot seek in " + path);
  const long size = std::ftell(f.get());
  AIDFT_REQUIRE(size >= 0 && std::fseek(f.get(), header_end, SEEK_SET) == 0,
                "checkpoint: cannot seek in " + path);
  const std::uint64_t expected_size = file_bytes(ckpt);
  AIDFT_REQUIRE(static_cast<std::uint64_t>(size) == expected_size,
                "checkpoint: " + path + " holds " + std::to_string(size) +
                    " bytes where its header implies " +
                    std::to_string(expected_size));
  ckpt.detected = r.u64s(words_for(ckpt.total_faults));
  ckpt.first_detections = r.u64s(ckpt.total_patterns);
  ckpt.hits = r.u64s(hit_words(ckpt.drop_limit, ckpt.total_faults));
  ckpt.dropped = r.u64s(words_for(ckpt.total_faults));
  const std::uint64_t expected = r.checksum();
  std::uint64_t stored = 0;
  r.raw(&stored, sizeof stored);
  AIDFT_REQUIRE(stored == expected,
                "checkpoint: " + path + " failed checksum (corrupt file)");
  // A well-formed checksum does not make the state consistent: a bit past
  // the last fault would detect or retire a fault that does not exist, and
  // every detected fault is the first detection of exactly one pattern.
  AIDFT_REQUIRE(padding_clear(ckpt.detected, ckpt.total_faults),
                "checkpoint: " + path + " detects faults past its " +
                    std::to_string(ckpt.total_faults) + " faults");
  AIDFT_REQUIRE(padding_clear(ckpt.dropped, ckpt.total_faults),
                "checkpoint: " + path + " drops faults past its " +
                    std::to_string(ckpt.total_faults) + " faults");
  std::uint64_t uncounted = 0;
  for (std::uint64_t w : ckpt.detected) {
    uncounted += static_cast<std::uint64_t>(__builtin_popcountll(w));
  }
  for (std::uint64_t n : ckpt.first_detections) {
    AIDFT_REQUIRE(n <= uncounted, "checkpoint: " + path +
                                      " counts more first detections than "
                                      "detected faults");
    uncounted -= n;
  }
  AIDFT_REQUIRE(uncounted == 0, "checkpoint: " + path +
                                    " counts fewer first detections than "
                                    "detected faults");
  return ckpt;
}

}  // namespace aidft
