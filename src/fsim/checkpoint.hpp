// Campaign checkpoint/resume state.
//
// A CampaignCheckpoint is a snapshot of everything a fault campaign needs to
// continue after an interruption: how many 64-pattern batches every fault
// has been graded against (`batches_done`, always a round barrier — see
// campaign.cpp), plus the detection state (detected bitmap, first
// detections per pattern, detection hit counts under n-detect, drop bitmap).
// Because a fault's detection history depends only on the fault and the
// pattern stream, resuming from a checkpoint and regrading the remaining
// batches produces a CampaignResult bit-identical to the uninterrupted run —
// for every thread count, and even when the snapshot carries partial
// progress past `batches_done` (a first detection sets its bit and counts
// toward its pattern once, and a set bit is never counted again; extra
// detection hits can only drop a fault *earlier*, which never changes
// recorded results).
//
// On-disk format (version 2, little-endian, host-endianness asserted):
//   8 bytes  magic "AIDFTCKP"
//   u32      version
//   u64      drop_limit, total_faults, total_patterns, batches_done
//   u64[ceil(total_faults/64)]     detected bitmap (bit f = fault f detected)
//   u64[total_patterns]            first detections per pattern
//   u64[total_faults]              hits, only when drop_limit > 1
//   u64[ceil(total_faults/64)]     dropped bitmap (bit f = fault f retired)
//   u64      FNV-1a checksum of everything after the magic
// The header fixes the file's size, which the loader checks before it
// allocates anything. Loaders accept exactly their own version and reject
// any other with aidft::Error rather than guessing: version 1 (an 8-byte
// first detecting pattern and a hit count per fault) has no reader, and a
// campaign interrupted under it restarts. Saves are atomic (write to
// "<path>.tmp", then rename).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace aidft {

struct CampaignCheckpoint {
  static constexpr std::uint32_t kVersion = 2;

  /// Campaign configuration the state is only valid under; resume rejects a
  /// checkpoint whose geometry does not match the live call.
  std::uint64_t drop_limit = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_patterns = 0;

  /// 64-pattern batches every fault has been graded against (round barrier).
  std::uint64_t batches_done = 0;

  std::vector<std::uint64_t> detected;  // bitmap, bit f = detected
  /// Per pattern: the faults whose first detection it is. Sums to the
  /// number of detected bits; the coverage curve is its running sum.
  std::vector<std::uint64_t> first_detections;
  /// Detecting lanes seen so far, per fault. Only n-detect campaigns
  /// (drop_limit > 1) count them and save them: with drop_limit <= 1 a
  /// fault's first detection decides its drop, and `hits` stays empty.
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> dropped;  // bitmap, bit f = retired

  bool fault_detected(std::size_t f) const {
    return (detected[f >> 6] >> (f & 63)) & 1ull;
  }
  bool fault_dropped(std::size_t f) const {
    return (dropped[f >> 6] >> (f & 63)) & 1ull;
  }
};

/// Writes `ckpt` to `path` atomically (tmp file + rename). Throws
/// aidft::Error when a vector's size does not match the header (`hits`:
/// total_faults under n-detect, else empty) or the file cannot be written.
void save_campaign_checkpoint(const CampaignCheckpoint& ckpt,
                              const std::string& path);

/// Loads a checkpoint saved by save_campaign_checkpoint(). Throws
/// aidft::Error on a missing file, bad magic, any version but kVersion, a
/// file size other than the header implies (checked before allocating),
/// checksum mismatch, a detected or dropped bit at or past total_faults, or
/// first detections per pattern that do not sum to the detected bits —
/// never returns a partially filled or inconsistent checkpoint.
CampaignCheckpoint load_campaign_checkpoint(const std::string& path);

}  // namespace aidft
