// Campaign checkpoint/resume state.
//
// A CampaignCheckpoint is a snapshot of everything a fault campaign needs to
// continue after an interruption: how many 64-pattern batches every fault
// has been graded against (`batches_done`, always a round barrier — see
// campaign.cpp), plus the per-fault detection state (first detecting pattern,
// detection hit counts, drop bitmap). Because a fault's detection history
// depends only on the fault and the pattern stream, resuming from a
// checkpoint and regrading the remaining batches produces a CampaignResult
// bit-identical to the uninterrupted run — for every thread count, and even
// when the snapshot carries partial progress past `batches_done` (first
// detections are recorded once and never rewritten; extra detection hits can
// only drop a fault *earlier*, which never changes recorded results).
//
// On-disk format (version 1, little-endian, host-endianness asserted):
//   8 bytes  magic "AIDFTCKP"
//   u32      version
//   u64      drop_limit, total_faults, total_patterns, batches_done
//   i64[total_faults]              first_detected_by (-1 = undetected)
//   u64[total_faults]              hits (zeros unless drop_limit > 1)
//   u64[ceil(total_faults/64)]     dropped bitmap (bit f = fault f retired)
//   u64      FNV-1a checksum of everything after the magic
// Version bumps are append-only in spirit: loaders reject any version they
// do not know with aidft::Error rather than guessing. Saves are atomic
// (write to "<path>.tmp", then rename).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace aidft {

struct CampaignCheckpoint {
  static constexpr std::uint32_t kVersion = 1;

  /// Campaign configuration the state is only valid under; resume rejects a
  /// checkpoint whose geometry does not match the live call.
  std::uint64_t drop_limit = 0;
  std::uint64_t total_faults = 0;
  std::uint64_t total_patterns = 0;

  /// 64-pattern batches every fault has been graded against (round barrier).
  std::uint64_t batches_done = 0;

  std::vector<std::int64_t> first_detected_by;  // -1 = undetected
  /// Detecting lanes seen so far, per fault. Only n-detect campaigns
  /// (drop_limit > 1) count them: with drop_limit <= 1 a fault's first
  /// detection decides its drop, so such a campaign leaves `hits` empty,
  /// which saves as total_faults zeros (the format stays version 1), and
  /// ignores the loaded values on resume.
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> dropped;           // bitmap, bit f = retired

  bool fault_dropped(std::size_t f) const {
    return (dropped[f >> 6] >> (f & 63)) & 1ull;
  }
};

/// Writes `ckpt` to `path` atomically (tmp file + rename). Throws
/// aidft::Error when the file cannot be written.
void save_campaign_checkpoint(const CampaignCheckpoint& ckpt,
                              const std::string& path);

/// Loads a checkpoint saved by save_campaign_checkpoint(). Throws
/// aidft::Error on a missing file, bad magic, unknown version, truncation,
/// checksum mismatch, a first_detected_by entry outside [-1,
/// total_patterns), or a dropped bit at or past total_faults — never
/// returns a partially filled or inconsistent checkpoint.
CampaignCheckpoint load_campaign_checkpoint(const std::string& path);

}  // namespace aidft
