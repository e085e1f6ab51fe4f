// Process-wide metrics for the DFT flow: named atomic counters, gauges, and
// fixed-bucket latency histograms behind one registry.
//
// Contract:
//  * Instrument handles (Counter/Gauge/Histogram) are created on first use
//    by name, live as long as the registry, and every operation on them is
//    a single relaxed atomic — safe to hammer from campaign worker threads
//    with exact totals.
//  * Registry lookups take a mutex; hot paths should look an instrument up
//    once (or aggregate locally and flush at a boundary, the pattern the
//    campaign engine uses) rather than resolving the name per event.
//  * snapshot() is a consistent-enough copy for reporting: each value is
//    read atomically; cross-metric skew is bounded by whatever the callers
//    were doing concurrently, which reports tolerate by construction.
//
// Naming convention (see DESIGN.md "Observability"): dotted lowercase
// `<module>.<noun>`, e.g. `podem.backtracks`, `sat.conflicts`,
// `fsim.events`, `campaign.faults_dropped`. `fsim.events` counts gates
// evaluated by faulty machines: each fault's local walk through its
// fanout-free region (`fsim.local_walks` counts the walks) plus each
// region root's propagation, once per batch and instance
// (`fsim.root_propagations`). Mask-only grading stops a propagation once its
// mask is final, so it counts fewer than detailed grading of the same faults
// (`fsim.early_exits` counts those stops).
// `fsim.op_diffs` counts the (observe point, word) pairs detailed grading
// handed to detection hooks: one per point a fault reached per batch, so it
// measures what diagnosis, LBIST signatures and EDT compacted grading pay
// in their hooks (mask-only campaigns add nothing).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aidft::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. worker count, queue depth).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed power-of-two-bucket histogram. Bucket b counts observations in
/// [2^(b-1), 2^b) (bucket 0 counts {0}); the last bucket absorbs overflow.
/// Intended for latencies in microseconds — 30 buckets span 0 to ~9 minutes.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 30;

  void observe(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  static std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    std::size_t b = 0;
    while (v != 0 && b < kBuckets - 1) {
      v >>= 1;
      ++b;
    }
    return b;
  }
  /// Inclusive upper bound of bucket `b` (UINT64_MAX for the overflow bucket).
  static std::uint64_t bucket_upper(std::size_t b);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time copy of every instrument in a registry, detached from the
/// live atomics — what reports and BENCH_*.json rows embed.
struct MetricsSnapshot {
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Kind kind = Kind::kCounter;
    std::int64_t value = 0;                // counter / gauge
    std::uint64_t count = 0;               // histogram
    std::uint64_t sum = 0;                 // histogram
    std::vector<std::uint64_t> buckets;    // histogram (kBuckets entries)
  };
  std::vector<Entry> entries;  // sorted by name within each kind group

  const Entry* find(std::string_view name) const;
  /// Counter value by name; 0 when absent.
  std::uint64_t counter_value(std::string_view name) const;
  std::size_t counter_count() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,buckets}}}
  std::string to_json() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named instrument. The returned reference stays
  /// valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument (names stay registered).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace aidft::obs
