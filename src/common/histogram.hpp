// Log-linear histogram (HdrHistogram-style) for latency recording on hot
// paths: O(1) lock-free-ish record, bounded relative error on percentile
// queries. Values are non-negative integers (we use nanoseconds).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace neptune {

class LatencyHistogram {
 public:
  /// `sub_bucket_bits` controls relative precision: 2^-bits (5 bits -> ~3%).
  /// `max_trackable` (0 = unbounded) caps the bucket range: values above it
  /// are clamped into the top bucket and counted in saturated_count() so the
  /// clamping is observable instead of silent.
  explicit LatencyHistogram(int sub_bucket_bits = 5, uint64_t max_trackable = 0);

  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Record one value. Thread-safe (relaxed atomic increments).
  void record(uint64_t value);
  /// Record `count` occurrences of the same value.
  void record_n(uint64_t value, uint64_t count);
  /// record() for a histogram only one thread writes at a time: relaxed
  /// loads and stores, no locked read-modify-write. Concurrent readers are
  /// fine; a concurrent record() or merge() is not.
  void record_owned(uint64_t value);

  uint64_t count() const { return total_.load(std::memory_order_relaxed); }
  /// Samples that exceeded max_trackable (or the bucket range) and were
  /// clamped into the top bucket. Percentiles at/above the clamp point are
  /// lower bounds when this is non-zero.
  uint64_t saturated_count() const { return saturated_.load(std::memory_order_relaxed); }
  uint64_t max_trackable() const { return max_trackable_; }
  uint64_t min() const;
  uint64_t max() const { return max_seen_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Value at percentile p in [0, 100]. Returns an upper bound of the
  /// bucket containing the p-th ranked sample.
  uint64_t percentile(double p) const;

  void reset();

  /// Merge counts from another histogram with the same geometry.
  void merge(const LatencyHistogram& o);

  /// "p50=… p99=… p99.9=… max=…" one-liner for bench output.
  std::string summary_string(double unit_scale = 1e-6, const char* unit = "ms") const;

 private:
  size_t bucket_index(uint64_t value) const;
  uint64_t bucket_upper_bound(size_t index) const;

  int sub_bits_;
  uint64_t sub_count_;     // buckets per half-decade = 2^sub_bits
  uint64_t max_trackable_; // 0 = full 2^63 range
  size_t num_buckets_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_seen_{0};
  std::atomic<uint64_t> min_seen_{~0ULL};
  std::atomic<uint64_t> saturated_{0};
};

}  // namespace neptune
