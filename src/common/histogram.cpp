#include "common/histogram.hpp"

#include <bit>
#include <cstdio>

namespace neptune {

LatencyHistogram::LatencyHistogram(int sub_bucket_bits, uint64_t max_trackable)
    : sub_bits_(sub_bucket_bits),
      sub_count_(1ULL << sub_bucket_bits),
      max_trackable_(max_trackable) {
  // One linear sub-range per power of two up to 2^63, each with 2^sub_bits
  // buckets. The first range [0, 2*sub_count) is fully linear. A non-zero
  // max_trackable truncates the array after the bucket containing it.
  num_buckets_ = static_cast<size_t>((64 - sub_bits_) * sub_count_ + sub_count_);
  if (max_trackable_ != 0) {
    size_t cap_idx = bucket_index(max_trackable_);
    if (cap_idx + 1 < num_buckets_) num_buckets_ = cap_idx + 1;
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(num_buckets_);
  for (size_t i = 0; i < num_buckets_; ++i) counts_[i].store(0, std::memory_order_relaxed);
}

size_t LatencyHistogram::bucket_index(uint64_t value) const {
  if (value < 2 * sub_count_) return static_cast<size_t>(value);  // exact region
  int msb = 63 - std::countl_zero(value);
  int shift = msb - sub_bits_;
  uint64_t sub = value >> shift;  // in [sub_count, 2*sub_count)
  size_t base = static_cast<size_t>(shift) * sub_count_ + sub_count_;
  return base + static_cast<size_t>(sub - sub_count_);
}

uint64_t LatencyHistogram::bucket_upper_bound(size_t index) const {
  if (index < 2 * sub_count_) return static_cast<uint64_t>(index);
  size_t rel = index - sub_count_;
  size_t shift = rel / sub_count_;
  uint64_t sub = sub_count_ + rel % sub_count_;
  return ((sub + 1) << shift) - 1;
}

void LatencyHistogram::record(uint64_t value) { record_n(value, 1); }

void LatencyHistogram::record_n(uint64_t value, uint64_t count) {
  size_t idx = bucket_index(value);
  if (idx >= num_buckets_) {
    idx = num_buckets_ - 1;
    saturated_.fetch_add(count, std::memory_order_relaxed);
  }
  counts_[idx].fetch_add(count, std::memory_order_relaxed);
  total_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(value * count, std::memory_order_relaxed);
  // min/max via CAS loops; contention here is negligible.
  uint64_t cur = max_seen_.load(std::memory_order_relaxed);
  while (value > cur && !max_seen_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = min_seen_.load(std::memory_order_relaxed);
  while (value < cur && !min_seen_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void LatencyHistogram::record_owned(uint64_t value) {
  auto add = [](std::atomic<uint64_t>& c, uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  };
  size_t idx = bucket_index(value);
  if (idx >= num_buckets_) {
    idx = num_buckets_ - 1;
    add(saturated_, 1);
  }
  add(counts_[idx], 1);
  add(total_, 1);
  add(sum_, value);
  if (value > max_seen_.load(std::memory_order_relaxed))
    max_seen_.store(value, std::memory_order_relaxed);
  if (value < min_seen_.load(std::memory_order_relaxed))
    min_seen_.store(value, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::min() const {
  uint64_t m = min_seen_.load(std::memory_order_relaxed);
  return m == ~0ULL ? 0 : m;
}

double LatencyHistogram::mean() const {
  uint64_t n = total_.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  return static_cast<double>(sum_.load(std::memory_order_relaxed)) / static_cast<double>(n);
}

uint64_t LatencyHistogram::percentile(double p) const {
  uint64_t n = total_.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(n) + 0.5);
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (size_t i = 0; i < num_buckets_; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_upper_bound(i);
  }
  return max();
}

void LatencyHistogram::reset() {
  for (size_t i = 0; i < num_buckets_; ++i) counts_[i].store(0, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_seen_.store(0, std::memory_order_relaxed);
  min_seen_.store(~0ULL, std::memory_order_relaxed);
  saturated_.store(0, std::memory_order_relaxed);
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (size_t i = 0; i < num_buckets_ && i < o.num_buckets_; ++i) {
    uint64_t c = o.counts_[i].load(std::memory_order_relaxed);
    if (c) counts_[i].fetch_add(c, std::memory_order_relaxed);
  }
  // Samples beyond our (possibly smaller) range fold into the top bucket.
  if (o.num_buckets_ > num_buckets_) {
    uint64_t overflow = 0;
    for (size_t i = num_buckets_; i < o.num_buckets_; ++i)
      overflow += o.counts_[i].load(std::memory_order_relaxed);
    if (overflow) {
      counts_[num_buckets_ - 1].fetch_add(overflow, std::memory_order_relaxed);
      saturated_.fetch_add(overflow, std::memory_order_relaxed);
    }
  }
  saturated_.fetch_add(o.saturated_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  total_.fetch_add(o.total_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_.fetch_add(o.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  uint64_t om = o.max_seen_.load(std::memory_order_relaxed);
  uint64_t cur = max_seen_.load(std::memory_order_relaxed);
  while (om > cur && !max_seen_.compare_exchange_weak(cur, om, std::memory_order_relaxed)) {
  }
  uint64_t omin = o.min_seen_.load(std::memory_order_relaxed);
  cur = min_seen_.load(std::memory_order_relaxed);
  while (omin < cur && !min_seen_.compare_exchange_weak(cur, omin, std::memory_order_relaxed)) {
  }
}

std::string LatencyHistogram::summary_string(double unit_scale, const char* unit) const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "p50=%.3f%s p90=%.3f%s p99=%.3f%s p99.9=%.3f%s max=%.3f%s n=%llu",
                static_cast<double>(percentile(50)) * unit_scale, unit,
                static_cast<double>(percentile(90)) * unit_scale, unit,
                static_cast<double>(percentile(99)) * unit_scale, unit,
                static_cast<double>(percentile(99.9)) * unit_scale, unit,
                static_cast<double>(max()) * unit_scale, unit,
                static_cast<unsigned long long>(count()));
  std::string out(buf);
  uint64_t sat = saturated_count();
  if (sat != 0) {
    std::snprintf(buf, sizeof buf, " sat=%llu", static_cast<unsigned long long>(sat));
    out += buf;
  }
  return out;
}

}  // namespace neptune
