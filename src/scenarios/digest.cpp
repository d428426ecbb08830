#include "scenarios/digest.hpp"

#include <bit>
#include <cstdio>

namespace neptune::scenarios {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void mix(uint64_t& h, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

inline void mix_u64(uint64_t& h, uint64_t v) { mix(h, &v, sizeof v); }

}  // namespace

uint64_t packet_content_hash(const StreamPacket& packet) {
  uint64_t h = kFnvOffset;
  mix_u64(h, packet.field_count());
  for (size_t i = 0; i < packet.field_count(); ++i) {
    const Value& v = packet.field(i);
    FieldType t = value_type(v);
    uint8_t tag = static_cast<uint8_t>(t);
    mix(h, &tag, 1);
    switch (t) {
      case FieldType::kI32:
        mix_u64(h, static_cast<uint64_t>(static_cast<int64_t>(std::get<int32_t>(v))));
        break;
      case FieldType::kI64:
        mix_u64(h, static_cast<uint64_t>(std::get<int64_t>(v)));
        break;
      case FieldType::kF32:
        mix_u64(h, std::bit_cast<uint32_t>(std::get<float>(v)));
        break;
      case FieldType::kF64:
        mix_u64(h, std::bit_cast<uint64_t>(std::get<double>(v)));
        break;
      case FieldType::kBool:
        mix_u64(h, std::get<bool>(v) ? 1 : 0);
        break;
      case FieldType::kString: {
        const std::string& s = std::get<std::string>(v);
        mix_u64(h, s.size());
        mix(h, s.data(), s.size());
        break;
      }
      case FieldType::kBytes: {
        const auto& b = std::get<std::vector<uint8_t>>(v);
        mix_u64(h, b.size());
        mix(h, b.data(), b.size());
        break;
      }
    }
  }
  return h;
}

void DigestAccumulator::attach(uint32_t instance, std::shared_ptr<const DigestAccumulator> part) {
  std::lock_guard lk(mu_);
  parts_[instance] = std::move(part);
}

uint64_t DigestAccumulator::count() const {
  uint64_t n = count_.load(std::memory_order_relaxed);
  std::lock_guard lk(mu_);
  for (const auto& [instance, part] : parts_) n += part->count();
  return n;
}

std::string DigestAccumulator::digest() const {
  uint64_t sum = this->sum(), x = xor_value();
  {
    std::lock_guard lk(mu_);
    for (const auto& [instance, part] : parts_) {
      sum += part->sum();
      x ^= part->xor_value();
    }
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "n%llu-s%016llx-x%016llx",
                static_cast<unsigned long long>(count()), static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(x));
  return std::string(buf);
}

}  // namespace neptune::scenarios
