// Refcounted pooled frame buffers — the ownership primitive of the
// zero-copy batch path. A FrameBuf carries one wire frame (header +
// payload) or one decompressed payload; FrameBufRef is an intrusive
// refcounted handle so a frame can be shared between a sender retry slot,
// an in-process channel queue, and the receiving instance's decoded batch
// without ever copying the bytes. When the last ref drops, the buffer
// returns to its pool with its allocation intact (object-reuse scheme,
// paper §III-B3): a flush -> channel -> decode -> operator round trip
// performs zero payload copies in-process and exactly one (the socket
// read) over TCP.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.hpp"

namespace neptune {

class FrameBufPool;
class FrameBufRef;

/// Pool statistics, mirroring ObjectPool's (for the reuse benches/tests).
struct FrameBufPoolStats {
  uint64_t acquires = 0;
  uint64_t recycled = 0;  ///< acquires served from the free list
  uint64_t created = 0;   ///< acquires that heap-allocated a FrameBuf
};

class FrameBuf {
 public:
  FrameBuf() = default;
  FrameBuf(const FrameBuf&) = delete;
  FrameBuf& operator=(const FrameBuf&) = delete;

  /// The frame bytes. Writers append through the ByteBuffer API; readers
  /// take contents(). The read cursor is unused (receivers wrap contents()
  /// in their own ByteReader so shared refs never race on a cursor).
  ByteBuffer& buffer() noexcept { return buf_; }
  std::span<const uint8_t> contents() const noexcept { return buf_.contents(); }
  size_t size() const noexcept { return buf_.size(); }

 private:
  friend class FrameBufPool;
  friend class FrameBufRef;

  ByteBuffer buf_;
  std::atomic<uint32_t> refs_{0};
  FrameBufPool* pool_ = nullptr;  ///< owning pool; null for unpooled bufs
};

/// Intrusive refcounted handle to a FrameBuf, optionally narrowed to a
/// window of the underlying bytes. Copy = ref++, cheap. When the last
/// handle drops, the buffer is recycled into its pool (or deleted if
/// unpooled). Thread-safe in the shared_ptr sense: distinct handles to the
/// same buffer may be used/dropped from different threads; one handle must
/// not be mutated concurrently.
///
/// Windows are what make the TCP receive path copy-free: the socket reader
/// recvs into one large pooled chunk and hands each complete wire frame
/// upstream as `chunk_ref.slice(frame_off, frame_len)` — a view that pins
/// the whole chunk but reads as exactly one frame. contents()/size() are
/// window-relative; get()/operator-> expose the whole underlying buffer.
class FrameBufRef {
 public:
  static constexpr size_t kWholeBuf = static_cast<size_t>(-1);

  FrameBufRef() = default;
  FrameBufRef(const FrameBufRef& o) noexcept : buf_(o.buf_), off_(o.off_), len_(o.len_) {
    retain();
  }
  FrameBufRef(FrameBufRef&& o) noexcept : buf_(o.buf_), off_(o.off_), len_(o.len_) {
    o.buf_ = nullptr;
    o.off_ = 0;
    o.len_ = kWholeBuf;
  }
  FrameBufRef& operator=(const FrameBufRef& o) noexcept {
    if (this != &o) {
      release();
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
      retain();
    }
    return *this;
  }
  FrameBufRef& operator=(FrameBufRef&& o) noexcept {
    if (this != &o) {
      release();
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
      o.buf_ = nullptr;
      o.off_ = 0;
      o.len_ = kWholeBuf;
    }
    return *this;
  }
  ~FrameBufRef() { release(); }

  FrameBuf* get() const noexcept { return buf_; }
  FrameBuf& operator*() const noexcept { return *buf_; }
  FrameBuf* operator->() const noexcept { return buf_; }
  explicit operator bool() const noexcept { return buf_ != nullptr; }

  /// The visible bytes: the window when one is set, else the whole buffer.
  std::span<const uint8_t> contents() const noexcept {
    if (buf_ == nullptr) return {};
    std::span<const uint8_t> all = buf_->contents();
    if (off_ == 0 && len_ == kWholeBuf) return all;
    size_t off = off_ < all.size() ? off_ : all.size();
    size_t len = len_ < all.size() - off ? len_ : all.size() - off;
    return all.subspan(off, len);
  }
  size_t size() const noexcept { return contents().size(); }

  /// True when this handle views a proper sub-range (not the whole buffer).
  bool windowed() const noexcept { return off_ != 0 || len_ != kWholeBuf; }
  /// Window start relative to the underlying buffer.
  size_t offset() const noexcept { return off_; }

  /// A new handle to the same buffer narrowed to [off, off+len) *relative to
  /// this handle's window*. Shares the refcount (the underlying allocation
  /// stays pinned until every slice drops).
  FrameBufRef slice(size_t off, size_t len) const noexcept {
    FrameBufRef r(*this);
    size_t base = off_;
    size_t limit = r.contents().size();
    if (off > limit) off = limit;
    if (len > limit - off) len = limit - off;
    r.off_ = base + off;
    r.len_ = len;
    return r;
  }

  void reset() noexcept {
    release();
    buf_ = nullptr;
    off_ = 0;
    len_ = kWholeBuf;
  }

 private:
  friend class FrameBufPool;
  explicit FrameBufRef(FrameBuf* adopt_one_ref) noexcept : buf_(adopt_one_ref) {}

  void retain() noexcept {
    if (buf_) buf_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept;

  FrameBuf* buf_ = nullptr;
  size_t off_ = 0;           ///< window start (bytes into the buffer)
  size_t len_ = kWholeBuf;   ///< window length; kWholeBuf = to the end
};

/// Bounded free-list of FrameBufs. One process-wide pool (global()) serves
/// every transport and stream buffer so frames can migrate freely between
/// resources; per-component pools are possible but unnecessary — the lock
/// is touched once per *frame*, not per packet.
class FrameBufPool {
 public:
  explicit FrameBufPool(size_t max_idle = 256) : max_idle_(max_idle) {}
  ~FrameBufPool() {
    for (FrameBuf* b : idle_) delete b;
  }
  FrameBufPool(const FrameBufPool&) = delete;
  FrameBufPool& operator=(const FrameBufPool&) = delete;

  /// The process-wide pool. Never destroyed (function-local static pointer
  /// keeps it reachable, so LeakSanitizer stays quiet) — frames may be in
  /// flight on detached IO threads during shutdown.
  static FrameBufPool& global();

  /// A cleared buffer (capacity retained from its previous life).
  FrameBufRef acquire() {
    stats_acquires_.fetch_add(1, std::memory_order_relaxed);
    FrameBuf* b = nullptr;
    {
      std::lock_guard lk(mu_);
      if (!idle_.empty()) {
        b = idle_.back();
        idle_.pop_back();
      }
    }
    if (b != nullptr) {
      stats_recycled_.fetch_add(1, std::memory_order_relaxed);
      b->buf_.clear();
    } else {
      stats_created_.fetch_add(1, std::memory_order_relaxed);
      b = new FrameBuf();
      b->pool_ = this;
    }
    b->refs_.store(1, std::memory_order_relaxed);
    return FrameBufRef(b);
  }

  size_t idle_count() const {
    std::lock_guard lk(mu_);
    return idle_.size();
  }

  FrameBufPoolStats stats() const {
    FrameBufPoolStats s;
    s.acquires = stats_acquires_.load(std::memory_order_relaxed);
    s.recycled = stats_recycled_.load(std::memory_order_relaxed);
    s.created = stats_created_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class FrameBufRef;

  void recycle(FrameBuf* b) {
    {
      std::lock_guard lk(mu_);
      if (idle_.size() < max_idle_) {
        idle_.push_back(b);
        return;
      }
    }
    delete b;  // free list full
  }

  const size_t max_idle_;
  mutable std::mutex mu_;
  std::vector<FrameBuf*> idle_;
  std::atomic<uint64_t> stats_acquires_{0};
  std::atomic<uint64_t> stats_recycled_{0};
  std::atomic<uint64_t> stats_created_{0};
};

inline void FrameBufRef::release() noexcept {
  if (buf_ == nullptr) return;
  // acq_rel: the releasing thread's writes to the buffer must be visible to
  // whoever recycles/reuses it.
  if (buf_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (buf_->pool_ != nullptr) {
      buf_->pool_->recycle(buf_);
    } else {
      delete buf_;
    }
  }
  buf_ = nullptr;
}

}  // namespace neptune
