#pragma once
// Thread-safe recycling pool for aligned numeric buffers.
//
// The APA executor allocates O(rank) temporaries per multiplication; inside a
// training loop the same sizes recur every step, so recycling turns those
// mallocs (large enough to be mmap-backed, i.e. page-fault heavy) into
// free-list pops. Buffers are keyed by exact element count.
//
// The pool also measures workspace: every lease (PooledBuffer, PooledMatrix,
// hence the executor's product stacks and temporaries, PackedPanels and the
// gemm pack buffers) is counted from acquire() to release(), and a resettable
// high-water mark records the most bytes leased at once.

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "obs/metrics.h"
#include "support/aligned.h"
#include "support/matrix.h"
#include "support/thread_annotations.h"

namespace apa {

template <class T>
class BufferPool {
 public:
  static BufferPool& instance() {
    static BufferPool pool;
    return pool;
  }

  /// A buffer with at least `count` elements (exactly `count` when newly
  /// allocated). Return it with release() to enable reuse.
  [[nodiscard]] AlignedBuffer<T> acquire(std::size_t count) {
    if (count == 0) return {};
    {
      MutexLock lock(mutex_);
      leased_bytes_ += count * sizeof(T);
      high_water_bytes_ = std::max(high_water_bytes_, leased_bytes_);
      auto it = free_.find(count);
      if (it != free_.end() && !it->second.empty()) {
        AlignedBuffer<T> buf = std::move(it->second.back());
        it->second.pop_back();
        --cached_count_;
        APA_COUNTER_INC("pool.acquire_hits");
        return buf;
      }
    }
    APA_COUNTER_INC("pool.acquire_misses");
    return AlignedBuffer<T>(count);
  }

  void release(AlignedBuffer<T>&& buffer) {
    if (buffer.empty()) return;
    MutexLock lock(mutex_);
    leased_bytes_ -= std::min(leased_bytes_, buffer.size() * sizeof(T));
    if (cached_count_ >= kMaxCached) return;  // drop: destructor frees
    ++cached_count_;
    free_[buffer.size()].push_back(std::move(buffer));
  }

  /// Drops all cached buffers (tests / memory-pressure handling).
  void clear() {
    MutexLock lock(mutex_);
    free_.clear();
    cached_count_ = 0;
  }

  [[nodiscard]] std::size_t cached() const {
    MutexLock lock(mutex_);
    return cached_count_;
  }

  /// Bytes acquired and not yet released.
  [[nodiscard]] std::size_t leased_bytes() const {
    MutexLock lock(mutex_);
    return leased_bytes_;
  }

  /// The most bytes leased at once since the last reset_high_water().
  [[nodiscard]] std::size_t high_water_bytes() const {
    MutexLock lock(mutex_);
    return high_water_bytes_;
  }

  /// Restarts the high-water mark from the bytes leased now.
  void reset_high_water() {
    MutexLock lock(mutex_);
    high_water_bytes_ = leased_bytes_;
  }

 private:
  static constexpr std::size_t kMaxCached = 256;
  mutable Mutex mutex_;
  std::map<std::size_t, std::vector<AlignedBuffer<T>>> free_
      APAMM_GUARDED_BY(mutex_);
  std::size_t cached_count_ APAMM_GUARDED_BY(mutex_) = 0;
  std::size_t leased_bytes_ APAMM_GUARDED_BY(mutex_) = 0;
  std::size_t high_water_bytes_ APAMM_GUARDED_BY(mutex_) = 0;
};

/// RAII lease of a raw pool buffer (1-D). Acquired from the singleton pool on
/// construction, returned on destruction — the zero-malloc replacement for a
/// per-call AlignedBuffer in hot paths like gemm pack buffers.
template <class T>
class PooledBuffer {
 public:
  PooledBuffer() = default;
  explicit PooledBuffer(std::size_t count)
      : buffer_(BufferPool<T>::instance().acquire(count)) {}
  ~PooledBuffer() { BufferPool<T>::instance().release(std::move(buffer_)); }
  PooledBuffer(PooledBuffer&&) noexcept = default;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      BufferPool<T>::instance().release(std::move(buffer_));
      buffer_ = std::move(other.buffer_);
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  [[nodiscard]] T* data() { return buffer_.data(); }
  [[nodiscard]] const T* data() const { return buffer_.data(); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] bool empty() const { return buffer_.empty(); }

 private:
  AlignedBuffer<T> buffer_;
};

/// RAII lease of a pool buffer exposed as a row-major matrix view.
template <class T>
class PooledMatrix {
 public:
  PooledMatrix() = default;
  PooledMatrix(index_t rows, index_t cols)
      : rows_(rows),
        cols_(cols),
        buffer_(BufferPool<T>::instance().acquire(
            static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols))) {}
  ~PooledMatrix() { BufferPool<T>::instance().release(std::move(buffer_)); }
  PooledMatrix(PooledMatrix&&) noexcept = default;
  PooledMatrix& operator=(PooledMatrix&& other) noexcept {
    if (this != &other) {
      BufferPool<T>::instance().release(std::move(buffer_));
      buffer_ = std::move(other.buffer_);
      rows_ = other.rows_;
      cols_ = other.cols_;
    }
    return *this;
  }
  PooledMatrix(const PooledMatrix&) = delete;
  PooledMatrix& operator=(const PooledMatrix&) = delete;

  [[nodiscard]] MatrixView<T> view() { return {buffer_.data(), rows_, cols_, cols_}; }
  /// Pool buffers are recycled dirty; call before use when zeros matter.
  void set_zero() {
    T* data = buffer_.data();
    for (index_t i = 0; i < rows_ * cols_; ++i) data[i] = T{0};
  }
  [[nodiscard]] MatrixView<const T> cview() const {
    return {buffer_.data(), rows_, cols_, cols_};
  }
  [[nodiscard]] bool empty() const { return buffer_.empty(); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  AlignedBuffer<T> buffer_;
};

}  // namespace apa
