#include "support/pool.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace apa {
namespace {

TEST(BufferPool, AcquireReleaseRecycles) {
  auto& pool = BufferPool<float>::instance();
  pool.clear();
  AlignedBuffer<float> buf = pool.acquire(1000);
  float* ptr = buf.data();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.cached(), 1u);
  AlignedBuffer<float> again = pool.acquire(1000);
  EXPECT_EQ(again.data(), ptr) << "same-size acquire must reuse the cached buffer";
  EXPECT_EQ(pool.cached(), 0u);
  pool.release(std::move(again));
  pool.clear();
}

TEST(BufferPool, DifferentSizesDoNotAlias) {
  auto& pool = BufferPool<float>::instance();
  pool.clear();
  pool.release(pool.acquire(64));
  AlignedBuffer<float> other = pool.acquire(128);
  EXPECT_EQ(other.size(), 128u);
  EXPECT_EQ(pool.cached(), 1u) << "the 64-element buffer stays cached";
  pool.release(std::move(other));
  pool.clear();
}

TEST(BufferPool, ZeroCountIsEmpty) {
  auto& pool = BufferPool<double>::instance();
  AlignedBuffer<double> buf = pool.acquire(0);
  EXPECT_TRUE(buf.empty());
  pool.release(std::move(buf));  // no-op
}

TEST(BufferPool, ClearDropsCache) {
  auto& pool = BufferPool<float>::instance();
  pool.clear();
  pool.release(pool.acquire(32));
  pool.release(pool.acquire(48));
  EXPECT_EQ(pool.cached(), 2u);
  pool.clear();
  EXPECT_EQ(pool.cached(), 0u);
}

TEST(BufferPool, ConcurrentAcquireReleaseIsSafe) {
  auto& pool = BufferPool<float>::instance();
  pool.clear();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&pool] {
      for (int i = 0; i < 200; ++i) {
        AlignedBuffer<float> buf = pool.acquire(256);
        buf[0] = 1.0f;  // touch
        pool.release(std::move(buf));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(pool.cached(), 4u);
  pool.clear();
}

TEST(BufferPool, HighWaterTracksBytesLeasedAtOnce) {
  auto& pool = BufferPool<float>::instance();
  const std::size_t base = pool.leased_bytes();
  pool.reset_high_water();
  EXPECT_EQ(pool.high_water_bytes(), base);
  {
    PooledBuffer<float> a(100);
    PooledMatrix<float> b(10, 20);
    EXPECT_EQ(pool.leased_bytes(), base + 300 * sizeof(float));
  }
  EXPECT_EQ(pool.leased_bytes(), base);
  { PooledBuffer<float> c(50); }  // a later, smaller lease leaves the mark
  EXPECT_EQ(pool.high_water_bytes(), base + 300 * sizeof(float));
  pool.reset_high_water();  // restarts from what is leased now
  EXPECT_EQ(pool.high_water_bytes(), base);
  { PooledBuffer<float> d(50); }
  EXPECT_EQ(pool.high_water_bytes(), base + 50 * sizeof(float));
}

TEST(PooledMatrix, ViewShapeAndZeroing) {
  PooledMatrix<float> m(4, 5);
  m.set_zero();
  auto v = m.view();
  EXPECT_EQ(v.rows, 4);
  EXPECT_EQ(v.cols, 5);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 5; ++j) EXPECT_EQ(v(i, j), 0.0f);
  }
}

TEST(PooledMatrix, MoveTransfersOwnership) {
  PooledMatrix<float> a(8, 8);
  a.set_zero();
  a.view()(3, 3) = 7.0f;
  PooledMatrix<float> b = std::move(a);
  EXPECT_EQ(b.view()(3, 3), 7.0f);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): documented state
}

TEST(PooledMatrix, DestructionReturnsToPool) {
  auto& pool = BufferPool<float>::instance();
  pool.clear();
  { PooledMatrix<float> m(10, 10); }
  EXPECT_EQ(pool.cached(), 1u);
  pool.clear();
}

}  // namespace
}  // namespace apa
