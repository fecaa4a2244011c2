// Segment storage contract: a fresh file reads as zero across its whole
// capacity, its address never moves while records land in it, and its
// capacity reserves address space rather than resident memory.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "kafka/log.h"
#include "kafka/record.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KD_SANITIZER_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KD_SANITIZER_ALLOCATOR 1
#endif
#endif

namespace kafkadirect {
namespace kafka {
namespace {

std::vector<uint8_t> Batch(int64_t base, int n_records, size_t value_size) {
  RecordBatchBuilder b(base, 0, 0);
  std::string v(value_size, 'a');
  for (int i = 0; i < n_records; i++) b.Add(Slice("k", 1), Slice(v));
  return b.Build();
}

bool AllZero(const Segment& seg) {
  for (uint64_t i = 0; i < seg.capacity(); i++) {
    if (seg.data()[i] != 0) return false;
  }
  return true;
}

// Leaves freed, non-zero chunks of every test size in the allocator's free
// lists, so a segment served from recycled heap memory would see them.
void ChurnHeap(const std::vector<uint64_t>& sizes) {
  std::vector<std::unique_ptr<uint8_t[]>> blocks;
  for (int round = 0; round < 4; round++) {
    for (uint64_t n : sizes) {
      blocks.emplace_back(new uint8_t[n]);
      std::memset(blocks.back().get(), 0xA5, n);
      // Keep the fill: a store right before delete is otherwise dead.
      asm volatile("" : : "r"(blocks.back().get()) : "memory");
    }
  }
  blocks.clear();
}

TEST(SegmentStorageTest, FreshSegmentReadsZeroAfterHeapChurn) {
  const std::vector<uint64_t> sizes = {128, 512, 4 * kKiB, 32 * kKiB,
                                       256 * kKiB};
  ChurnHeap(sizes);
  for (uint64_t n : sizes) {
    Segment seg(0, n);
    ASSERT_EQ(seg.capacity(), n);
    EXPECT_TRUE(AllZero(seg)) << "capacity " << n;
  }
  // A file whose predecessor at the same size was fully written.
  for (uint64_t n : sizes) {
    {
      Segment dirty(0, n);
      std::memset(dirty.data(), 0xFF, n);
      asm volatile("" : : "r"(dirty.data()) : "memory");
    }
    ChurnHeap({n});
    Segment seg(0, n);
    EXPECT_TRUE(AllZero(seg)) << "capacity " << n;
  }
}

TEST(SegmentStorageTest, BytesPastSizeStayZeroAfterAppend) {
  Segment seg(0, 4 * kKiB);
  auto b = Batch(0, 3, 40);
  ASSERT_TRUE(seg.Append(Slice(b), 3).ok());
  EXPECT_EQ(std::memcmp(seg.data(), b.data(), b.size()), 0);
  for (uint64_t i = seg.size(); i < seg.capacity(); i++) {
    ASSERT_EQ(seg.data()[i], 0) << "byte " << i;
  }
  // The last byte of the capacity is writable (RDMA may land there).
  seg.data()[seg.capacity() - 1] = 0x7E;
  EXPECT_EQ(seg.data()[seg.capacity() - 1], 0x7E);
}

TEST(SegmentStorageTest, DataAddressIsStable) {
  Segment seg(0, 64 * kKiB);
  const uint8_t* addr = seg.data();
  auto b1 = Batch(0, 2, 100);
  ASSERT_TRUE(seg.Append(Slice(b1), 2).ok());
  EXPECT_EQ(seg.data(), addr);
  auto b2 = Batch(2, 1, 100);
  std::memcpy(seg.data() + seg.size(), b2.data(), b2.size());
  ASSERT_TRUE(seg.CommitInPlace(seg.size(), b2.size(), 1).ok());
  EXPECT_EQ(seg.data(), addr);
  seg.Seal();
  EXPECT_EQ(seg.data(), addr);
}

TEST(SegmentStorageTest, RollKeepsEverySegmentAddress) {
  PartitionLog log(8 * kKiB);
  std::vector<const uint8_t*> addrs = {log.head().data()};
  for (int i = 0; i < 3; i++) {
    auto b = Batch(log.log_end_offset(), 1, 200);
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
    log.Roll();
    addrs.push_back(log.head().data());
  }
  // Appends that overflow the head roll implicitly.
  for (int i = 0; i < 100; i++) {
    auto b = Batch(log.log_end_offset(), 1, 500);
    ASSERT_TRUE(log.Append(Slice(b), 1).ok());
  }
  ASSERT_GT(log.segments().size(), addrs.size());
  for (size_t i = 0; i < addrs.size(); i++) {
    EXPECT_EQ(log.segments()[i]->data(), addrs[i]) << "segment " << i;
  }
}

#ifndef KD_SANITIZER_ALLOCATOR
uint64_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}
#endif

TEST(SegmentStorageTest, CapacityIsNotResident) {
#ifdef KD_SANITIZER_ALLOCATOR
  GTEST_SKIP() << "sanitizer allocators manage residency differently";
#else
  uint64_t before = ResidentBytes();
  if (before == 0) GTEST_SKIP() << "/proc/self/statm unavailable";
  std::vector<std::unique_ptr<Segment>> segs;
  for (int i = 0; i < 16; i++) {
    segs.push_back(std::make_unique<Segment>(0, 64 * kMiB));
  }
  // One record in each file touches a page, not the file.
  auto b = Batch(0, 1, 100);
  for (auto& seg : segs) ASSERT_TRUE(seg->Append(Slice(b), 1).ok());
  uint64_t grown = ResidentBytes() - std::min(ResidentBytes(), before);
  EXPECT_LT(grown, 16 * kMiB)
      << "16 x 64 MiB segments made " << grown / kMiB << " MiB resident";
#endif
}

}  // namespace
}  // namespace kafka
}  // namespace kafkadirect
