#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace untx {
namespace crc32c {
namespace {

// Bit-at-a-time reference, independent of both kernels' tables.
uint32_t ReferenceCrc(uint32_t init_crc, const char* data, size_t n) {
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(data[i]);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

// Deterministic, non-repeating filler so every length and offset sees
// different bytes.
std::vector<char> Pattern(size_t n) {
  std::vector<char> out(n);
  uint32_t x = 2463534242u;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    out[i] = static_cast<char>(x);
  }
  return out;
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC32C test vector: "123456789" -> 0xe3069283.
  const char* digits = "123456789";
  EXPECT_EQ(Value(digits, 9), 0xe3069283u);
  // All-zero 32-byte buffer -> 0x8a9136aa.
  char zeros[32] = {0};
  EXPECT_EQ(Value(zeros, 32), 0x8a9136aau);
}

TEST(Crc32cTest, Rfc3720Vectors) {
  // iSCSI (RFC 3720, B.4) test vectors, on both kernels.
  char ones[32];
  char ascending[32];
  char descending[32];
  for (int i = 0; i < 32; ++i) {
    ones[i] = static_cast<char>(0xff);
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  for (auto* fn : {&Extend, &ExtendPortable}) {
    EXPECT_EQ(fn(0, ones, 32), 0x62a8ab43u);
    EXPECT_EQ(fn(0, ascending, 32), 0x46dd794eu);
    EXPECT_EQ(fn(0, descending, 32), 0x113fdb5cu);
    EXPECT_EQ(fn(0, "123456789", 9), 0xe3069283u);
  }
}

TEST(Crc32cTest, KernelsAgreeOnEveryLengthAndOffset) {
  // Extend() is the hardware kernel where the host has one; either way
  // it must match the portable kernel and the bitwise reference.
  const std::vector<char> buf = Pattern(1024 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const char* p = buf.data() + offset;
      const uint32_t portable = ExtendPortable(0, p, len);
      ASSERT_EQ(Extend(0, p, len), portable)
          << "offset " << offset << " length " << len;
      if (len <= 64 || len % 61 == 0) {
        ASSERT_EQ(ReferenceCrc(0, p, len), portable)
            << "offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32cTest, KernelsAgreeOnChainedSplits) {
  const std::vector<char> buf = Pattern(8192);
  const uint32_t whole = ExtendPortable(0, buf.data(), buf.size());
  EXPECT_EQ(Value(buf.data(), buf.size()), whole);
  for (size_t split : {0, 1, 3, 7, 8, 9, 63, 4096, 4099, 8191, 8192}) {
    for (auto* fn : {&Extend, &ExtendPortable}) {
      const uint32_t head = fn(0, buf.data(), split);
      EXPECT_EQ(fn(head, buf.data() + split, buf.size() - split), whole)
          << "split at " << split;
    }
    // Mixed: one kernel's partial CRC seeds the other.
    const uint32_t head = ExtendPortable(0, buf.data(), split);
    EXPECT_EQ(Extend(head, buf.data() + split, buf.size() - split), whole);
  }
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string data = "hello world, this is a page image";
  const uint32_t whole = Value(data.data(), data.size());
  const uint32_t part = Extend(Value(data.data(), 10), data.data() + 10,
                               data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, DifferentInputsDiffer) {
  EXPECT_NE(Value("abc", 3), Value("abd", 3));
  EXPECT_NE(Value("abc", 3), Value("abc", 2));
}

TEST(Crc32cTest, MaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(Unmask(Mask(crc)), crc);
    EXPECT_NE(Mask(crc), crc);  // masking must move the value
  }
}

}  // namespace
}  // namespace crc32c
}  // namespace untx
