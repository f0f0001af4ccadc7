#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define UNTX_CRC32C_SSE42 1
#endif

namespace untx {
namespace crc32c {

namespace {

// Table-driven CRC32C, one byte at a time: the portable kernel, and the
// reference the hardware kernel is tested against.
struct Table {
  std::array<uint32_t, 256> entries;
  Table() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

const Table& GetTable() {
  static const Table table;
  return table;
}

uint32_t ExtendTable(uint32_t init_crc, const char* data, size_t n) {
  const Table& t = GetTable();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc = t.entries[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

#ifdef UNTX_CRC32C_SSE42
// Compiled for SSE4.2 at function level only; Kernel() calls it only
// after the CPU reports the instruction set.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  while (n >= 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  auto crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p++);
    --n;
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using KernelFn = uint32_t (*)(uint32_t, const char*, size_t);

KernelFn Kernel() {
  static const KernelFn kernel = [] {
#ifdef UNTX_CRC32C_SSE42
    // Safe even if the first CRC runs inside another static initializer.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
    return &ExtendTable;
  }();
  return kernel;
}

}  // namespace

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return Kernel()(init_crc, data, n);
}

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  return ExtendTable(init_crc, data, n);
}

bool IsAccelerated() { return Kernel() != &ExtendTable; }

}  // namespace crc32c
}  // namespace untx
