// CRC32C (Castagnoli). Guards page images, log records and wire frames so
// torn or corrupted reads are detected. Every stable-store page read and
// write checksums a full page, so this sits on the DC's cache-miss path:
// on x86-64 hosts with SSE4.2 the `crc32` instruction does the work,
// elsewhere a portable byte-at-a-time table kernel. Both produce the same
// values.
#pragma once

#include <cstddef>
#include <cstdint>

namespace untx {
namespace crc32c {

/// CRC of data[0, n); seed with a previous Value() call to chain. Uses
/// the fastest kernel the host supports, chosen once on first use.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The portable table kernel, regardless of the host. Exposed so
/// tests and benches can cross-check and compare it with Extend().
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// True when Extend() runs on a hardware CRC32C instruction.
bool IsAccelerated();

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

/// Masked CRC stored on disk (RocksDB-style) so that computing the CRC of
/// a buffer that embeds its own CRC does not produce fixed points.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8ul;
}

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - 0xa282ead8ul;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace untx
