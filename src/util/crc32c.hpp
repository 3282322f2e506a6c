// CRC32C (Castagnoli) checksums for end-to-end on-disk integrity.
//
// Every payload file of a grid dataset (sub-block edges/weights/index,
// degrees) is checksummed at build time and verified on load, so bit rot or
// torn writes surface as `kCorruptData` instead of silent wrong answers.
//
// `Crc32c` dispatches once, at first use, to the SSE4.2 `crc32` instruction
// (8 bytes per step, ~5 GiB/s on a 4-core Xeon VM) when the CPU has it, and
// to the byte-at-a-time table otherwise (~0.3 GiB/s on the same host). Both
// paths compute the same function; `Crc32cPortable` keeps the table path
// callable directly as the test oracle and micro-benchmark baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace graphsd {

/// Extends a running CRC32C with `data`. Start from `crc = 0`; the result of
/// one call feeds the next, so large files can be checksummed in chunks:
///   crc = Crc32c(Crc32c(0, a), b)  ==  Crc32c(0, ab)
std::uint32_t Crc32c(std::uint32_t crc, const void* data,
                     std::size_t size) noexcept;

/// The portable table-driven path, whatever the CPU supports.
std::uint32_t Crc32cPortable(std::uint32_t crc, const void* data,
                             std::size_t size) noexcept;

/// One-shot CRC32C of a byte span.
inline std::uint32_t Crc32c(std::span<const std::uint8_t> data) noexcept {
  return Crc32c(0, data.data(), data.size());
}

}  // namespace graphsd
