#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define GRAPHSD_CRC32C_SSE42 1
#endif

namespace graphsd {
namespace {

// Reflected Castagnoli polynomial (iSCSI / ext4 / RFC 3720).
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> MakeTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = MakeTable();

#ifdef GRAPHSD_CRC32C_SSE42
// The `crc32` instruction implements exactly this polynomial, reflected,
// without the pre/post inversion — so it slots in for the table loop.
__attribute__((target("sse4.2"))) std::uint32_t Crc32cSse42(
    std::uint32_t crc, const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint64_t state = ~crc;
  for (; size >= 8; size -= 8, bytes += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto narrow = static_cast<std::uint32_t>(state);
  for (; size > 0; --size, ++bytes) narrow = _mm_crc32_u8(narrow, *bytes);
  return ~narrow;
}
#endif

using Crc32cFn = std::uint32_t (*)(std::uint32_t, const void*,
                                   std::size_t) noexcept;

Crc32cFn SelectCrc32c() noexcept {
#ifdef GRAPHSD_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cSse42;
#endif
  return &Crc32cPortable;
}

// Resolved on first use (safe from other translation units' static
// initializers); every later call is a guard check and one indirect jump.
Crc32cFn Dispatched() noexcept {
  static const Crc32cFn fn = SelectCrc32c();
  return fn;
}

}  // namespace

std::uint32_t Crc32cPortable(std::uint32_t crc, const void* data,
                             std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32c(std::uint32_t crc, const void* data,
                     std::size_t size) noexcept {
  return Dispatched()(crc, data, size);
}

}  // namespace graphsd
