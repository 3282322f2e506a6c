#include "compress/codec.hpp"

#include <cstring>

namespace graphsd::compress {
namespace {

// Sub-block edge payloads are arrays of {u32 src, u32 dst} records in
// native byte order (the builders write the structs verbatim); the codecs
// only need the 8-byte stride, not the graph-layer Edge type.
constexpr std::size_t kPairBytes = 8;

// Worst case for one zigzag-encoded u32 delta: |delta| < 2^32, so the
// zigzag value is < 2^33 and its LEB128 varint takes at most 5 bytes.
constexpr std::size_t kMaxVarintBytes = 5;

std::uint64_t ZigzagEncode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t ZigzagDecode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

std::size_t PutVarint(std::uint64_t v, std::uint8_t* out) noexcept {
  std::size_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

class NoneCodecImpl final : public Codec {
 public:
  std::string_view name() const noexcept override { return "none"; }
  CodecId id() const noexcept override { return CodecId::kNone; }

  std::size_t MaxCompressedSize(std::size_t raw_size) const noexcept override {
    return raw_size;
  }

  Result<std::size_t> Encode(std::span<const std::uint8_t> raw,
                             std::span<std::uint8_t> out) const override {
    if (out.size() < raw.size()) {
      return InvalidArgumentError("none codec: output buffer too small");
    }
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return raw.size();
  }

  Status Decode(std::span<const std::uint8_t> encoded,
                std::span<std::uint8_t> raw_out) const override {
    if (encoded.size() != raw_out.size()) {
      return CorruptDataError("none codec: payload size mismatch");
    }
    if (!encoded.empty()) {
      std::memcpy(raw_out.data(), encoded.data(), encoded.size());
    }
    return Status::Ok();
  }
};

class VarintDeltaCodecImpl final : public Codec {
 public:
  std::string_view name() const noexcept override { return "varint-delta"; }
  CodecId id() const noexcept override { return CodecId::kVarintDelta; }

  std::size_t MaxCompressedSize(std::size_t raw_size) const noexcept override {
    return raw_size / kPairBytes * (2 * kMaxVarintBytes);
  }

  Result<std::size_t> Encode(std::span<const std::uint8_t> raw,
                             std::span<std::uint8_t> out) const override {
    if (raw.size() % kPairBytes != 0) {
      return InvalidArgumentError(
          "varint-delta codec: payload is not a whole number of edges");
    }
    if (out.size() < MaxCompressedSize(raw.size())) {
      return InvalidArgumentError("varint-delta codec: output buffer too small");
    }
    std::size_t written = 0;
    std::uint32_t prev_src = 0;
    std::uint32_t prev_dst = 0;
    for (std::size_t off = 0; off < raw.size(); off += kPairBytes) {
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      std::memcpy(&src, raw.data() + off, sizeof(src));
      std::memcpy(&dst, raw.data() + off + sizeof(src), sizeof(dst));
      written += PutVarint(
          ZigzagEncode(static_cast<std::int64_t>(src) - prev_src),
          out.data() + written);
      written += PutVarint(
          ZigzagEncode(static_cast<std::int64_t>(dst) - prev_dst),
          out.data() + written);
      prev_src = src;
      prev_dst = dst;
    }
    return written;
  }

  Status Decode(std::span<const std::uint8_t> encoded,
                std::span<std::uint8_t> raw_out) const override {
    if (raw_out.size() % kPairBytes != 0) {
      return CorruptDataError(
          "varint-delta codec: raw size is not a whole number of edges");
    }
    Cursor at;
    DecodeFast(encoded, raw_out, at);
    // Checked tail: the last edges (fewer than kFastBytes left), and any
    // edge the fast path declined, which this loop then rejects with the
    // precise error.
    for (; at.off < raw_out.size(); at.off += kPairBytes) {
      GRAPHSD_ASSIGN_OR_RETURN(const std::uint32_t src,
                               NextValue(encoded, &at.pos, at.prev_src));
      GRAPHSD_ASSIGN_OR_RETURN(const std::uint32_t dst,
                               NextValue(encoded, &at.pos, at.prev_dst));
      std::memcpy(raw_out.data() + at.off, &src, sizeof(src));
      std::memcpy(raw_out.data() + at.off + sizeof(src), &dst, sizeof(dst));
      at.prev_src = src;
      at.prev_dst = dst;
    }
    if (at.pos != encoded.size()) {
      return CorruptDataError("varint-delta codec: trailing bytes after edges");
    }
    return Status::Ok();
  }

 private:
  // Two worst-case varints: one whole edge fits when this many bytes remain.
  static constexpr std::size_t kFastBytes = 2 * kMaxVarintBytes;

  // Where decoding stands: input position, output offset, previous edge.
  struct Cursor {
    std::size_t pos = 0;
    std::size_t off = 0;
    std::uint32_t prev_src = 0;
    std::uint32_t prev_dst = 0;
  };

  // Reads one varint at `p` with no bounds check (the caller guarantees
  // kMaxVarintBytes readable bytes) and applies it to `prev`. Returns false,
  // leaving `p` alone, when the varint runs past kMaxVarintBytes or the
  // delta steps outside the 32-bit range — the checked path then reports it.
  static bool FastValue(const std::uint8_t*& p, std::uint32_t prev,
                        std::uint32_t* value) noexcept {
    std::uint64_t v = 0;
    std::size_t n = 0;
    for (;;) {
      const std::uint8_t byte = p[n];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * n);
      ++n;
      if ((byte & 0x80) == 0) break;
      if (n == kMaxVarintBytes) return false;
    }
    const std::int64_t next = static_cast<std::int64_t>(prev) + ZigzagDecode(v);
    if (static_cast<std::uint64_t>(next) > UINT32_MAX) return false;
    p += n;
    *value = static_cast<std::uint32_t>(next);
    return true;
  }

  // Decodes whole edges while at least kFastBytes of input remain and
  // advances `at` past them. Accepts exactly what the checked loop accepts
  // and writes the same bytes: a declined edge is left, whole, to that loop.
  static void DecodeFast(std::span<const std::uint8_t> encoded,
                         std::span<std::uint8_t> raw_out,
                         Cursor& at) noexcept {
    if (encoded.size() < kFastBytes) return;
    const std::uint8_t* p = encoded.data() + at.pos;
    const std::uint8_t* const fast_end =
        encoded.data() + (encoded.size() - kFastBytes) + 1;
    std::uint8_t* out = raw_out.data() + at.off;
    std::uint8_t* const out_end = raw_out.data() + raw_out.size();
    std::uint32_t src = at.prev_src;
    std::uint32_t dst = at.prev_dst;
    while (out != out_end && p < fast_end) {
      const std::uint8_t* q = p;
      std::uint32_t next_src = 0;
      std::uint32_t next_dst = 0;
      if (!FastValue(q, src, &next_src) || !FastValue(q, dst, &next_dst)) {
        break;
      }
      std::memcpy(out, &next_src, sizeof(next_src));
      std::memcpy(out + sizeof(next_src), &next_dst, sizeof(next_dst));
      out += kPairBytes;
      p = q;
      src = next_src;
      dst = next_dst;
    }
    at.pos = static_cast<std::size_t>(p - encoded.data());
    at.off = static_cast<std::size_t>(out - raw_out.data());
    at.prev_src = src;
    at.prev_dst = dst;
  }

  // Reads one zigzag varint delta and applies it to `prev`, rejecting
  // truncated varints, oversized encodings and deltas that step outside
  // the 32-bit vertex-id range.
  static Result<std::uint32_t> NextValue(std::span<const std::uint8_t> encoded,
                                         std::size_t* pos,
                                         std::uint32_t prev) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < kMaxVarintBytes; ++i) {
      if (*pos >= encoded.size()) {
        return CorruptDataError("varint-delta codec: truncated varint");
      }
      const std::uint8_t byte = encoded[(*pos)++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << (7 * i);
      if ((byte & 0x80) == 0) {
        const std::int64_t next =
            static_cast<std::int64_t>(prev) + ZigzagDecode(v);
        if (next < 0 || next > static_cast<std::int64_t>(UINT32_MAX)) {
          return CorruptDataError("varint-delta codec: delta out of range");
        }
        return static_cast<std::uint32_t>(next);
      }
    }
    return CorruptDataError("varint-delta codec: varint too long");
  }
};

}  // namespace

const Codec& NoneCodec() {
  static const NoneCodecImpl kInstance;
  return kInstance;
}

const Codec& VarintDeltaCodec() {
  static const VarintDeltaCodecImpl kInstance;
  return kInstance;
}

const Codec* FindCodec(std::string_view name) noexcept {
  if (name == "none") return &NoneCodec();
  if (name == "varint-delta") return &VarintDeltaCodec();
  return nullptr;
}

const Codec* FindCodecById(std::uint32_t id) noexcept {
  switch (static_cast<CodecId>(id)) {
    case CodecId::kNone:
      return &NoneCodec();
    case CodecId::kVarintDelta:
      return &VarintDeltaCodec();
  }
  return nullptr;
}

}  // namespace graphsd::compress
