// Edge-payload codec unit tests: round-trips over the payload shapes the
// grid produces (empty, single-edge, sorted, duplicates, extreme ids) and
// strict rejection of malformed streams — the codec is the last line of
// defence behind the frame CRC, so every truncation/overflow path must
// surface as kCorruptData rather than garbage edges.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/codec.hpp"
#include "graph/types.hpp"
#include "testing_util.hpp"

namespace graphsd::compress {
namespace {

using testing::ValueOrDie;

std::vector<std::uint8_t> PayloadOf(const std::vector<Edge>& edges) {
  std::vector<std::uint8_t> raw(edges.size() * kEdgeBytes);
  if (!raw.empty()) std::memcpy(raw.data(), edges.data(), raw.size());
  return raw;
}

std::vector<std::uint8_t> EncodeOrDie(const Codec& codec,
                                      const std::vector<std::uint8_t>& raw) {
  std::vector<std::uint8_t> out(codec.MaxCompressedSize(raw.size()));
  const std::size_t n = ValueOrDie(
      codec.Encode(raw, std::span<std::uint8_t>(out)));
  EXPECT_LE(n, out.size());
  out.resize(n);
  return out;
}

void ExpectRoundTrip(const Codec& codec, const std::vector<Edge>& edges) {
  const std::vector<std::uint8_t> raw = PayloadOf(edges);
  const std::vector<std::uint8_t> encoded = EncodeOrDie(codec, raw);
  std::vector<std::uint8_t> decoded(raw.size());
  ASSERT_OK(codec.Decode(encoded, decoded));
  EXPECT_EQ(decoded, raw);
}

TEST(CodecRegistry, FindByNameAndId) {
  ASSERT_NE(FindCodec("none"), nullptr);
  EXPECT_EQ(FindCodec("none")->id(), CodecId::kNone);
  ASSERT_NE(FindCodec("varint-delta"), nullptr);
  EXPECT_EQ(FindCodec("varint-delta")->id(), CodecId::kVarintDelta);
  EXPECT_EQ(FindCodec("zstd"), nullptr);
  EXPECT_EQ(FindCodec(""), nullptr);

  EXPECT_EQ(FindCodecById(0), &NoneCodec());
  EXPECT_EQ(FindCodecById(1), &VarintDeltaCodec());
  EXPECT_EQ(FindCodecById(2), nullptr);
  EXPECT_EQ(FindCodecById(UINT32_MAX), nullptr);
}

TEST(NoneCodec, RoundTripsVerbatim) {
  const Codec& codec = NoneCodec();
  EXPECT_EQ(codec.name(), "none");
  ExpectRoundTrip(codec, {});
  ExpectRoundTrip(codec, {{3, 7}});
  ExpectRoundTrip(codec, {{0, 1}, {0, 2}, {5, 0}});
  const std::vector<std::uint8_t> raw = PayloadOf({{1, 2}, {3, 4}});
  EXPECT_EQ(EncodeOrDie(codec, raw), raw);
}

TEST(NoneCodec, DecodeRejectsSizeMismatch) {
  std::vector<std::uint8_t> encoded(16);
  std::vector<std::uint8_t> out(8);
  EXPECT_EQ(NoneCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, RoundTripsEmptyPayload) {
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), {});
  EXPECT_TRUE(encoded.empty());
  std::vector<std::uint8_t> out;
  EXPECT_OK(VarintDeltaCodec().Decode(encoded, out));
}

TEST(VarintDelta, RoundTripsSingleEdge) {
  ExpectRoundTrip(VarintDeltaCodec(), {{0, 0}});
  ExpectRoundTrip(VarintDeltaCodec(), {{123456, 654321}});
  ExpectRoundTrip(VarintDeltaCodec(), {{UINT32_MAX, UINT32_MAX}});
}

TEST(VarintDelta, RoundTripsDuplicateEdges) {
  // Duplicate (src,dst) pairs produce zero deltas: one byte each.
  const std::vector<Edge> edges(17, Edge{42, 99});
  ExpectRoundTrip(VarintDeltaCodec(), edges);
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf(edges));
  // First edge pays for the absolute values, the 16 duplicates are 2 bytes.
  EXPECT_EQ(encoded.size(), 2u + 1u + 16u * 2u);
}

TEST(VarintDelta, RoundTripsMaxVertexIdSwings) {
  // Worst-case deltas: 0 <-> UINT32_MAX swings in both columns. Each delta
  // zigzags to just under 2^33, the 5-byte varint ceiling.
  ExpectRoundTrip(VarintDeltaCodec(), {{0, UINT32_MAX},
                                       {UINT32_MAX, 0},
                                       {0, UINT32_MAX},
                                       {UINT32_MAX, UINT32_MAX},
                                       {0, 0}});
}

TEST(VarintDelta, RoundTripsUnsortedPayload) {
  // The codec exploits sorted order but must round-trip any edge array.
  ExpectRoundTrip(VarintDeltaCodec(), {{900, 3},
                                       {2, 900000},
                                       {2, 2},
                                       {UINT32_MAX, 17},
                                       {5, UINT32_MAX - 1}});
}

TEST(VarintDelta, SortedPayloadCompresses) {
  // A (src,dst)-sorted run with small gaps — the shape grid sub-blocks
  // have — must come out well under the raw 8 bytes/edge.
  std::vector<Edge> edges;
  for (std::uint32_t s = 0; s < 64; ++s) {
    for (std::uint32_t d = 0; d < 8; ++d) {
      edges.push_back({1000 + s, 2000 + 3 * d});
    }
  }
  const std::vector<std::uint8_t> raw = PayloadOf(edges);
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), raw);
  EXPECT_LT(encoded.size() * 2, raw.size());  // at least 2x on this shape
}

TEST(VarintDelta, EncodeRejectsPartialEdge) {
  std::vector<std::uint8_t> raw(kEdgeBytes + 3);
  std::vector<std::uint8_t> out(64);
  EXPECT_EQ(VarintDeltaCodec()
                .Encode(raw, std::span<std::uint8_t>(out))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(VarintDelta, DecodeRejectsTruncatedStream) {
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf({{7, 9}, {8, 11}}));
  std::vector<std::uint8_t> out(2 * kEdgeBytes);
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    const std::span<const std::uint8_t> head(encoded.data(), cut);
    EXPECT_EQ(VarintDeltaCodec().Decode(head, out).code(),
              StatusCode::kCorruptData)
        << "cut at " << cut;
  }
}

TEST(VarintDelta, DecodeRejectsTrailingBytes) {
  std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf({{7, 9}}));
  encoded.push_back(0x00);
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsOverlongVarint) {
  // Six continuation bytes exceed the 5-byte ceiling for a 33-bit zigzag.
  const std::vector<std::uint8_t> encoded = {0x80, 0x80, 0x80, 0x80,
                                             0x80, 0x01, 0x00};
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsNegativeFirstId) {
  // zigzag(1) = -1: src would step below 0 from the implicit origin.
  const std::vector<std::uint8_t> encoded = {0x01, 0x00};
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsDeltaAboveIdRange) {
  // zigzag value 2^33 decodes to delta +2^32: one past the largest step a
  // 32-bit vertex id can take from the implicit origin 0.
  const std::vector<std::uint8_t> encoded = {0x80, 0x80, 0x80, 0x80,
                                             0x20, 0x00};
  std::vector<std::uint8_t> out(kEdgeBytes);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, DecodeRejectsRaggedOutputSize) {
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), PayloadOf({{7, 9}}));
  std::vector<std::uint8_t> out(kEdgeBytes + 1);
  EXPECT_EQ(VarintDeltaCodec().Decode(encoded, out).code(),
            StatusCode::kCorruptData);
}

TEST(VarintDelta, MaxCompressedSizeBoundsWorstCase) {
  // The 0 <-> UINT32_MAX swing payload is the documented worst case; its
  // encoding must respect MaxCompressedSize.
  std::vector<Edge> edges;
  for (int i = 0; i < 32; ++i) {
    edges.push_back(i % 2 == 0 ? Edge{0, UINT32_MAX} : Edge{UINT32_MAX, 0});
  }
  const std::vector<std::uint8_t> raw = PayloadOf(edges);
  const std::vector<std::uint8_t> encoded =
      EncodeOrDie(VarintDeltaCodec(), raw);
  EXPECT_LE(encoded.size(), VarintDeltaCodec().MaxCompressedSize(raw.size()));
}

// ---- Differential test of the decoder's fast path --------------------------
//
// The codec decodes whole edges without per-byte bounds checks while at
// least ten input bytes remain and hands the rest to a checked loop. This
// reference decodes one byte at a time with every check on every byte; the
// codec must agree with it on accept/reject, on the rejection reason and on
// every output byte.

struct ReferenceDecode {
  std::optional<std::vector<std::uint8_t>> raw;  // nullopt = rejected
  std::string reason;                            // why, when rejected
};

ReferenceDecode ReferenceVarintDeltaDecode(
    const std::vector<std::uint8_t>& encoded, std::size_t raw_size) {
  ReferenceDecode result;
  if (raw_size % kEdgeBytes != 0) {
    result.reason = "raw size is not a whole number of edges";
    return result;
  }
  std::vector<std::uint8_t> raw(raw_size);
  std::size_t pos = 0;
  std::int64_t prev[2] = {0, 0};
  for (std::size_t off = 0; off < raw_size; off += kEdgeBytes) {
    for (int column = 0; column < 2; ++column) {
      std::uint64_t v = 0;
      int shift = 0;
      bool done = false;
      while (!done) {
        if (shift == 35) {
          result.reason = "varint too long";
          return result;
        }
        if (pos == encoded.size()) {
          result.reason = "truncated varint";
          return result;
        }
        const std::uint8_t byte = encoded[pos++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        shift += 7;
        done = (byte & 0x80) == 0;
      }
      const std::int64_t delta = (v & 1) != 0
                                     ? -static_cast<std::int64_t>(v >> 1) - 1
                                     : static_cast<std::int64_t>(v >> 1);
      const std::int64_t next = prev[column] + delta;
      if (next < 0 || next > static_cast<std::int64_t>(UINT32_MAX)) {
        result.reason = "delta out of range";
        return result;
      }
      const auto id = static_cast<std::uint32_t>(next);
      std::memcpy(raw.data() + off + column * sizeof(id), &id, sizeof(id));
      prev[column] = next;
    }
  }
  if (pos != encoded.size()) {
    result.reason = "trailing bytes";
    return result;
  }
  result.raw = std::move(raw);
  return result;
}

void ExpectDecodersAgree(const std::vector<std::uint8_t>& encoded,
                         std::size_t raw_size, const std::string& context) {
  const ReferenceDecode want = ReferenceVarintDeltaDecode(encoded, raw_size);
  std::vector<std::uint8_t> got(raw_size, 0xAB);
  const Status status = VarintDeltaCodec().Decode(encoded, got);
  ASSERT_EQ(status.ok(), want.raw.has_value())
      << context << ": codec says \"" << status.message()
      << "\", reference says \"" << want.reason << "\"";
  if (want.raw.has_value()) {
    ASSERT_EQ(got, *want.raw) << context;
  } else {
    ASSERT_EQ(status.code(), StatusCode::kCorruptData) << context;
    ASSERT_NE(std::string(status.message()).find(want.reason),
              std::string::npos)
        << context << ": codec says \"" << status.message()
        << "\", reference says \"" << want.reason << "\"";
  }
}

// A random id whose magnitude is itself random (0 to 32 bits), so deltas
// exercise every varint length from 1 to 5 bytes.
std::uint32_t RandomId(std::mt19937_64& rng) {
  const int bits = static_cast<int>(rng() % 33);
  return bits == 0 ? 0
                   : static_cast<std::uint32_t>(rng() >> (64 - bits));
}

TEST(VarintDeltaDifferential, RandomSortedEdgeListsMatchReference) {
  std::mt19937_64 rng(20221);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = rng() % 600;
    const std::uint64_t src_span = 1 + std::uint64_t{RandomId(rng)};
    const std::uint64_t dst_span = 1 + std::uint64_t{RandomId(rng)};
    std::vector<Edge> edges(n);
    for (Edge& e : edges) {
      e.src = static_cast<std::uint32_t>(rng() % src_span);
      e.dst = static_cast<std::uint32_t>(rng() % dst_span);
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
      return a.src != b.src ? a.src < b.src : a.dst < b.dst;
    });
    const std::vector<std::uint8_t> raw = PayloadOf(edges);
    const std::vector<std::uint8_t> encoded =
        EncodeOrDie(VarintDeltaCodec(), raw);
    const std::string context = "trial " + std::to_string(trial);
    ExpectDecodersAgree(encoded, raw.size(), context);
    // Wrong output sizes: one edge short and one edge over.
    if (n > 0) ExpectDecodersAgree(encoded, raw.size() - kEdgeBytes, context);
    ExpectDecodersAgree(encoded, raw.size() + kEdgeBytes, context);
  }
}

// Small frames (10 to 24 encoded bytes, 5-byte varints included) put the
// last varints across the ten-byte boundary where the fast path hands over
// to the checked loop. Every truncation and every single-byte mutation of
// each must be judged exactly as the reference judges it.
TEST(VarintDeltaDifferential, TruncationsAndMutationsAtTheFastPathBoundary) {
  std::mt19937_64 rng(99);
  int frames = 0;
  while (frames < 60) {
    std::vector<Edge> edges(1 + rng() % 4);
    for (Edge& e : edges) e = Edge{RandomId(rng), RandomId(rng)};
    const std::vector<std::uint8_t> raw = PayloadOf(edges);
    const std::vector<std::uint8_t> encoded =
        EncodeOrDie(VarintDeltaCodec(), raw);
    if (encoded.size() < 10 || encoded.size() > 24) continue;
    ++frames;
    const std::string frame = "frame " + std::to_string(frames);
    ExpectDecodersAgree(encoded, raw.size(), frame);
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
      const std::vector<std::uint8_t> head(encoded.begin(),
                                           encoded.begin() + cut);
      ExpectDecodersAgree(head, raw.size(),
                          frame + " cut at " + std::to_string(cut));
    }
    for (std::size_t at = 0; at < encoded.size(); ++at) {
      std::vector<std::uint8_t> mutated = encoded;
      for (int value = 0; value < 256; ++value) {
        if (value == encoded[at]) continue;
        mutated[at] = static_cast<std::uint8_t>(value);
        ExpectDecodersAgree(mutated, raw.size(),
                            frame + " byte " + std::to_string(at) + " = " +
                                std::to_string(value));
      }
    }
  }
}

}  // namespace
}  // namespace graphsd::compress
