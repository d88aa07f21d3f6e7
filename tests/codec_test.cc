#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>

#include "codec/lzw.h"
#include "common/rng.h"

namespace paradise::codec {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// Reference model of the encoder: the textbook hash-map LZW the codec
/// started from. The table-driven encoder must emit exactly these bytes,
/// so tiles written by either decode the same.
std::vector<uint8_t> ReferenceCompress(const std::vector<uint8_t>& in) {
  constexpr uint32_t kClear = 256, kEnd = 257, kFirst = 258, kMax = 4096;
  std::vector<uint8_t> out;
  uint64_t acc = 0;
  uint32_t bits = 0;
  auto put = [&](uint32_t code) {
    acc = (acc << 12) | code;
    bits += 12;
    while (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>(acc >> bits));
    }
  };
  put(kClear);
  if (!in.empty()) {
    std::unordered_map<uint32_t, uint32_t> dict;
    uint32_t next_code = kFirst;
    uint32_t cur = in[0];
    for (size_t i = 1; i < in.size(); ++i) {
      const uint32_t key = (cur << 8) | in[i];
      auto it = dict.find(key);
      if (it != dict.end()) {
        cur = it->second;
        continue;
      }
      put(cur);
      if (next_code < kMax) {
        dict.emplace(key, next_code++);
      } else {
        put(kClear);
        dict.clear();
        next_code = kFirst;
      }
      cur = in[i];
    }
    put(cur);
  }
  put(kEnd);
  if (bits > 0) out.push_back(static_cast<uint8_t>(acc << (8 - bits)));
  return out;
}

/// Round-trips `data` and checks the stream against the reference model.
void ExpectRoundTrip(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> packed = LzwCompress(data);
  EXPECT_EQ(packed, ReferenceCompress(data));
  auto unpacked = LzwDecompress(packed, data.size());
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  EXPECT_EQ(*unpacked, data);
}

bool IsCorruption(const StatusOr<std::vector<uint8_t>>& r) {
  return !r.ok() && r.status().code() == StatusCode::kCorruption;
}

TEST(LzwTest, EmptyInput) { ExpectRoundTrip({}); }

TEST(LzwTest, SingleByte) { ExpectRoundTrip({42}); }

TEST(LzwTest, SimpleString) { ExpectRoundTrip(Bytes("TOBEORNOTTOBEORTOBEORNOT")); }

TEST(LzwTest, KwKwKCase) {
  // The classic corner case: the decoder sees a code equal to next_code.
  ExpectRoundTrip(Bytes("aaaaaaaaaaaaaaaaaaaaaa"));
  ExpectRoundTrip(Bytes("abababababababababab"));
}

TEST(LzwTest, AllByteValues) {
  std::vector<uint8_t> data;
  for (int rep = 0; rep < 4; ++rep) {
    for (int b = 0; b < 256; ++b) data.push_back(static_cast<uint8_t>(b));
  }
  ExpectRoundTrip(data);
}

TEST(LzwTest, CompressesRepetitiveData) {
  std::vector<uint8_t> data(64 * 1024, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i / 512) & 0xff);  // long runs
  }
  std::vector<uint8_t> packed = LzwCompress(data);
  EXPECT_LT(packed.size(), data.size() / 4);
  ExpectRoundTrip(data);
}

TEST(LzwTest, RandomDataDoesNotCorrupt) {
  Rng rng(123);
  std::vector<uint8_t> data(50000);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  // Random data typically expands (12-bit codes for 8-bit literals).
  ExpectRoundTrip(data);
}

TEST(LzwTest, DictionaryResetOnLargeInput) {
  // Force multiple CLEAR cycles: > 4096 distinct phrases.
  Rng rng(7);
  std::vector<uint8_t> data;
  data.reserve(300000);
  for (int i = 0; i < 300000; ++i) {
    data.push_back(static_cast<uint8_t>(rng.NextUint(7) * 37));
  }
  ExpectRoundTrip(data);
}

TEST(LzwTest, SmoothRasterLikeDataCompressesWell) {
  // 16-bit smooth field, little-endian bytes — what tiles look like.
  std::vector<uint8_t> data;
  for (int i = 0; i < 32768; ++i) {
    uint16_t v = static_cast<uint16_t>(2000 + 100 * ((i / 64) % 8));
    data.push_back(static_cast<uint8_t>(v & 0xff));
    data.push_back(static_cast<uint8_t>(v >> 8));
  }
  std::vector<uint8_t> packed = LzwCompress(data);
  EXPECT_LT(packed.size(), data.size() / 2);
  ExpectRoundTrip(data);
}

TEST(LzwTest, DecompressRejectsGarbage) {
  std::vector<uint8_t> garbage = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
  for (size_t expected : {0, 1, 100}) {
    EXPECT_TRUE(IsCorruption(LzwDecompress(garbage, expected)));
  }
}

TEST(LzwTest, DecompressRejectsTruncation) {
  std::vector<uint8_t> data = Bytes("hello hello hello hello");
  std::vector<uint8_t> packed = LzwCompress(data);
  packed.resize(packed.size() / 2);
  // The END marker is missing.
  EXPECT_TRUE(IsCorruption(LzwDecompress(packed, data.size())));
}

/// Parameterized roundtrip sweep over sizes and alphabet widths.
class LzwSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LzwSweepTest, RoundTrip) {
  auto [size, alphabet] = GetParam();
  Rng rng(static_cast<uint64_t>(size) * 1000003 + alphabet);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextUint(static_cast<uint64_t>(alphabet)));
  }
  ExpectRoundTrip(data);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlphabets, LzwSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 100, 4095, 4096, 4097,
                                         65536),
                       ::testing::Values(1, 2, 16, 256)));

// ---------- Adversarial inputs ----------

/// Packs 12-bit codes MSB-first, mirroring the encoder's BitPacker, so
/// tests can hand-craft malformed code streams.
std::vector<uint8_t> PackCodes(const std::vector<uint32_t>& codes) {
  std::vector<uint8_t> out;
  uint64_t acc = 0;
  uint32_t bits = 0;
  for (uint32_t code : codes) {
    acc = (acc << 12) | code;
    bits += 12;
    while (bits >= 8) {
      bits -= 8;
      out.push_back(static_cast<uint8_t>(acc >> bits));
    }
  }
  if (bits > 0) out.push_back(static_cast<uint8_t>(acc << (8 - bits)));
  return out;
}

/// A sequence in which no ordered byte pair repeats: block x holds the
/// pairs (x, y) for y > x, so every adjacent 2-gram — (x, y), (y, x), and
/// the block junctions — is unique. With no repeated 2-gram the encoder
/// adds exactly one dictionary entry per input byte, making the position
/// of the dictionary-full CLEAR predictable.
std::vector<uint8_t> DistinctPairStream(int blocks) {
  std::vector<uint8_t> data;
  for (int x = 0; x < blocks; ++x) {
    for (int y = x + 1; y < 256; ++y) {
      data.push_back(static_cast<uint8_t>(x));
      data.push_back(static_cast<uint8_t>(y));
    }
  }
  return data;
}

TEST(LzwAdversarialTest, DictionaryFullWraparoundExactBoundaries) {
  // One entry per byte: the 3838-entry dictionary fills at byte 3839 and
  // again ~3838 bytes later. Sizes straddling the second CLEAR emission
  // catch off-by-ones in the reset handshake on both sides.
  std::vector<uint8_t> base = DistinctPairStream(16);
  ASSERT_GT(base.size(), 7680u);
  for (size_t size = 7674; size <= 7680; ++size) {
    std::vector<uint8_t> data(base.begin(), base.begin() + size);
    ExpectRoundTrip(data);
  }
}

TEST(LzwAdversarialTest, KwKwKAcrossDictionaryReset) {
  // A single-byte run produces the KwKwK case on nearly every code; long
  // enough to span several dictionary resets.
  ExpectRoundTrip(std::vector<uint8_t>(300000, 0xa5));
}

TEST(LzwAdversarialTest, AllZeroTileCompressesAndRoundTrips) {
  // A 96x96 16-bit tile of zeros — what an empty raster region stores.
  std::vector<uint8_t> tile(96 * 96 * 2, 0);
  std::vector<uint8_t> packed = LzwCompress(tile);
  EXPECT_LT(packed.size(), tile.size() / 20);
  ExpectRoundTrip(tile);
}

TEST(LzwAdversarialTest, IncompressibleRandomTileBoundedExpansion) {
  Rng rng(0xc0dec);
  std::vector<uint8_t> tile(96 * 96 * 2);
  for (auto& b : tile) b = static_cast<uint8_t>(rng.Next());
  std::vector<uint8_t> packed = LzwCompress(tile);
  // Worst case is 12 output bits per input byte plus framing.
  EXPECT_LE(packed.size(), tile.size() * 3 / 2 + 16);
  ExpectRoundTrip(tile);
}

TEST(LzwAdversarialTest, SmoothRasterTileMatchesReference) {
  // A 96x96 16-bit tile of a quantized smooth field, as the loader stores.
  std::vector<uint8_t> tile;
  for (int r = 0; r < 96; ++r) {
    for (int c = 0; c < 96; ++c) {
      uint16_t v = static_cast<uint16_t>(2000 + 64 * ((r / 9 + c / 13) % 12));
      tile.push_back(static_cast<uint8_t>(v & 0xff));
      tile.push_back(static_cast<uint8_t>(v >> 8));
    }
  }
  ExpectRoundTrip(tile);
}

TEST(LzwSizedDecodeTest, ExactSizeRoundTripsAndOffByOneIsCorruption) {
  Rng rng(99);
  std::vector<uint8_t> tile(96 * 96 * 2);
  for (size_t i = 0; i < tile.size(); ++i) {
    tile[i] = static_cast<uint8_t>(i % 2 == 0 ? rng.NextUint(4) * 64 : 7);
  }
  for (const std::vector<uint8_t>& data :
       {tile, Bytes("TOBEORNOTTOBEORTOBEORNOT"), Bytes("aaaaaaaa"),
        std::vector<uint8_t>{42}}) {
    std::vector<uint8_t> packed = LzwCompress(data);
    auto exact = LzwDecompress(packed, data.size());
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(*exact, data);
    EXPECT_TRUE(IsCorruption(LzwDecompress(packed, data.size() + 1)));
    EXPECT_TRUE(IsCorruption(LzwDecompress(packed, data.size() - 1)));
  }
}

TEST(LzwSizedDecodeTest, EmptyStreamNeedsZeroSize) {
  std::vector<uint8_t> packed = LzwCompress(std::vector<uint8_t>{});
  auto out = LzwDecompress(packed, 0);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_TRUE(IsCorruption(LzwDecompress(packed, 1)));
}

TEST(LzwSizedDecodeTest, OverrunInsideAKwKwKCopyIsCorruption) {
  // "AAA" needs three bytes; the KwKwK code's two bytes overrun a
  // two-byte buffer.
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({65, 258, 257}), 2)));
  // A dictionary copy that overruns: "ABAB" into three bytes.
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({65, 66, 258, 257}), 3)));
  auto abab = LzwDecompress(PackCodes({65, 66, 258, 257}), 4);
  ASSERT_TRUE(abab.ok());
  EXPECT_EQ(*abab, Bytes("ABAB"));
}

TEST(LzwAdversarialTest, KwKwKImmediateUseDecodes) {
  // Hand-packed positive control: code 258 used while being defined.
  auto out = LzwDecompress(PackCodes({65, 258, 257}), 3);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, Bytes("AAA"));
}

TEST(LzwAdversarialTest, CodeBeyondDictionaryIsCorruption) {
  // 300 is far past next_code (258) when it appears.
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({65, 300, 257}), 2)));
  // One past the KwKwK code is equally invalid.
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({65, 259, 257}), 3)));
}

TEST(LzwAdversarialTest, FirstCodeMustBeALiteral) {
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({258, 257}), 1)));
  // Also right after an explicit CLEAR, mid-stream too.
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({256, 258, 257}), 1)));
  EXPECT_TRUE(
      IsCorruption(LzwDecompress(PackCodes({65, 66, 256, 258, 257}), 3)));
}

TEST(LzwAdversarialTest, MissingEndCodeIsCorruption) {
  EXPECT_TRUE(IsCorruption(LzwDecompress(PackCodes({65}), 1)));
  EXPECT_TRUE(IsCorruption(LzwDecompress(std::vector<uint8_t>{}, 0)));
  std::vector<uint8_t> half_code = {0x04};
  EXPECT_TRUE(IsCorruption(LzwDecompress(half_code, 0)));
}

TEST(LzwAdversarialTest, TrailingBytesAfterEndAreIgnored) {
  std::vector<uint8_t> packed = LzwCompress(Bytes("abcabcabc"));
  packed.push_back(0xde);
  packed.push_back(0xad);
  auto out = LzwDecompress(packed, 9);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, Bytes("abcabcabc"));
}

TEST(LzwAdversarialTest, BitFlipFuzzNeverCrashes) {
  // Every single-bit corruption of a real compressed tile must come back
  // as a Status or a (wrong) byte vector of the expected size — never UB.
  // The ASan/UBSan CI job runs this test to enforce the "never UB" half.
  std::vector<uint8_t> tile;
  for (int i = 0; i < 4096; ++i) {
    tile.push_back(static_cast<uint8_t>((i / 7) % 200));
  }
  std::vector<uint8_t> packed = LzwCompress(tile);
  for (size_t pos = 0; pos < packed.size(); pos += 3) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> mutated = packed;
      mutated[pos] ^= bit;
      auto result = LzwDecompress(mutated, tile.size());
      if (result.ok()) {
        EXPECT_EQ(result->size(), tile.size());
      } else {
        EXPECT_TRUE(IsCorruption(result));
      }
    }
  }
  // Truncation sweep: every proper prefix lacks END (the last byte holds
  // its low bits), so each is corruption.
  for (size_t len = 0; len < packed.size(); ++len) {
    EXPECT_TRUE(IsCorruption(LzwDecompress(packed.data(), len, tile.size())))
        << len;
  }
}

}  // namespace
}  // namespace paradise::codec
