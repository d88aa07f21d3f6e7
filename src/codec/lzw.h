#ifndef PARADISE_CODEC_LZW_H_
#define PARADISE_CODEC_LZW_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace paradise::codec {

/// Lossless LZW compression [Wel84], as Paradise applies to array tiles
/// before they are written to disk (Section 2.5.1).
///
/// Format: a stream of 12-bit codes, MSB-first bit packing. Codes 0-255 are
/// literals, 256 is CLEAR (dictionary reset), 257 is END, 258+ are dictionary
/// entries. The encoder emits CLEAR whenever the dictionary fills, so inputs
/// of any size compress with bounded memory.
///
/// Both directions keep their dictionary in fixed-size per-thread tables
/// (40 KiB to compress, 32 KiB to decompress), so concurrent calls on
/// different threads are safe.
std::vector<uint8_t> LzwCompress(const uint8_t* data, size_t size);

inline std::vector<uint8_t> LzwCompress(const std::vector<uint8_t>& in) {
  return LzwCompress(in.data(), in.size());
}

/// Inverse of LzwCompress for a stream that decodes to exactly
/// `expected_size` bytes (a tile's raw size is recorded next to it).
/// Returns kCorruption on malformed input: a code beyond the dictionary, a
/// non-literal first code after CLEAR, a missing END code, or output that
/// would overrun or fall short of `expected_size`. Bytes after END are
/// ignored. An `expected_size` of 4 GiB or more is kInvalidArgument.
StatusOr<std::vector<uint8_t>> LzwDecompress(const uint8_t* data, size_t size,
                                             size_t expected_size);

inline StatusOr<std::vector<uint8_t>> LzwDecompress(
    const std::vector<uint8_t>& in, size_t expected_size) {
  return LzwDecompress(in.data(), in.size(), expected_size);
}

}  // namespace paradise::codec

#endif  // PARADISE_CODEC_LZW_H_
