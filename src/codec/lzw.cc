#include "codec/lzw.h"

namespace paradise::codec {

namespace {

constexpr uint32_t kClearCode = 256;
constexpr uint32_t kEndCode = 257;
constexpr uint32_t kFirstCode = 258;
constexpr uint32_t kCodeBits = 12;
constexpr uint32_t kMaxCodes = 1u << kCodeBits;  // 4096

/// Packs fixed-width codes MSB-first into a buffer sized for the worst case.
class BitPacker {
 public:
  explicit BitPacker(uint8_t* out) : out_(out) {}

  void Put(uint32_t code) {
    acc_ = (acc_ << kCodeBits) | code;
    bits_ += kCodeBits;
    while (bits_ >= 8) {
      bits_ -= 8;
      out_[size_++] = static_cast<uint8_t>(acc_ >> bits_);
    }
  }

  /// Pads the last partial byte with zero bits; returns the bytes written.
  size_t Flush() {
    if (bits_ > 0) {
      out_[size_++] = static_cast<uint8_t>(acc_ << (8 - bits_));
      bits_ = 0;
    }
    return size_;
  }

 private:
  uint8_t* out_;
  size_t size_ = 0;
  uint64_t acc_ = 0;
  uint32_t bits_ = 0;
};

/// Unpacks fixed-width codes written by BitPacker.
class BitUnpacker {
 public:
  BitUnpacker(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool Get(uint32_t* code) {
    while (bits_ < kCodeBits) {
      if (pos_ >= size_) return false;
      acc_ = (acc_ << 8) | data_[pos_++];
      bits_ += 8;
    }
    bits_ -= kCodeBits;
    *code = static_cast<uint32_t>((acc_ >> bits_) & (kMaxCodes - 1));
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  uint32_t bits_ = 0;
};

/// The encoder's dictionary, an open-addressed table keyed on
/// (prefix code << 8) | next byte. A filled slot holds (key << 12) | code;
/// codes start at kFirstCode, so a filled slot is never 0 and 0 marks an
/// empty one. At most 3838 of the 8192 slots fill before CLEAR, which
/// empties just those slots, so the table is all zero between calls.
struct EncoderDict {
  static constexpr uint32_t kSlotBits = 13;
  static constexpr uint32_t kSlots = 1u << kSlotBits;

  static uint32_t Home(uint32_t key) {
    return (key * 2654435761u) >> (32 - kSlotBits);
  }

  void Clear(uint32_t next_code) {
    for (uint32_t c = kFirstCode; c < next_code; ++c) slots[slot_of[c]] = 0;
  }

  uint32_t slots[kSlots];       // 32 KiB
  uint16_t slot_of[kMaxCodes];  // code -> its slot, for Clear; 8 KiB
};

/// A decoder dictionary entry. Every dictionary string is a run of bytes
/// already decoded: the string of the code before it plus the first byte
/// of the one after, which directly follows it in the output. An entry is
/// that run's position.
struct DecoderEntry {
  uint32_t offset;
  uint32_t length;
};

// Per-thread, zero-initialized once: a call neither allocates nor clears
// its dictionary.
thread_local EncoderDict tls_encoder_dict;
thread_local DecoderEntry tls_decoder_dict[kMaxCodes];  // 32 KiB

}  // namespace

std::vector<uint8_t> LzwCompress(const uint8_t* data, size_t size) {
  // Worst case: one 12-bit code per input byte, a CLEAR per 3838 codes,
  // and the leading CLEAR and trailing END.
  std::vector<uint8_t> out(size + size / 2 + size / 1024 + 8);
  BitPacker packer(out.data());
  packer.Put(kClearCode);
  if (size > 0) {
    EncoderDict& dict = tls_encoder_dict;
    uint32_t next_code = kFirstCode;
    uint32_t cur = data[0];
    for (size_t i = 1; i < size; ++i) {
      const uint32_t key = (cur << 8) | data[i];
      uint32_t slot = EncoderDict::Home(key);
      uint32_t entry;
      while ((entry = dict.slots[slot]) != 0 && entry >> kCodeBits != key) {
        slot = (slot + 1) & (EncoderDict::kSlots - 1);
      }
      if (entry != 0) {
        cur = entry & (kMaxCodes - 1);
        continue;
      }
      packer.Put(cur);
      if (next_code < kMaxCodes) {
        dict.slots[slot] = (key << kCodeBits) | next_code;
        dict.slot_of[next_code++] = static_cast<uint16_t>(slot);
      } else {
        packer.Put(kClearCode);
        dict.Clear(next_code);
        next_code = kFirstCode;
      }
      cur = data[i];
    }
    packer.Put(cur);
    dict.Clear(next_code);
  }
  packer.Put(kEndCode);
  out.resize(packer.Flush());
  return out;
}

StatusOr<std::vector<uint8_t>> LzwDecompress(const uint8_t* data, size_t size,
                                             size_t expected_size) {
  if (expected_size > UINT32_MAX) {
    return Status::InvalidArgument("LZW: output of 4 GiB or more");
  }
  std::vector<uint8_t> out(expected_size);
  uint8_t* const o = out.data();
  DecoderEntry* const dict = tls_decoder_dict;  // codes < next_code are set
  uint32_t next_code = kFirstCode;

  size_t pos = 0;
  size_t prev_start = 0;
  size_t prev_len = 0;  // 0 at the start and right after CLEAR
  BitUnpacker unpacker(data, size);
  uint32_t code;
  while (unpacker.Get(&code)) {
    if (code == kEndCode) {
      if (pos != expected_size) {
        return Status::Corruption("LZW: output shorter than expected");
      }
      return out;
    }
    if (code == kClearCode) {
      next_code = kFirstCode;
      prev_len = 0;
      continue;
    }
    // Right after CLEAR next_code is kFirstCode, so this also rejects a
    // non-literal first code.
    if (code >= next_code && !(code == next_code && prev_len != 0)) {
      return Status::Corruption("LZW: code beyond dictionary");
    }
    // The entry this code defines: the previous string plus this one's
    // first byte, which lands right after it, at pos.
    const DecoderEntry defined{static_cast<uint32_t>(prev_start),
                               static_cast<uint32_t>(prev_len + 1)};
    // In the KwKwK case (code == next_code) the string is `defined`
    // itself; the forward copy writes its last byte's source, o[pos],
    // before reading it.
    const DecoderEntry e = code < 256          ? DecoderEntry{0, 1}
                           : code < next_code ? dict[code]
                                              : defined;
    const size_t len = e.length;
    if (len > expected_size - pos) {
      return Status::Corruption("LZW: output longer than expected");
    }
    if (code < 256) {
      o[pos] = static_cast<uint8_t>(code);
    } else {
      for (size_t i = 0; i < len; ++i) o[pos + i] = o[e.offset + i];
    }
    if (prev_len != 0 && next_code < kMaxCodes) dict[next_code++] = defined;
    prev_start = pos;
    prev_len = len;
    pos += len;
  }
  return Status::Corruption("LZW: missing END code");
}

}  // namespace paradise::codec
