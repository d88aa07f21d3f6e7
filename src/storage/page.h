#ifndef PARADISE_STORAGE_PAGE_H_
#define PARADISE_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <functional>

namespace paradise::storage {

/// Fixed page size, matching SHORE-era systems.
inline constexpr size_t kPageSize = 8192;

/// Pages are allocated in fixed-size extents (Section 2.2).
inline constexpr uint32_t kPagesPerExtent = 8;

using PageNo = uint32_t;
inline constexpr PageNo kInvalidPageNo = 0xffffffff;

/// Identifies a page within one node's set of volumes.
struct PageId {
  uint32_t volume = 0;
  PageNo page_no = kInvalidPageNo;

  friend bool operator==(const PageId&, const PageId&) = default;
};

struct PageIdHash {
  size_t operator()(const PageId& id) const {
    return std::hash<uint64_t>()(
        (static_cast<uint64_t>(id.volume) << 32) | id.page_no);
  }
};

/// Raw page frame. Interpretation (slotted page, index node, LOB data) is
/// up to the layer using it. Header layout: bytes [0, 8) hold the page LSN
/// used by recovery, bytes [8, 12) a checksum stamped by the volume on
/// write and verified by the buffer pool on fetch, bytes [12, 16) pad the
/// payload to 8-byte alignment. A stored checksum of 0 means "never
/// stamped" (a fresh page), so reads of unwritten pages always verify.
class Page {
 public:
  Page() { data_.fill(0); }

  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }

  uint64_t lsn() const {
    uint64_t v;
    std::memcpy(&v, data_.data(), sizeof(v));
    return v;
  }
  void set_lsn(uint64_t lsn) { std::memcpy(data_.data(), &lsn, sizeof(lsn)); }

  uint32_t stored_checksum() const {
    uint32_t v;
    std::memcpy(&v, data_.data() + kChecksumOffset, sizeof(v));
    return v;
  }
  void set_stored_checksum(uint32_t sum) {
    std::memcpy(data_.data() + kChecksumOffset, &sum, sizeof(sum));
  }

  /// Word-parallel FNV-1a over the LSN and payload, in the style of
  /// PostgreSQL's pg_checksum_block: the page is read as rows of kLanes
  /// 32-bit words, word j of every row feeds lane j, and the lanes XOR-fold
  /// into one value at the end. The lanes are independent, so the compiler
  /// vectorizes the row loop. The checksum word and pad are read as zero.
  /// Never returns 0: the computed value 0 maps to 1 so that 0 stays
  /// reserved for "never stamped".
  uint32_t ComputeChecksum() const {
    std::array<uint32_t, kLanes> sums = kLaneSeeds;
    uint32_t row[kLanes] = {};
    for (size_t r = 0; r < kPageSize / sizeof(row); ++r) {
      std::memcpy(row, data_.data() + r * sizeof(row), sizeof(row));
      if (r == 0) {  // the checksum word and its pad
        row[kChecksumOffset / 4] = 0;
        row[kChecksumOffset / 4 + 1] = 0;
      }
      for (size_t j = 0; j < kLanes; ++j) sums[j] = Mix(sums[j], row[j]);
    }
    uint32_t h = 0;
    for (size_t j = 0; j < kLanes; ++j) h ^= sums[j];
    return h == 0 ? 1 : h;
  }

  void StampChecksum() { set_stored_checksum(ComputeChecksum()); }

  /// True iff the page was never stamped or its contents match the stamp.
  bool VerifyChecksum() const {
    uint32_t stored = stored_checksum();
    return stored == 0 || stored == ComputeChecksum();
  }

  /// Payload area after the header (LSN + checksum + pad).
  static constexpr size_t kChecksumOffset = 8;
  static constexpr size_t kHeaderSize = 16;
  static constexpr size_t kPayloadSize = kPageSize - kHeaderSize;
  uint8_t* payload() { return data_.data() + kHeaderSize; }
  const uint8_t* payload() const { return data_.data() + kHeaderSize; }

 private:
  static constexpr size_t kLanes = 32;
  static_assert(kPageSize % (kLanes * sizeof(uint32_t)) == 0);
  static_assert(kHeaderSize == kChecksumOffset + 2 * sizeof(uint32_t));

  /// One lane step: FNV multiply, then an xorshift. PostgreSQL's step
  /// `t * prime ^ (t >> 17)` maps distinct states together (about 42% of
  /// 32-bit inputs collide), so a difference can vanish a few words later.
  /// Multiply-then-xorshift composes two bijections: a change confined to
  /// one lane, such as any single-bit flip, always survives to the fold.
  static constexpr uint32_t Mix(uint32_t sum, uint32_t word) {
    uint32_t t = (sum ^ word) * 16777619u;
    return t ^ (t >> 17);
  }

  /// Distinct per-lane starting values (SplitMix64 outputs). With equal
  /// starts, lanes fed the same words (a page of one repeated 32-bit value)
  /// would end equal and cancel in pairs in the XOR fold.
  static constexpr std::array<uint32_t, kLanes> kLaneSeeds = [] {
    std::array<uint32_t, kLanes> seeds{};
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (uint32_t& seed : seeds) {
      uint64_t z = (x += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      seed = static_cast<uint32_t>(z ^ (z >> 31));
    }
    return seeds;
  }();

  std::array<uint8_t, kPageSize> data_;
};

}  // namespace paradise::storage

#endif  // PARADISE_STORAGE_PAGE_H_
