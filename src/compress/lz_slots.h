#ifndef SPATE_COMPRESS_LZ_SLOTS_H_
#define SPATE_COMPRESS_LZ_SLOTS_H_

#include <cstdint>

namespace spate {

// DEFLATE-style slot tables shared by the SPATE codecs: match lengths and
// distances are split into a slot symbol (entropy coded) plus raw extra bits.

/// Number of match-length slots (lengths 3..258).
constexpr int kNumLengthSlots = 29;
/// Number of distance slots (distances 1..32768).
constexpr int kNumDistSlots = 30;

constexpr uint16_t kLengthBase[kNumLengthSlots] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23,  27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr uint8_t kLengthExtraBits[kNumLengthSlots] = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
    2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

constexpr uint16_t kDistBase[kNumDistSlots] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr uint8_t kDistExtraBits[kNumDistSlots] = {
    0, 0, 0, 0, 1, 1, 2,  2,  3,  3,  4,  4,  5,  5,  6,
    6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/// Slot index for a match length in [3, 258].
inline int LengthSlot(uint32_t length) {
  for (int s = kNumLengthSlots - 1; s >= 0; --s) {
    if (length >= kLengthBase[s]) return s;
  }
  return 0;
}

/// Slot index for a distance in [1, 32768].
inline int DistSlot(uint32_t dist) {
  for (int s = kNumDistSlots - 1; s >= 0; --s) {
    if (dist >= kDistBase[s]) return s;
  }
  return 0;
}

// Extended (LZMA-style) distance slots: unbounded distances split into a
// 6-bit slot plus raw direct bits. Used by the lzma-lite codec.

/// Number of extended distance slots (covers distances < 2^32).
constexpr int kNumExtDistSlots = 64;

/// Extended slot for a distance >= 1.
inline uint32_t ExtDistSlot(uint32_t d) {
  if (d <= 4) return d - 1;
  const int bitlen = 31 - __builtin_clz(d);  // floor(log2(d)), >= 2 here
  return 2 * bitlen + ((d >> (bitlen - 1)) & 1);
}

/// Raw bits following an extended slot symbol.
inline int ExtDistDirectBits(uint32_t slot) {
  return slot < 4 ? 0 : static_cast<int>(slot / 2 - 1);
}

/// Smallest distance encoded by an extended slot.
inline uint32_t ExtDistBase(uint32_t slot) {
  if (slot < 4) return slot + 1;
  return (2 | (slot & 1)) << (slot / 2 - 1);
}

}  // namespace spate

#endif  // SPATE_COMPRESS_LZ_SLOTS_H_
