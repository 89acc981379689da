#ifndef SPATE_COMMON_CODING_H_
#define SPATE_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace spate {

// Little-endian fixed-width and LEB128-style varint encoders/decoders used by
// the storage formats. All Put* functions append to `dst`; all Get* functions
// consume from the front of `input` and return false on truncation.

inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  memcpy(buf, &value, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  memcpy(buf, &value, 8);
  dst->append(buf, 8);
}

/// Reads 4 bytes at `p` as a little-endian uint32 without a raw memcpy from
/// caller-controlled input. The caller must guarantee 4 readable bytes; the
/// byte-assembly form is endian-explicit and keeps unaligned/hostile-input
/// loads in one audited place (lint rule 7 bans open-coded memcpy in the
/// decoder sources).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Reads 8 bytes at `p` as a little-endian uint64, under the same contract
/// as LoadLe32: the caller guarantees 8 readable bytes.
inline uint64_t LoadLe64(const unsigned char* p) {
  return static_cast<uint64_t>(LoadLe32(p)) |
         (static_cast<uint64_t>(LoadLe32(p + 4)) << 32);
}

inline bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  memcpy(value, input->data(), 4);
  input->RemovePrefix(4);
  return true;
}

inline bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  memcpy(value, input->data(), 8);
  input->RemovePrefix(8);
  return true;
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  dst->append(reinterpret_cast<char*>(buf), n);
}

inline void PutVarint32(std::string* dst, uint32_t v) {
  PutVarint64(dst, v);
}

inline bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint64_t byte = static_cast<unsigned char>((*input)[0]);
    input->RemovePrefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

inline bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v64 = 0;
  if (!GetVarint64(input, &v64) || v64 > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v64);
  return true;
}

/// ZigZag maps signed integers to unsigned so small magnitudes stay short
/// under varint encoding.
inline uint64_t ZigZagEncode64(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode64(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Appends a varint-length-prefixed byte string.
inline void PutLengthPrefixed(std::string* dst, Slice value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

inline bool GetLengthPrefixed(Slice* input, Slice* result) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len) || input->size() < len) return false;
  *result = Slice(input->data(), static_cast<size_t>(len));
  input->RemovePrefix(static_cast<size_t>(len));
  return true;
}

}  // namespace spate

#endif  // SPATE_COMMON_CODING_H_
