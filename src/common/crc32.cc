#include "common/crc32.h"

#include <array>

#include "common/coding.h"

namespace spate {
namespace {

constexpr uint32_t kPoly = 0xedb88320u;  // reflected IEEE polynomial

using Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slice-by-8 tables: `t[0]` is the classic bytewise table, and `t[k][b]` is
/// the CRC contribution of byte `b` followed by `k` zero bytes, so eight
/// lookups (one per byte of a little-endian word) advance the CRC 8 bytes.
constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

}  // namespace

uint32_t Crc32(Slice data, uint32_t seed) {
  uint32_t crc = ~seed;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

}  // namespace spate
