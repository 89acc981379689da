// Fuzz target: the byte/bit primitives every storage format is built from —
// varints, fixed-width fields, length prefixes, the LSB-first bit reader,
// canonical-Huffman table construction and the tANS block decoder. These
// sit below the envelope/container formats, so a bug here is reachable from
// every decoder at once. Alongside the no-crash contract the harness checks
// the primitives' own algebra: value round-trips, the bit reader's overflow
// accounting, and table builders rejecting what they cannot represent.
//
// FUZZ-COVERS: huffman.h:Init
// FUZZ-COVERS: huffman.h:ReadCodeLengths
// FUZZ-COVERS: tans.h:TansDecodeBlock

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_stream.h"
#include "common/coding.h"
#include "common/slice.h"
#include "common/status.h"
#include "compress/huffman.h"
#include "compress/tans.h"

namespace {

/// Caps what a hostile block header may demand from the block decoders in
/// this harness — mirrors the callers, which always pass a bound derived
/// from a validated envelope size.
constexpr uint64_t kMaxSymbols = 1u << 20;

void DriveVarints(spate::Slice input) {
  uint64_t v64 = 0;
  while (spate::GetVarint64(&input, &v64)) {
    // Value round-trip: whatever decoded must re-encode to the same value
    // (byte identity is not promised — over-long varint forms decode too).
    std::string reencoded;
    spate::PutVarint64(&reencoded, v64);
    spate::Slice check(reencoded);
    uint64_t v2 = 0;
    if (!spate::GetVarint64(&check, &v2) || v2 != v64 || !check.empty()) {
      __builtin_trap();
    }
    if (spate::ZigZagEncode64(spate::ZigZagDecode64(v64)) != v64) {
      __builtin_trap();
    }
  }
}

void DriveFixedAndPrefixed(spate::Slice input) {
  uint32_t f32 = 0;
  uint64_t f64 = 0;
  spate::Slice cursor = input;
  while (spate::GetFixed32(&cursor, &f32)) {
  }
  cursor = input;
  while (spate::GetFixed64(&cursor, &f64)) {
  }
  cursor = input;
  spate::Slice piece;
  while (spate::GetLengthPrefixed(&cursor, &piece)) {
    // A length-prefixed slice always lies inside the remaining input.
    if (piece.size() > input.size()) __builtin_trap();
  }
  if (input.size() >= 4) {
    const auto* p = reinterpret_cast<const unsigned char*>(input.data());
    spate::Slice le(input.data(), 4);
    uint32_t fixed = 0;
    // LoadLe32 and GetFixed32 read the same little-endian layout.
    if (!spate::GetFixed32(&le, &fixed) || spate::LoadLe32(p) != fixed) {
      __builtin_trap();
    }
  }
  if (input.size() >= 8) {
    const auto* p = reinterpret_cast<const unsigned char*>(input.data());
    spate::Slice le(input.data(), 8);
    uint64_t fixed = 0;
    // Likewise LoadLe64 and GetFixed64.
    if (!spate::GetFixed64(&le, &fixed) || spate::LoadLe64(p) != fixed) {
      __builtin_trap();
    }
  }
}

void DriveBitReader(spate::Slice input) {
  spate::BitReader reader(input);
  // Read widths walked from the input's own bytes: 1..57 bits at a time.
  for (size_t i = 0; i < input.size(); ++i) {
    const int count = 1 + static_cast<unsigned char>(input[i]) % 57;
    const uint64_t peeked = reader.PeekBits(count);
    if (reader.ReadBits(count) != peeked) __builtin_trap();
    if (count < 57 && (peeked >> count) != 0) __builtin_trap();
  }
  // The overflow flag and the consumed counter must agree.
  if (reader.overflowed() != (reader.bits_consumed() > input.size() * 8)) {
    __builtin_trap();
  }
}

void DriveHuffman(spate::Slice input) {
  // Interpret the input's nibbles as a code-length array (the on-disk
  // encoding is 4-bit entries, so this reaches the same value space).
  std::vector<uint8_t> lengths;
  lengths.reserve(input.size() * 2);
  for (size_t i = 0; i < input.size() && lengths.size() < 512; ++i) {
    const auto byte = static_cast<unsigned char>(input[i]);
    lengths.push_back(byte & 0x0f);
    lengths.push_back(byte >> 4);
  }
  spate::HuffmanDecoder decoder;
  if (decoder.Init(lengths).ok()) {
    // A valid table must decode *something* from arbitrary bits without
    // reading out of its own bounds; bad prefixes surface as -1.
    spate::BitReader reader(input);
    for (int i = 0; i < 64; ++i) {
      if (decoder.Decode(&reader) < 0) break;
    }
  }

  // The serialized code-length reader over the same bytes.
  spate::BitReader reader(input);
  std::vector<uint8_t> read_lengths;
  if (spate::ReadCodeLengths(&reader, kMaxSymbols, &read_lengths).ok()) {
    if (read_lengths.size() > kMaxSymbols) __builtin_trap();
    spate::HuffmanDecoder from_stream;
    (void)from_stream.Init(read_lengths);
  }
}

void DriveTans(spate::Slice input) {
  // Blocks are self-delimiting: keep decoding while the decoder consumes
  // bytes, as the tans codec's two-block layout does.
  spate::Slice cursor = input;
  std::string output;
  while (!cursor.empty()) {
    const size_t before = cursor.size();
    output.clear();
    if (!spate::TansDecodeBlock(&cursor, &output, kMaxSymbols).ok()) break;
    if (output.size() > kMaxSymbols) {
      __builtin_trap();  // decoder exceeded its declared-output cap
    }
    if (cursor.size() >= before) break;  // no forward progress
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const spate::Slice input(reinterpret_cast<const char*>(data), size);
  DriveVarints(input);
  DriveFixedAndPrefixed(input);
  DriveBitReader(input);
  DriveHuffman(input);
  DriveTans(input);
  return 0;
}
