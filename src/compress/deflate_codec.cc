#include "compress/deflate_codec.h"

#include <algorithm>
#include <vector>

#include "common/bit_stream.h"
#include "compress/huffman.h"
#include "compress/lz_slots.h"

namespace spate {
namespace {

using compress_internal::GetEnvelope;
using compress_internal::PutEnvelope;
using compress_internal::VerifyDecoded;

// Alphabet: 0..255 literals, 256 end-of-block, 257.. length slots.
constexpr int kEob = 256;
constexpr int kLitLenSymbols = 257 + kNumLengthSlots;  // 286
// Re-histogram and emit fresh Huffman tables every this many input bytes.
constexpr size_t kBlockInputBytes = 1u << 20;

Lz77Options DeflateOptions() {
  Lz77Options o;
  o.window_size = 1u << 15;  // match the 30-slot distance table
  o.min_match = 4;
  o.max_match = 258;
  o.max_chain = 64;
  return o;
}

struct Block {
  size_t first_token = 0;
  size_t num_tokens = 0;
};

/// `in_pos` indexes into `input`.
void EncodeBlock(const std::vector<LzToken>& tokens, const Block& block,
                 Slice input, size_t* in_pos, bool final_block,
                 BitWriter* writer) {
  // Histogram the block.
  std::vector<uint64_t> lit_freq(kLitLenSymbols, 0);
  std::vector<uint64_t> dist_freq(kNumDistSlots, 0);
  size_t scan_pos = *in_pos;
  for (size_t i = 0; i < block.num_tokens; ++i) {
    const LzToken& t = tokens[block.first_token + i];
    for (uint32_t j = 0; j < t.literal_len; ++j) {
      ++lit_freq[static_cast<unsigned char>(input[scan_pos + j])];
    }
    scan_pos += t.literal_len + t.match_len;
    if (t.match_len > 0) {
      ++lit_freq[257 + LengthSlot(t.match_len)];
      ++dist_freq[DistSlot(t.distance)];
    }
  }
  ++lit_freq[kEob];

  const std::vector<uint8_t> lit_lengths = BuildHuffmanCodeLengths(lit_freq);
  std::vector<uint8_t> dist_lengths = BuildHuffmanCodeLengths(dist_freq);

  writer->WriteBit(final_block);
  WriteCodeLengths(writer, lit_lengths);
  WriteCodeLengths(writer, dist_lengths);

  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);

  for (size_t i = 0; i < block.num_tokens; ++i) {
    const LzToken& t = tokens[block.first_token + i];
    for (uint32_t j = 0; j < t.literal_len; ++j) {
      lit_enc.Encode(writer, static_cast<unsigned char>(input[*in_pos + j]));
    }
    *in_pos += t.literal_len + t.match_len;
    if (t.match_len > 0) {
      const int lslot = LengthSlot(t.match_len);
      lit_enc.Encode(writer, 257 + lslot);
      writer->WriteBits(t.match_len - kLengthBase[lslot],
                        kLengthExtraBits[lslot]);
      const int dslot = DistSlot(t.distance);
      dist_enc.Encode(writer, dslot);
      writer->WriteBits(t.distance - kDistBase[dslot], kDistExtraBits[dslot]);
    }
  }
  lit_enc.Encode(writer, kEob);
}

/// Decodes `payload` onto the end of `*output`, writing through a pointer
/// into the string's own storage. `original_size` is untrusted until the
/// CRC verifies, so the buffer starts at min(original_size,
/// kMaxUntrustedReserve) and doubles as output arrives, never past the
/// recorded size; a literal or match that would write past it fails at the
/// write. On success `*output` ends exactly at the last decoded byte; on
/// failure its tail is unspecified and the caller truncates it.
Status Inflate(Slice payload, uint64_t original_size, std::string* output) {
  const size_t offset = output->size();
  if (original_size == 0) return Status::OK();
  const size_t limit = offset + static_cast<size_t>(original_size);
  output->resize(offset + static_cast<size_t>(std::min<uint64_t>(
                              original_size, kMaxUntrustedReserve)));
  char* base = output->data();
  size_t end = output->size();  // allocated end, never past `limit`
  size_t pos = offset;          // next write
  // Makes room for `n` more bytes, given pos + n <= limit.
  auto grow = [&](size_t n) {
    end = offset + std::min(limit - offset,
                            std::max(2 * (end - offset), pos + n - offset));
    output->resize(end);
    base = output->data();
  };

  BitReader reader(payload);
  std::vector<uint8_t> lit_lengths, dist_lengths;
  HuffmanDecoder lit_dec, dist_dec;
  bool final_block = false;
  while (!final_block) {
    final_block = reader.ReadBit();
    SPATE_RETURN_IF_ERROR(
        ReadCodeLengths(&reader, kLitLenSymbols, &lit_lengths));
    SPATE_RETURN_IF_ERROR(
        ReadCodeLengths(&reader, kNumDistSlots, &dist_lengths));
    SPATE_RETURN_IF_ERROR(lit_dec.Init(lit_lengths));
    // A block with no matches has an empty distance alphabet.
    bool has_dists = false;
    for (uint8_t l : dist_lengths) has_dists |= (l != 0);
    if (has_dists) SPATE_RETURN_IF_ERROR(dist_dec.Init(dist_lengths));

    for (;;) {
      const int32_t sym = lit_dec.Decode(&reader);
      if (sym < 0 || reader.overflowed()) {
        return Status::Corruption("deflate: malformed symbol stream");
      }
      if (sym < 256) {
        if (pos == end) {
          if (end == limit) {
            return Status::Corruption("deflate: output overruns recorded size");
          }
          grow(1);
        }
        base[pos++] = static_cast<char>(sym);
        continue;
      }
      if (sym == kEob) break;
      const int lslot = sym - 257;
      if (lslot >= kNumLengthSlots) {
        return Status::Corruption("deflate: bad length slot");
      }
      const uint32_t length =
          kLengthBase[lslot] +
          static_cast<uint32_t>(reader.ReadBits(kLengthExtraBits[lslot]));
      if (!has_dists) {
        return Status::Corruption("deflate: match without distance table");
      }
      const int32_t dslot = dist_dec.Decode(&reader);
      if (dslot < 0 || dslot >= kNumDistSlots) {
        return Status::Corruption("deflate: bad distance slot");
      }
      const uint32_t distance =
          kDistBase[dslot] +
          static_cast<uint32_t>(reader.ReadBits(kDistExtraBits[dslot]));
      if (distance > pos - offset) {
        return Status::Corruption("deflate: distance before stream start");
      }
      if (length > limit - pos) {
        return Status::Corruption("deflate: output overruns recorded size");
      }
      if (length > end - pos) grow(length);
      char* dst = base + pos;
      const char* src = dst - distance;
      if (distance >= length) {
        std::copy_n(src, length, dst);
      } else {
        // Overlapping: each byte may be one this match just wrote, so copy
        // forward one byte at a time.
        for (uint32_t i = 0; i < length; ++i) dst[i] = src[i];
      }
      pos += length;
    }
  }
  output->resize(pos);
  if (reader.overflowed()) {
    return Status::Corruption("deflate: truncated payload");
  }
  return Status::OK();
}

}  // namespace

Status DeflateCodec::Compress(Slice input, std::string* output) const {
  PutEnvelope(Id(), input, output);
  if (input.empty()) return Status::OK();

  Lz77Matcher matcher(DeflateOptions());
  const std::vector<LzToken> tokens = matcher.Parse(input);

  // Chunk tokens into blocks of ~kBlockInputBytes payload coverage.
  std::vector<Block> blocks;
  {
    Block current{0, 0};
    size_t covered = 0;
    for (size_t i = 0; i < tokens.size(); ++i) {
      covered += tokens[i].literal_len + tokens[i].match_len;
      ++current.num_tokens;
      if (covered >= kBlockInputBytes) {
        blocks.push_back(current);
        current = Block{i + 1, 0};
        covered = 0;
      }
    }
    if (current.num_tokens > 0) blocks.push_back(current);
  }
  if (blocks.empty()) blocks.push_back(Block{0, 0});

  BitWriter writer(output);
  size_t in_pos = 0;
  for (size_t b = 0; b < blocks.size(); ++b) {
    EncodeBlock(tokens, blocks[b], input, &in_pos, b + 1 == blocks.size(),
                &writer);
  }
  writer.Finish();
  return Status::OK();
}

Status DeflateCodec::Decompress(Slice input, std::string* output) const {
  Slice payload;
  uint64_t original_size = 0;
  uint32_t crc = 0;
  SPATE_RETURN_IF_ERROR(
      GetEnvelope(Id(), input, &payload, &original_size, &crc));
  const size_t offset = output->size();
  Status status = Inflate(payload, original_size, output);
  if (status.ok()) status = VerifyDecoded(*output, offset, original_size, crc);
  if (!status.ok()) output->resize(offset);
  return status;
}

}  // namespace spate
