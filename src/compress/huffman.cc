#include "compress/huffman.h"

#include <algorithm>
#include <array>

namespace spate {
namespace {

uint32_t ReverseBits(uint32_t code, int length) {
  uint32_t out = 0;
  for (int i = 0; i < length; ++i) {
    out = (out << 1) | (code & 1);
    code >>= 1;
  }
  return out;
}

/// First canonical (MSB-first) code of each code length (RFC 1951, 3.2.2):
/// the symbols of one length take consecutive codes from `next_code[len]`,
/// in symbol order. A fixed-size array, so assigning codes allocates
/// nothing.
using CodeTable = std::array<uint32_t, kMaxHuffmanBits + 1>;

CodeTable FirstCodes(const std::vector<uint8_t>& lengths) {
  CodeTable bl_count{};
  for (uint8_t len : lengths) {
    if (len) ++bl_count[len];
  }
  CodeTable next_code{};
  uint32_t code = 0;
  for (int bits = 1; bits <= kMaxHuffmanBits; ++bits) {
    code = (code + bl_count[bits - 1]) << 1;
    next_code[bits] = code;
  }
  return next_code;
}

}  // namespace

std::vector<uint8_t> BuildHuffmanCodeLengths(
    const std::vector<uint64_t>& freqs) {
  const size_t n = freqs.size();
  std::vector<uint8_t> lengths(n, 0);

  std::vector<uint32_t> present;
  for (size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) present.push_back(static_cast<uint32_t>(s));
  }
  if (present.empty()) return lengths;
  if (present.size() == 1) {
    lengths[present[0]] = 1;
    return lengths;
  }

  // Pre-scale frequencies to 32 bits so package weight sums cannot overflow
  // (packages accumulate up to 2^14 leaves across 15 levels).
  uint64_t max_freq = 0;
  for (uint32_t s : present) max_freq = std::max(max_freq, freqs[s]);
  int shift = 0;
  while ((max_freq >> shift) > 0xffffffffull) ++shift;

  // Package-merge: optimal length-limited code lengths with Kraft equality.
  // Items carry the multiset of leaves they contain; a symbol's final code
  // length is the number of selected items it appears in.
  struct Item {
    uint64_t weight;
    std::vector<uint32_t> leaves;  // indices into `present`
  };
  const size_t m = present.size();
  std::vector<Item> leaves(m);
  for (size_t i = 0; i < m; ++i) {
    leaves[i] = Item{std::max<uint64_t>(1, freqs[present[i]] >> shift),
                     {static_cast<uint32_t>(i)}};
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const Item& a, const Item& b) { return a.weight < b.weight; });

  std::vector<Item> level = leaves;  // level 1 (deepest)
  for (int depth = 1; depth < kMaxHuffmanBits; ++depth) {
    // Package adjacent pairs of the previous level.
    std::vector<Item> packages;
    packages.reserve(level.size() / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      Item pkg;
      pkg.weight = level[i].weight + level[i + 1].weight;
      pkg.leaves = level[i].leaves;
      pkg.leaves.insert(pkg.leaves.end(), level[i + 1].leaves.begin(),
                        level[i + 1].leaves.end());
      packages.push_back(std::move(pkg));
    }
    // Merge packages with a fresh copy of the leaves.
    std::vector<Item> merged;
    merged.reserve(packages.size() + m);
    std::merge(
        leaves.begin(), leaves.end(),
        std::make_move_iterator(packages.begin()),
        std::make_move_iterator(packages.end()), std::back_inserter(merged),
        [](const Item& a, const Item& b) { return a.weight < b.weight; });
    level = std::move(merged);
  }

  // Select the 2m-2 cheapest items of the final level; each occurrence of a
  // leaf adds one to its code length.
  std::vector<uint32_t> depth_of(m, 0);
  const size_t take = 2 * m - 2;
  for (size_t i = 0; i < take && i < level.size(); ++i) {
    for (uint32_t leaf : level[i].leaves) ++depth_of[leaf];
  }
  for (size_t i = 0; i < m; ++i) {
    lengths[present[i]] = static_cast<uint8_t>(depth_of[i]);
  }
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint8_t>& lengths)
    : lengths_(lengths) {
  CodeTable next_code = FirstCodes(lengths);
  codes_.resize(lengths.size(), 0);
  for (size_t s = 0; s < lengths.size(); ++s) {
    const uint8_t len = lengths[s];
    if (len) codes_[s] = ReverseBits(next_code[len]++, len);
  }
}

Status HuffmanDecoder::Init(const std::vector<uint8_t>& lengths) {
  max_bits_ = 1;
  uint64_t kraft = 0;
  size_t present = 0;
  for (uint8_t len : lengths) {
    if (len == 0) continue;
    if (len > kMaxHuffmanBits) {
      return Status::Corruption("huffman code length out of range");
    }
    max_bits_ = std::max<int>(max_bits_, len);
    kraft += 1ull << (kMaxHuffmanBits - len);
    ++present;
  }
  if (present == 0) {
    return Status::Corruption("huffman table has no symbols");
  }
  const uint64_t full = 1ull << kMaxHuffmanBits;
  // Accept complete codes, and the degenerate single-symbol code (length 1,
  // half the code space).
  if (kraft != full && !(present == 1 && kraft == full / 2)) {
    return Status::Corruption("huffman code lengths are not a prefix code");
  }

  CodeTable next_code = FirstCodes(lengths);
  table_.assign(1u << max_bits_, Entry{});
  for (size_t s = 0; s < lengths.size(); ++s) {
    const uint8_t len = lengths[s];
    if (len == 0) continue;
    const uint32_t rev = ReverseBits(next_code[len]++, len);
    // Fill every table slot whose low `len` bits equal the reversed code.
    for (uint32_t hi = 0; hi < (1u << (max_bits_ - len)); ++hi) {
      Entry& e = table_[rev | (hi << len)];
      e.symbol = static_cast<uint16_t>(s);
      e.length = len;
    }
  }
  return Status::OK();
}

void WriteCodeLengths(BitWriter* writer,
                      const std::vector<uint8_t>& lengths) {
  writer->WriteBits(lengths.size(), 16);
  for (uint8_t len : lengths) writer->WriteBits(len, 4);
}

Status ReadCodeLengths(BitReader* reader, size_t max_symbols,
                       std::vector<uint8_t>* lengths) {
  const uint64_t count = reader->ReadBits(16);
  if (count > max_symbols) {
    return Status::Corruption("code length table too large");
  }
  lengths->resize(count);
  // Twelve 4-bit entries per 48-bit read; the last read takes the rest.
  for (uint64_t i = 0; i < count; i += 12) {
    const int n = static_cast<int>(std::min<uint64_t>(12, count - i));
    uint64_t word = reader->ReadBits(4 * n);
    for (int j = 0; j < n; ++j, word >>= 4) {
      (*lengths)[i + j] = static_cast<uint8_t>(word & 0xf);
    }
  }
  if (reader->overflowed()) {
    return Status::Corruption("truncated code length table");
  }
  return Status::OK();
}

}  // namespace spate
