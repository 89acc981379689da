#include "compress/lz77.h"

#include <algorithm>

#include "common/coding.h"

namespace spate {
namespace {

constexpr int kHashBits = 16;
constexpr uint32_t kHashSize = 1u << kHashBits;

// Multiplicative hash over the next 4 bytes.
inline uint32_t Hash4(const unsigned char* p) {
  return (LoadLe32(p) * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

Lz77Matcher::Lz77Matcher(Lz77Options options) : options_(options) {
  head_.assign(kHashSize, -1);
}

std::vector<LzToken> Lz77Matcher::Parse(Slice input) {
  std::vector<LzToken> tokens;
  const auto* data = reinterpret_cast<const unsigned char*>(input.data());
  const size_t n = input.size();

  std::fill(head_.begin(), head_.end(), -1);
  prev_.assign(n, -1);

  const uint32_t window = options_.window_size;
  const uint32_t min_match = options_.min_match;
  const uint32_t max_match = options_.max_match;

  // Finds the longest match at `pos` (hash chain already holds only
  // positions < pos). Returns length 0 if below min_match.
  auto find_match = [&](size_t pos, uint32_t* distance) -> uint32_t {
    int32_t candidate = head_[Hash4(data + pos)];
    uint32_t best_len = 0;
    uint32_t chain = options_.max_chain;
    const uint32_t max_here =
        static_cast<uint32_t>(std::min<size_t>(max_match, n - pos));
    while (candidate >= 0 && chain-- > 0) {
      const uint32_t dist = static_cast<uint32_t>(pos - candidate);
      if (dist > window) break;  // chain only gets older
      // Quick reject: a better match must improve on byte best_len.
      if (best_len == 0 ||
          data[candidate + best_len] == data[pos + best_len]) {
        uint32_t len = 0;
        while (len < max_here && data[candidate + len] == data[pos + len]) {
          ++len;
        }
        if (len > best_len) {
          best_len = len;
          *distance = dist;
          if (len >= max_here) break;
        }
      }
      candidate = prev_[candidate];
    }
    return best_len >= min_match ? best_len : 0;
  };

  auto insert = [&](size_t pos) {
    const uint32_t h = Hash4(data + pos);
    prev_[pos] = head_[h];
    head_[h] = static_cast<int32_t>(pos);
  };

  size_t pos = 0;
  size_t literal_start = 0;
  while (pos + min_match <= n) {
    uint32_t dist = 0;
    uint32_t len = find_match(pos, &dist);
    if (len == 0) {
      insert(pos);
      ++pos;
      continue;
    }

    // One-step lazy evaluation: if the match starting one byte later is
    // strictly longer, emit this byte as a literal and retry there.
    if (options_.lazy_matching && len < max_match &&
        pos + 1 + min_match <= n) {
      insert(pos);
      uint32_t next_dist = 0;
      const uint32_t next_len = find_match(pos + 1, &next_dist);
      if (next_len > len) {
        ++pos;  // defer; the byte at pos joins the literal run
        dist = next_dist;
        len = next_len;
      }
    } else {
      insert(pos);
    }

    tokens.push_back(
        LzToken{static_cast<uint32_t>(pos - literal_start), len, dist});
    // Insert hash entries for the matched region so later matches can
    // reference into it (pos itself was inserted above).
    const size_t end = pos + len;
    for (size_t i = pos + 1; i < end && i + min_match <= n; ++i) {
      insert(i);
    }
    pos = end;
    literal_start = pos;
  }

  if (literal_start < n) {
    tokens.push_back(
        LzToken{static_cast<uint32_t>(n - literal_start), 0, 0});
  }
  return tokens;
}

std::string LzReconstruct(Slice input, const std::vector<LzToken>& tokens) {
  std::string out;
  size_t in_pos = 0;
  for (const LzToken& t : tokens) {
    out.append(input.data() + in_pos, t.literal_len);
    in_pos += t.literal_len + t.match_len;
    if (t.match_len > 0) {
      size_t from = out.size() - t.distance;
      for (uint32_t i = 0; i < t.match_len; ++i) {
        out.push_back(out[from + i]);
      }
    }
  }
  return out;
}

}  // namespace spate
