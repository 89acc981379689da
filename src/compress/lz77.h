#ifndef SPATE_COMPRESS_LZ77_H_
#define SPATE_COMPRESS_LZ77_H_

#include <cstdint>
#include <vector>

#include "common/slice.h"

namespace spate {

/// One LZ77 parse step: copy `literal_len` bytes verbatim from the input,
/// then (unless `match_len == 0`, which only happens in a final flush token)
/// copy `match_len` bytes starting `distance` bytes back in the output.
struct LzToken {
  uint32_t literal_len = 0;
  uint32_t match_len = 0;  // 0 = no match (trailing literals)
  uint32_t distance = 0;   // 1..window
};

/// Tuning knobs for the hash-chain matcher.
struct Lz77Options {
  /// Sliding-window size; distances never exceed this.
  uint32_t window_size = 1u << 16;
  /// Minimum match length worth emitting.
  uint32_t min_match = 4;
  /// Maximum match length emitted in one token.
  uint32_t max_match = 258;
  /// Cap on hash-chain probes per position (effort/ratio trade-off).
  uint32_t max_chain = 64;
  /// One-step lazy matching (zlib-style): defer a match if the next
  /// position holds a longer one. ~5% better ratio for ~20% more CPU.
  bool lazy_matching = true;
};

/// Greedy hash-chain LZ77 matcher (the shared parse stage of the deflate,
/// lzma-lite and tans codecs). Deterministic and allocation-reusing.
class Lz77Matcher {
 public:
  explicit Lz77Matcher(Lz77Options options = Lz77Options());

  /// Parses `input` into a token sequence. The concatenation of the tokens'
  /// literal runs and back-references reproduces `input` exactly.
  std::vector<LzToken> Parse(Slice input);

  const Lz77Options& options() const { return options_; }

 private:
  Lz77Options options_;
  std::vector<int32_t> head_;  // hash bucket -> most recent position
  std::vector<int32_t> prev_;  // position -> previous position in chain
};

/// Reconstructs the original bytes from a token sequence produced by
/// `Lz77Matcher::Parse` over `input` literals. `literals` must be the
/// original input (tokens index into it); used by tests as an oracle.
std::string LzReconstruct(Slice input, const std::vector<LzToken>& tokens);

}  // namespace spate

#endif  // SPATE_COMPRESS_LZ77_H_
