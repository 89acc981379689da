#ifndef SPATE_COMMON_BIT_STREAM_H_
#define SPATE_COMMON_BIT_STREAM_H_

#include <cstdint>
#include <string>

#include "common/check.h"
#include "common/coding.h"
#include "common/slice.h"

namespace spate {

/// Append-only LSB-first bit writer backed by a std::string.
///
/// Bits are packed into bytes starting at the least-significant bit, the
/// layout used by DEFLATE and by all SPATE entropy coders. Call `Finish()`
/// to flush the final partial byte.
class BitWriter {
 public:
  explicit BitWriter(std::string* out) : out_(out) {}

  /// Writes the low `count` bits of `bits` (count <= 57).
  void WriteBits(uint64_t bits, int count) {
    SPATE_DCHECK(count >= 0 && count <= 57);
    SPATE_DCHECK(count == 64 || (bits >> count) == 0);
    acc_ |= bits << filled_;
    filled_ += count;
    while (filled_ >= 8) {
      out_->push_back(static_cast<char>(acc_ & 0xff));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Flushes any buffered partial byte (padding with zero bits).
  void Finish() {
    if (filled_ > 0) {
      out_->push_back(static_cast<char>(acc_ & 0xff));
      acc_ = 0;
      filled_ = 0;
    }
  }

  /// Number of bits written so far (excluding padding).
  uint64_t bit_count() const { return out_->size() * 8 + filled_; }

 private:
  std::string* out_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

/// LSB-first bit reader over a byte slice. Reading (or consuming a peek)
/// past the end yields zero bits and sets `overflowed()`, so decoders can
/// detect truncated input once at the end instead of checking every read.
class BitReader {
 public:
  explicit BitReader(Slice input) : input_(input) {}

  /// Returns the next `count` bits without consuming them. Peeking past the
  /// end of input yields zero bits (not an error until actually consumed).
  uint64_t PeekBits(int count) {
    SPATE_DCHECK(count >= 0 && count <= 57);
    if (filled_ < count) {
      if (input_.size() - pos_ >= 8) {
        // Word refill: OR in 8 bytes and count the whole bytes that fit
        // (at least 57 bits buffered afterwards). Bits of the next byte
        // that land above `filled_` are that byte's own bits, so the next
        // refill ORs the same values over them.
        acc_ |= LoadLe64(reinterpret_cast<const unsigned char*>(
                    input_.data() + pos_))
                << filled_;
        const int bytes = (64 - filled_) >> 3;
        pos_ += bytes;
        filled_ += bytes * 8;
      } else {
        while (filled_ < count) {
          uint64_t byte = 0;
          if (pos_ < input_.size()) {
            byte = static_cast<unsigned char>(input_[pos_++]);
          }
          acc_ |= byte << filled_;
          filled_ += 8;
        }
      }
    }
    return acc_ & ((count >= 64) ? ~0ull : ((1ull << count) - 1));
  }

  /// Consumes `count` bits (which must have been peeked or are readable).
  void Consume(int count) {
    SPATE_DCHECK_LE(count, filled_);
    acc_ >>= count;
    filled_ -= count;
    consumed_ += count;
    if (consumed_ > input_.size() * 8) overflowed_ = true;
  }

  uint64_t ReadBits(int count) {
    uint64_t result = PeekBits(count);
    Consume(count);
    return result;
  }

  bool ReadBit() { return ReadBits(1) != 0; }

  bool overflowed() const { return overflowed_; }

  /// Bits consumed so far.
  uint64_t bits_consumed() const { return consumed_; }

 private:
  Slice input_;
  size_t pos_ = 0;        // bytes fetched into the accumulator
  uint64_t acc_ = 0;      // buffered bits, next bit at LSB
  int filled_ = 0;        // valid bits in acc_
  uint64_t consumed_ = 0; // bits consumed by the caller
  bool overflowed_ = false;
};

}  // namespace spate

#endif  // SPATE_COMMON_BIT_STREAM_H_
