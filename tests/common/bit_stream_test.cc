#include "common/bit_stream.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"

namespace spate {
namespace {

/// Bits [pos, pos + count) of the LSB-first stream `bytes`, reading bits at
/// or past `end_bit` as zero: what a reader over the first `end_bit / 8`
/// bytes must return.
uint64_t ExpectedBits(const std::string& bytes, uint64_t end_bit,
                      uint64_t pos, int count) {
  uint64_t out = 0;
  for (int i = 0; i < count; ++i) {
    const uint64_t bit = pos + i;
    if (bit >= end_bit) break;
    const uint64_t b = (static_cast<unsigned char>(bytes[bit / 8]) >>
                        (bit % 8)) & 1;
    out |= b << i;
  }
  return out;
}

TEST(BitStreamTest, SingleBits) {
  std::string buf;
  BitWriter w(&buf);
  const bool bits[] = {true, false, true, true, false, false, true, false,
                       true};
  for (bool b : bits) w.WriteBit(b);
  w.Finish();
  ASSERT_EQ(buf.size(), 2u);  // 9 bits -> 2 bytes

  BitReader r(buf);
  for (bool b : bits) EXPECT_EQ(r.ReadBit(), b);
  EXPECT_FALSE(r.overflowed());
}

TEST(BitStreamTest, MultiBitValues) {
  std::string buf;
  BitWriter w(&buf);
  w.WriteBits(0x5, 3);
  w.WriteBits(0x1234, 16);
  w.WriteBits(0x1ffffffffull, 33);
  w.Finish();

  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(3), 0x5u);
  EXPECT_EQ(r.ReadBits(16), 0x1234u);
  EXPECT_EQ(r.ReadBits(33), 0x1ffffffffull);
  EXPECT_FALSE(r.overflowed());
}

TEST(BitStreamTest, ZeroBitWriteIsNoop) {
  std::string buf;
  BitWriter w(&buf);
  w.WriteBits(0, 0);
  w.WriteBits(1, 1);
  w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(0), 0u);
  EXPECT_TRUE(r.ReadBit());
}

TEST(BitStreamTest, PeekDoesNotConsume) {
  std::string buf;
  BitWriter w(&buf);
  w.WriteBits(0b101101, 6);
  w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.PeekBits(6), 0b101101u);
  EXPECT_EQ(r.PeekBits(6), 0b101101u);
  r.Consume(3);
  EXPECT_EQ(r.PeekBits(3), 0b101u);
}

TEST(BitStreamTest, OverflowDetectedOnReadPastEnd) {
  std::string buf;
  BitWriter w(&buf);
  w.WriteBits(0xff, 8);
  w.Finish();
  BitReader r(buf);
  EXPECT_EQ(r.ReadBits(8), 0xffu);
  EXPECT_FALSE(r.overflowed());
  EXPECT_EQ(r.ReadBits(8), 0u);  // past end -> zeros
  EXPECT_TRUE(r.overflowed());
}

TEST(BitStreamTest, PeekPastEndIsNotOverflowUntilConsumed) {
  std::string buf("\x01", 1);
  BitReader r(buf);
  r.PeekBits(16);
  EXPECT_FALSE(r.overflowed());
  r.Consume(8);
  EXPECT_FALSE(r.overflowed());
  r.Consume(8);
  EXPECT_TRUE(r.overflowed());
}

TEST(BitStreamTest, RandomRoundTrip) {
  Rng rng(99);
  std::vector<std::pair<uint64_t, int>> writes;
  std::string buf;
  BitWriter w(&buf);
  for (int i = 0; i < 5000; ++i) {
    int count = static_cast<int>(rng.Uniform(57)) + 1;
    uint64_t value = rng.Next() & ((1ull << count) - 1);
    writes.emplace_back(value, count);
    w.WriteBits(value, count);
  }
  w.Finish();

  BitReader r(buf);
  for (const auto& [value, count] : writes) {
    ASSERT_EQ(r.ReadBits(count), value);
  }
  EXPECT_FALSE(r.overflowed());
}

TEST(BitStreamTest, RefillsAtEveryDistanceFromTheEnd) {
  // Seeded widths of 1..57 bits read back through PeekBits, Consume and
  // ReadBits from buffers of 0..40 bytes, so word and byte refills start at
  // every distance from the end. Bits past the end read as zero, and
  // overflowed() turns true on the first Consume that takes one of them.
  Rng rng(2017);
  for (size_t size = 0; size <= 40; ++size) {
    const uint64_t end_bit = size * 8;
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<int> widths;
      std::string written;
      BitWriter w(&written);
      for (uint64_t total = 0; total < end_bit + 64;) {
        const int count = static_cast<int>(rng.Uniform(57)) + 1;
        w.WriteBits(rng.Next() & ((1ull << count) - 1), count);
        widths.push_back(count);
        total += count;
      }
      w.Finish();
      const std::string buf = written.substr(0, size);

      BitReader r(buf);
      uint64_t pos = 0;
      for (int count : widths) {
        const uint64_t want = ExpectedBits(buf, end_bit, pos, count);
        switch (rng.Uniform(3)) {
          case 0:
            ASSERT_EQ(r.ReadBits(count), want);
            break;
          case 1:
            ASSERT_EQ(r.PeekBits(count), want);
            r.Consume(count);
            break;
          default: {
            // A wider peek first, which must not disturb the narrower read.
            const int wide = count + static_cast<int>(rng.Uniform(58 - count));
            ASSERT_EQ(r.PeekBits(wide), ExpectedBits(buf, end_bit, pos, wide));
            ASSERT_EQ(r.ReadBits(count), want);
            break;
          }
        }
        pos += count;
        ASSERT_EQ(r.bits_consumed(), pos);
        ASSERT_EQ(r.overflowed(), pos > end_bit)
            << "size " << size << " after consuming " << pos << " bits";
      }
    }
  }
}

}  // namespace
}  // namespace spate
