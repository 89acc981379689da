#include "compress/codec.h"

#include <gtest/gtest.h>

#include <functional>
#include <tuple>
#include <vector>

#include "common/bit_stream.h"
#include "common/random.h"
#include "compress/huffman.h"
#include "compress/lz_slots.h"

namespace spate {
namespace {

std::string MakeTelcoishText(Rng& rng, size_t rows) {
  std::string out;
  ZipfSampler cells(120, 1.2);
  ZipfSampler types(4, 1.0);
  for (size_t i = 0; i < rows; ++i) {
    out += "20160122";
    out += std::to_string(100000 + rng.Uniform(900000));
    out += ",user";
    out += std::to_string(rng.Uniform(3000));
    out += ",cell";
    out += std::to_string(cells.Sample(rng));
    out += ",type";
    out += std::to_string(types.Sample(rng));
    out += ",,,,0,0,OK,";  // low-entropy optional fields
    out += std::to_string(rng.Uniform(4096));
    out += "\n";
  }
  return out;
}

class CodecTest : public ::testing::TestWithParam<const char*> {
 protected:
  const Codec* codec() const { return CodecRegistry::Get(GetParam()); }
};

TEST_P(CodecTest, Registered) { ASSERT_NE(codec(), nullptr); }

TEST_P(CodecTest, EmptyInput) {
  std::string compressed, decompressed;
  ASSERT_TRUE(codec()->Compress(Slice(""), &compressed).ok());
  ASSERT_TRUE(codec()->Decompress(compressed, &decompressed).ok());
  EXPECT_TRUE(decompressed.empty());
}

TEST_P(CodecTest, OneByte) {
  std::string compressed, decompressed;
  ASSERT_TRUE(codec()->Compress(Slice("x"), &compressed).ok());
  ASSERT_TRUE(codec()->Decompress(compressed, &decompressed).ok());
  EXPECT_EQ(decompressed, "x");
}

TEST_P(CodecTest, TextRoundTrip) {
  Rng rng(42);
  const std::string input = MakeTelcoishText(rng, 3000);
  std::string compressed, decompressed;
  ASSERT_TRUE(codec()->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec()->Decompress(compressed, &decompressed).ok());
  EXPECT_EQ(decompressed, input);
}

TEST_P(CodecTest, BinaryRoundTrip) {
  Rng rng(7);
  std::string input;
  for (int i = 0; i < 100000; ++i) {
    input.push_back(static_cast<char>(rng.Uniform(256)));
  }
  std::string compressed, decompressed;
  ASSERT_TRUE(codec()->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec()->Decompress(compressed, &decompressed).ok());
  EXPECT_EQ(decompressed, input);
}

TEST_P(CodecTest, HighlyRepetitiveRoundTrip) {
  std::string input;
  for (int i = 0; i < 2000; ++i) input += "the same line over and over\n";
  std::string compressed, decompressed;
  ASSERT_TRUE(codec()->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec()->Decompress(compressed, &decompressed).ok());
  EXPECT_EQ(decompressed, input);
}

TEST_P(CodecTest, AppendsToExistingOutput) {
  const std::string input = "payload payload payload payload";
  std::string compressed;
  ASSERT_TRUE(codec()->Compress(input, &compressed).ok());
  std::string decompressed = "prefix:";
  ASSERT_TRUE(codec()->Decompress(compressed, &decompressed).ok());
  EXPECT_EQ(decompressed, "prefix:" + input);
}

TEST_P(CodecTest, DetectsPayloadCorruption) {
  Rng rng(12);
  const std::string input = MakeTelcoishText(rng, 500);
  std::string compressed;
  ASSERT_TRUE(codec()->Compress(input, &compressed).ok());
  // Flip a byte deep in the payload (past the envelope header).
  for (size_t flip = compressed.size() / 2; flip < compressed.size();
       flip += 97) {
    std::string corrupted = compressed;
    corrupted[flip] = static_cast<char>(corrupted[flip] ^ 0x10);
    std::string decompressed;
    Status s = codec()->Decompress(corrupted, &decompressed);
    if (s.ok()) {
      // The CRC must have caught any silent mismatch.
      EXPECT_EQ(decompressed, input);
    }
  }
}

TEST_P(CodecTest, DetectsTruncation) {
  Rng rng(13);
  const std::string input = MakeTelcoishText(rng, 500);
  std::string compressed;
  ASSERT_TRUE(codec()->Compress(input, &compressed).ok());
  std::string truncated = compressed.substr(0, compressed.size() * 3 / 4);
  std::string decompressed;
  EXPECT_FALSE(codec()->Decompress(truncated, &decompressed).ok());
}

TEST_P(CodecTest, RejectsWrongCodecId) {
  const Codec* other = CodecRegistry::Get("null");
  if (codec() == other) other = CodecRegistry::Get("deflate");
  std::string compressed;
  ASSERT_TRUE(other->Compress(Slice("hello"), &compressed).ok());
  std::string decompressed;
  EXPECT_TRUE(codec()->Decompress(compressed, &decompressed).IsCorruption());
}

TEST_P(CodecTest, RejectsEmptyBlob) {
  std::string decompressed;
  EXPECT_FALSE(codec()->Decompress(Slice(""), &decompressed).ok());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTest,
                         ::testing::Values("deflate", "lzma-lite", "fast-lz",
                                           "tans", "null"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// The codec name is a std::string, not a const char*: gtest prints a
// const char* tuple element as its address, which would put a per-run
// pointer into the test name.
class CodecSeedTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(CodecSeedTest, RandomInputsRoundTrip) {
  const Codec* codec = CodecRegistry::Get(std::get<0>(GetParam()));
  ASSERT_NE(codec, nullptr);
  Rng rng(std::get<1>(GetParam()));
  const size_t size = rng.Uniform(50000);
  const int alphabet = 2 + static_cast<int>(rng.Uniform(254));
  std::string input;
  input.reserve(size);
  // Mix runs and random bytes to exercise match emission paths.
  while (input.size() < size) {
    if (rng.Bernoulli(0.3)) {
      input.append(rng.Uniform(100) + 1,
                   static_cast<char>(rng.Uniform(alphabet)));
    } else {
      input.push_back(static_cast<char>(rng.Uniform(alphabet)));
    }
  }
  std::string compressed, decompressed;
  ASSERT_TRUE(codec->Compress(input, &compressed).ok());
  ASSERT_TRUE(codec->Decompress(compressed, &decompressed).ok());
  EXPECT_EQ(decompressed, input);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CodecSeedTest,
    ::testing::Combine(::testing::Values("deflate", "lzma-lite", "fast-lz",
                                         "tans"),
                       ::testing::Range<uint64_t>(0, 8)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(CodecRatioTest, EntropyCodecsBeatFastLzOnTelcoText) {
  Rng rng(99);
  const std::string input = MakeTelcoishText(rng, 20000);
  auto ratio = [&](const char* name) {
    const Codec* codec = CodecRegistry::Get(name);
    std::string compressed;
    EXPECT_TRUE(codec->Compress(input, &compressed).ok());
    return static_cast<double>(input.size()) / compressed.size();
  };
  const double deflate = ratio("deflate");
  const double lzma = ratio("lzma-lite");
  const double fast = ratio("fast-lz");
  const double tans = ratio("tans");
  // Table I shape: entropy-coded codecs land well above the byte-LZ codec.
  EXPECT_GT(deflate, fast);
  EXPECT_GT(lzma, fast);
  EXPECT_GT(tans, fast);
  // And everything actually compresses this data a lot.
  EXPECT_GT(fast, 2.0);
  EXPECT_GT(deflate, 4.0);
}

TEST(CodecRegistryTest, LookupByIdMatchesName) {
  for (std::string_view name : CodecRegistry::Names()) {
    const Codec* codec = CodecRegistry::Get(name);
    ASSERT_NE(codec, nullptr);
    EXPECT_EQ(CodecRegistry::GetById(codec->Id()), codec);
  }
  EXPECT_EQ(CodecRegistry::Get("bogus"), nullptr);
  EXPECT_EQ(CodecRegistry::GetById(200), nullptr);
}

/// A hand-built one-block deflate envelope that records `recorded` as its
/// original text. Its codes cover the literal 'x', end of block, length
/// slot 0 (match length 3) and distance slot 4 (distance 5 plus one extra
/// bit); `emit` writes the block's tokens, and the end-of-block code
/// follows them.
std::string HandBuiltDeflate(
    const Codec& codec, Slice recorded,
    const std::function<void(const HuffmanEncoder& lit,
                             const HuffmanEncoder& dist, BitWriter*)>& emit) {
  std::string blob;
  compress_internal::PutEnvelope(codec.Id(), recorded, &blob);
  std::vector<uint8_t> lit_lengths(257 + kNumLengthSlots, 0);
  lit_lengths['x'] = 1;
  lit_lengths[256] = 2;  // end of block
  lit_lengths[257] = 2;  // length slot 0: match length 3
  std::vector<uint8_t> dist_lengths(kNumDistSlots, 0);
  dist_lengths[4] = 1;  // distance slot 4: distance 5 plus one extra bit
  const HuffmanEncoder lit_enc(lit_lengths);
  const HuffmanEncoder dist_enc(dist_lengths);
  BitWriter writer(&blob);
  writer.WriteBit(true);  // final block
  WriteCodeLengths(&writer, lit_lengths);
  WriteCodeLengths(&writer, dist_lengths);
  emit(lit_enc, dist_enc, &writer);
  lit_enc.Encode(&writer, 256);
  writer.Finish();
  return blob;
}

TEST(DeflateCodecTest, RejectsDistanceBeforeStreamStart) {
  // The first token is a length-3 match at distance 5, before any byte has
  // been produced: the decoder must reject the back-reference instead of
  // copying from before its output.
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  const std::string blob = HandBuiltDeflate(
      *codec, Slice("abcdefgh"),
      [](const HuffmanEncoder& lit, const HuffmanEncoder& dist,
         BitWriter* writer) {
        lit.Encode(writer, 257);
        dist.Encode(writer, 4);
        writer->WriteBits(0, kDistExtraBits[4]);
      });

  std::string output;
  const Status status = codec->Decompress(blob, &output);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("distance before stream start"),
            std::string::npos)
      << status.ToString();
}

TEST(DeflateCodecTest, LiteralsPastRecordedSizeFailAndLeaveOutputAlone) {
  // Six literals against a recorded size of four: the fifth must fail at
  // its write, and `*output` must come back exactly as it was passed in.
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  const std::string blob = HandBuiltDeflate(
      *codec, Slice("xxxx"),
      [](const HuffmanEncoder& lit, const HuffmanEncoder&, BitWriter* writer) {
        for (int i = 0; i < 6; ++i) lit.Encode(writer, 'x');
      });

  std::string output = "kept";
  const Status status = codec->Decompress(blob, &output);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("output overruns recorded size"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(output, "kept");
}

TEST(DeflateCodecTest, OverlappingMatchesRoundTrip) {
  // A period-1..3 text is all matches of the maximum length 258 whose
  // source overlaps their destination, which the decoder copies forward.
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  for (size_t period = 1; period <= 3; ++period) {
    std::string input;
    for (size_t i = 0; i < 258 * 16 + period; ++i) {
      input.push_back(static_cast<char>('a' + i % period));
    }
    std::string blob;
    ASSERT_TRUE(codec->Compress(input, &blob).ok());
    EXPECT_LT(blob.size(), input.size() / 20) << "period " << period;
    std::string output = "head:";
    ASSERT_TRUE(codec->Decompress(blob, &output).ok()) << "period " << period;
    EXPECT_EQ(output, "head:" + input) << "period " << period;
  }
}

TEST(DeflateCodecTest, OutputLargerThanFirstAllocationRoundTrips) {
  // The first allocation is capped at kMaxUntrustedReserve; a larger
  // recorded size is reached only through the buffer's growth.
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  Rng rng(17);
  const std::string row = MakeTelcoishText(rng, 16);
  std::string input;
  while (input.size() <= kMaxUntrustedReserve + (1u << 20)) input += row;
  std::string blob;
  ASSERT_TRUE(codec->Compress(input, &blob).ok());
  std::string output = "head:";
  ASSERT_TRUE(codec->Decompress(blob, &output).ok());
  EXPECT_TRUE(output == "head:" + input);
}

}  // namespace
}  // namespace spate
