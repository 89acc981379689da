#include <gtest/gtest.h>

#include <tuple>

#include "common/random.h"
#include "compress/codec.h"
#include "compress/tans.h"

namespace spate {
namespace {

// Robustness sweeps: decoders must never crash, hang or read out of bounds
// on adversarial input — they return Corruption (or, if the envelope
// happens to validate, output whose CRC matched, i.e. correct data).

// The codec name is a std::string, not a const char*: gtest prints a
// const char* tuple element as its address, which would put a per-run
// pointer into the test name.
class GarbageFuzzTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(GarbageFuzzTest, RandomBytesNeverCrashDecoder) {
  const Codec* codec = CodecRegistry::Get(std::get<0>(GetParam()));
  ASSERT_NE(codec, nullptr);
  Rng rng(std::get<1>(GetParam()) * 7919 + 13);
  for (int round = 0; round < 200; ++round) {
    const size_t size = rng.Uniform(2000);
    std::string garbage;
    garbage.reserve(size + 1);
    // Start with the right codec id half the time so parsing goes deeper.
    if (rng.Bernoulli(0.5)) garbage.push_back(static_cast<char>(codec->Id()));
    for (size_t i = 0; i < size; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    std::string out;
    codec->Decompress(garbage, &out).ok();  // must simply not blow up
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codecs, GarbageFuzzTest,
    ::testing::Combine(::testing::Values("deflate", "lzma-lite", "fast-lz",
                                         "tans", "null"),
                       ::testing::Range<uint64_t>(0, 4)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

class MutationFuzzTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MutationFuzzTest, MutatedBlobsNeverYieldWrongOutput) {
  const Codec* codec = CodecRegistry::Get(GetParam());
  Rng rng(4242);
  // A structured input so the payload exercises matches + entropy tables.
  std::string input;
  for (int i = 0; i < 300; ++i) {
    input += "row" + std::to_string(i % 37) + ",value," +
             std::to_string(rng.Uniform(1000)) + "\n";
  }
  std::string blob;
  ASSERT_TRUE(codec->Compress(input, &blob).ok());

  for (int round = 0; round < 400; ++round) {
    std::string mutated = blob;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(mutated.size());
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << rng.Uniform(8)));
    }
    std::string out;
    Status s = codec->Decompress(mutated, &out);
    if (s.ok()) {
      // CRC accepted the result: it must actually be the original.
      EXPECT_EQ(out, input);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, MutationFuzzTest,
                         ::testing::Values("deflate", "lzma-lite", "fast-lz",
                                           "tans"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(TansFuzzTest, GarbageBlocksNeverCrash) {
  Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    std::string garbage;
    const size_t size = rng.Uniform(500);
    for (size_t i = 0; i < size; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(256)));
    }
    Slice in(garbage);
    std::string out;
    TansDecodeBlock(&in, &out).ok();  // must not blow up
  }
}

TEST(TruncationSweepTest, EveryPrefixFailsCleanly) {
  Rng rng(17);
  std::string input;
  for (int i = 0; i < 200; ++i) {
    input += "abcdefg" + std::to_string(rng.Uniform(50)) + ";";
  }
  for (const char* name : {"deflate", "lzma-lite", "fast-lz", "tans"}) {
    const Codec* codec = CodecRegistry::Get(name);
    std::string blob;
    ASSERT_TRUE(codec->Compress(input, &blob).ok());
    // Every strict prefix must decode to an error, never to success.
    for (size_t len = 0; len < blob.size(); len += 7) {
      std::string out;
      EXPECT_FALSE(
          codec->Decompress(Slice(blob.data(), len), &out).ok())
          << name << " prefix " << len;
    }
  }
}

}  // namespace
}  // namespace spate
