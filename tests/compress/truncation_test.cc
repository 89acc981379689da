// Prefix-truncation sweep: every valid blob, truncated at EVERY byte
// offset, must come back from every decoder as a clean Status — no crash,
// no sanitizer fault, no wild allocation. This is the deterministic,
// exhaustive little sibling of the fuzz/ suite: truncation is the one
// corruption class cheap enough to enumerate completely in a unit test.
//
// The assertion is deliberately `!ok || output == original`, not `!ok`: a
// few codecs tolerate tail truncation by design (lzma-lite's range decoder
// carries an 8-byte end-of-stream grace margin), and that is fine exactly
// when the decode still reproduces the original bytes — the envelope CRC
// guarantees any "successful" decode is a correct one.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "compress/columnar.h"

namespace spate {
namespace {

std::string SampleText() {
  std::string text;
  for (int i = 0; i < 120; ++i) {
    text += "201603140012,caller" + std::to_string(i % 7) + ",callee" +
            std::to_string(i % 11) + (i % 2 == 0 ? ",alpha,voice," : ",beta,sms,") +
            std::to_string(30 + i % 90) + ",100,200,ok\n";
  }
  return text;
}

/// Feeds every strict prefix of `blob` through `decode`; `context` labels
/// failures. `decode` must return OK only when its output matched the
/// expectation it was constructed with.
template <typename DecodeFn>
void SweepAllPrefixes(const std::string& blob, const std::string& context,
                      DecodeFn decode) {
  ASSERT_FALSE(blob.empty()) << context;
  for (size_t cut = 0; cut < blob.size(); ++cut) {
    SCOPED_TRACE(context + " truncated to " + std::to_string(cut) + "/" +
                 std::to_string(blob.size()) + " bytes");
    decode(Slice(blob.data(), cut));
  }
}

class CodecTruncationSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CodecTruncationSweep, EnvelopePrefixesNeverCrashOrMisdecode) {
  const Codec* codec = CodecRegistry::Get(GetParam());
  ASSERT_NE(codec, nullptr);
  const std::string original = SampleText();
  std::string blob;
  ASSERT_TRUE(codec->Compress(original, &blob).ok());
  // The untruncated blob must decode exactly...
  std::string full;
  ASSERT_TRUE(codec->Decompress(blob, &full).ok());
  ASSERT_EQ(full, original);
  // ...and every prefix must fail cleanly or decode identically.
  SweepAllPrefixes(blob, std::string("envelope/") + GetParam(),
                   [&](Slice prefix) {
                     std::string output;
                     const Status status = codec->Decompress(prefix, &output);
                     if (status.ok()) {
                       EXPECT_EQ(output, original);
                     }
                   });
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecTruncationSweep,
                         ::testing::Values("deflate", "lzma-lite", "fast-lz",
                                           "tans", "null"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ContainerTruncationTest, ChunkedPrefixesNeverCrashOrMisdecode) {
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  const std::string original = SampleText();
  std::string blob;
  // Small chunk size: several parts, so cuts land in the header, the
  // length table, part boundaries and part payloads.
  ASSERT_TRUE(ChunkedCompress(*codec, original, 512, nullptr, &blob).ok());
  ASSERT_TRUE(IsChunkedBlob(blob));
  std::string full;
  ASSERT_TRUE(ChunkedDecompress(blob, nullptr, &full).ok());
  ASSERT_EQ(full, original);
  SweepAllPrefixes(blob, "chunked", [&](Slice prefix) {
    std::string output;
    const Status status = ChunkedDecompress(prefix, nullptr, &output);
    if (status.ok()) {
      EXPECT_EQ(output, original);
      // The fsck verifier walks the same framing; a decodable prefix (the
      // rare grace-margin case) must verify too.
      EXPECT_TRUE(VerifyChunkedFraming(prefix).ok());
    }
  });
}

TEST(ContainerTruncationTest, ColumnarPrefixesNeverCrashOrMisdecode) {
  const Codec* codec = CodecRegistry::Get("deflate");
  ASSERT_NE(codec, nullptr);
  std::vector<ColumnChunk> chunks;
  chunks.push_back({"@meta", "epoch+widths"});
  chunks.push_back({"c:call_type", std::string(3000, 'V')});
  chunks.push_back({"c:opt_042", ""});
  chunks.push_back({"c:duration", SampleText()});
  std::string blob;
  ASSERT_TRUE(ColumnarPack(*codec, chunks, nullptr, &blob).ok());
  SweepAllPrefixes(blob, "columnar", [&](Slice prefix) {
    ColumnarReader reader;
    if (!ColumnarReader::Open(prefix, &reader).ok()) return;
    for (size_t i = 0; i < reader.chunks().size(); ++i) {
      std::string decoded;
      if (ColumnarReader::Decode(reader.chunks()[i], &decoded).ok()) {
        EXPECT_EQ(decoded, chunks[i].data) << chunks[i].name;
      }
    }
  });
}

}  // namespace
}  // namespace spate
