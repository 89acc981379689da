#include "compress/codec.h"

#include "common/coding.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "compress/deflate_codec.h"
#include "compress/fast_lz_codec.h"
#include "compress/lzma_lite_codec.h"
#include "compress/null_codec.h"
#include "compress/tans_codec.h"

namespace spate {

namespace compress_internal {

void PutEnvelope(uint8_t codec_id, Slice original, std::string* output) {
  output->push_back(static_cast<char>(codec_id));
  PutVarint64(output, original.size());
  PutFixed32(output, Crc32(original));
}

Status GetEnvelope(uint8_t expected_codec_id, Slice input, Slice* payload,
                   uint64_t* original_size, uint32_t* crc) {
  // Every codec decode funnels through this parse, so one site covers the
  // whole envelope-decode boundary.
  SPATE_FAILPOINT("compress.envelope.open");
  if (input.empty()) return Status::Corruption("empty compressed blob");
  const uint8_t id = static_cast<uint8_t>(input[0]);
  if (id != expected_codec_id) {
    return Status::Corruption("compressed blob codec id mismatch");
  }
  input.RemovePrefix(1);
  if (!GetVarint64(&input, original_size)) {
    return Status::Corruption("truncated envelope: missing original size");
  }
  if (*original_size > kMaxDecodedBlobBytes) {
    return Status::Corruption("envelope declares implausible original size");
  }
  if (!GetFixed32(&input, crc)) {
    return Status::Corruption("truncated envelope: missing checksum");
  }
  *payload = input;
  return Status::OK();
}

Status VerifyDecoded(const std::string& output, size_t offset,
                     uint64_t original_size, uint32_t crc) {
  const size_t decoded = output.size() - offset;
  if (decoded != original_size) {
    return Status::Corruption("decompressed size mismatch");
  }
  const uint32_t actual =
      Crc32(Slice(output.data() + offset, decoded));
  if (actual != crc) {
    return Status::Corruption("decompressed checksum mismatch");
  }
  return Status::OK();
}

}  // namespace compress_internal

namespace {

struct RegistryEntry {
  const Codec* codec;
};

const std::vector<RegistryEntry>& Registry() {
  // Function-local static of trivially-destructible pointers; codecs are
  // created once and intentionally never destroyed.
  static const std::vector<RegistryEntry>& entries =
      *new std::vector<RegistryEntry>{
          {new DeflateCodec()}, {new LzmaLiteCodec()}, {new FastLzCodec()},
          {new TansCodec()},    {new NullCodec()},
      };
  return entries;
}

}  // namespace

const Codec* CodecRegistry::Get(std::string_view name) {
  for (const auto& entry : Registry()) {
    if (entry.codec->Name() == name) return entry.codec;
  }
  return nullptr;
}

const Codec* CodecRegistry::GetById(uint8_t id) {
  for (const auto& entry : Registry()) {
    if (entry.codec->Id() == id) return entry.codec;
  }
  return nullptr;
}

std::vector<std::string_view> CodecRegistry::Names() {
  std::vector<std::string_view> names;
  for (const auto& entry : Registry()) names.push_back(entry.codec->Name());
  return names;
}

}  // namespace spate
