// Fuzz target: the codec envelope decode surface. Arbitrary bytes are fed
// through every registered codec's `Decompress` (both as-delivered and with
// the codec-id byte rewritten, so payload parsing is reached even when the
// mutator breaks the id). The contract under test: hostile bytes may
// only ever produce a non-OK Status — never a crash, sanitizer fault, OOM
// allocation, or a success whose output disagrees with the envelope header.
//
// FUZZ-COVERS: codec.h:Decompress
// FUZZ-COVERS: codec.h:GetEnvelope
// FUZZ-COVERS: codec.h:VerifyDecoded
// FUZZ-COVERS: deflate_codec.h:Decompress
// FUZZ-COVERS: fast_lz_codec.h:Decompress
// FUZZ-COVERS: lzma_lite_codec.h:Decompress
// FUZZ-COVERS: null_codec.h:Decompress
// FUZZ-COVERS: tans_codec.h:Decompress

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "compress/codec.h"

namespace {

/// A successful decode must agree with its own envelope header; anything
/// else is a harness-detected decoder bug, surfaced as a crash.
void DecodeAndCheck(const spate::Codec& codec, spate::Slice blob) {
  std::string output;
  const spate::Status status = codec.Decompress(blob, &output);
  if (!status.ok()) return;
  spate::Slice payload;
  uint64_t original_size = 0;
  uint32_t crc = 0;
  if (!spate::compress_internal::GetEnvelope(codec.Id(), blob, &payload,
                                             &original_size, &crc)
           .ok() ||
      output.size() != original_size ||
      !spate::compress_internal::VerifyDecoded(output, 0, original_size, crc)
           .ok()) {
    __builtin_trap();  // decode "succeeded" but violates the envelope
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const spate::Slice blob(reinterpret_cast<const char*>(data), size);

  // As-delivered: the id byte routes to at most one codec.
  if (size > 0) {
    const spate::Codec* codec =
        spate::CodecRegistry::GetById(static_cast<uint8_t>(data[0]));
    if (codec != nullptr) DecodeAndCheck(*codec, blob);
  }

  // Id-rewritten: reach every codec's payload parser from the same bytes.
  if (size > 0) {
    std::string rewritten(blob.data(), blob.size());
    for (std::string_view name : spate::CodecRegistry::Names()) {
      const spate::Codec* codec = spate::CodecRegistry::Get(name);
      rewritten[0] = static_cast<char>(codec->Id());
      DecodeAndCheck(*codec, rewritten);
    }
  }
  return 0;
}
