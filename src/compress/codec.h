#ifndef SPATE_COMPRESS_CODEC_H_
#define SPATE_COMPRESS_CODEC_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/slice.h"
#include "common/status.h"

namespace spate {

/// Cap on any allocation driven by a size field that has not yet been
/// validated against a checksum (decompression of untrusted blobs).
inline constexpr uint64_t kMaxUntrustedReserve = 16ull << 20;

/// Hard ceiling on the original (decompressed) size an envelope or container
/// header may declare. Everything SPATE stores through these codecs is leaf-
/// or chunk-granular (64 KiB chunked slices, per-column chunks, snapshot
/// texts of a few MiB), so a header claiming more than this is hostile bytes,
/// not data — `GetEnvelope` rejects it before any decode loop runs, which
/// bounds how much memory adversarial input can make a decoder commit
/// (decompression-bomb defense; see DESIGN.md "Adversarial bytes").
inline constexpr uint64_t kMaxDecodedBlobBytes = 256ull << 20;

/// Lossless compression codec interface (the SPATE storage layer's pluggable
/// compression point, Section IV of the paper).
///
/// Every codec produces a self-describing envelope:
///
///   [1B codec id][varint original size][fixed32 CRC-32 of original][payload]
///
/// so `Codec::Decompress` can verify integrity, and a stored blob records
/// which codec produced it. Codecs are stateless and thread-safe.
class Codec {
 public:
  virtual ~Codec() = default;

  /// Stable codec name, e.g. "deflate". Used by the registry and in stored
  /// file metadata.
  virtual std::string_view Name() const = 0;

  /// One-byte on-disk identifier written into the envelope.
  virtual uint8_t Id() const = 0;

  /// Compresses `input`, appending the envelope + payload to `*output`.
  virtual Status Compress(Slice input, std::string* output) const = 0;

  /// Decompresses a blob produced by this codec's `Compress`, appending the
  /// original bytes to `*output`. Returns Corruption on any integrity
  /// failure (bad magic, size mismatch, CRC mismatch, malformed payload).
  virtual Status Decompress(Slice input, std::string* output) const = 0;
};

/// Registry of built-in codecs.
///
/// Names follow the paper's library line-up: "deflate" (the GZIP design
/// point, LZ77 + canonical Huffman), "lzma-lite" (the 7z point, LZ + adaptive
/// range coder), "fast-lz" (the Snappy point, byte-oriented LZ without an
/// entropy stage), "tans" (the ZSTD point, LZ + tabled asymmetric numeral
/// system entropy stage) and "null" (identity; used by the RAW baseline).
class CodecRegistry {
 public:
  /// Returns the codec registered under `name`, or nullptr if unknown.
  static const Codec* Get(std::string_view name);

  /// Returns the codec with on-disk id `id`, or nullptr if unknown.
  static const Codec* GetById(uint8_t id);

  /// Names of all registered codecs, in registration order.
  static std::vector<std::string_view> Names();
};

namespace compress_internal {

/// Writes the common envelope header.
void PutEnvelope(uint8_t codec_id, Slice original, std::string* output);

/// Parses and validates the envelope header; on success, `*payload` points
/// at the codec payload and `*original_size` / `*crc` carry the recorded
/// values.
Status GetEnvelope(uint8_t expected_codec_id, Slice input, Slice* payload,
                   uint64_t* original_size, uint32_t* crc);

/// Verifies that the `decoded` bytes appended after `offset` in `output`
/// match the recorded size and CRC.
Status VerifyDecoded(const std::string& output, size_t offset,
                     uint64_t original_size, uint32_t crc);

}  // namespace compress_internal
}  // namespace spate

#endif  // SPATE_COMPRESS_CODEC_H_
