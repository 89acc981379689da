#ifndef SPATE_COMPRESS_DEFLATE_CODEC_H_
#define SPATE_COMPRESS_DEFLATE_CODEC_H_

#include "compress/codec.h"
#include "compress/lz77.h"

namespace spate {

/// The GZIP design point: LZ77 over a 32 KiB window followed by per-block
/// canonical Huffman coding of literals/length-slots and distance-slots
/// (DEFLATE's structure, in SPATE's own container format).
///
/// Strong general-purpose ratio with fast decompression; the paper's chosen
/// storage-layer codec (Section IV-C picks GZIP).
class DeflateCodec : public Codec {
 public:
  std::string_view Name() const override { return "deflate"; }
  uint8_t Id() const override { return 1; }
  Status Compress(Slice input, std::string* output) const override;
  Status Decompress(Slice input, std::string* output) const override;
};

}  // namespace spate

#endif  // SPATE_COMPRESS_DEFLATE_CODEC_H_
