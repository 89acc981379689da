#ifndef SPATE_COMPRESS_COLUMNAR_H_
#define SPATE_COMPRESS_COLUMNAR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "compress/codec.h"

namespace spate {

class ThreadPool;

/// Columnar leaf container: the storage format behind
/// `SpateOptions::leaf_layout = kColumnar`. Where the 0xCF chunked container
/// splits one serialized text into fixed-size slices, this container stores
/// *named* chunks — one per column of the shredded snapshot plus small
/// metadata chunks — each compressed independently through the `Codec`
/// registry, with a directory up front so a reader can locate and decode
/// only the chunks a query's attribute selection needs (projection
/// pushdown, Section VI-A's `a` of Q(a, b, w)).
///
/// Layout:
///
///   [1B magic 0xCD][1B format version 0x01][varint chunk count N]
///   directory, N entries:
///     [varint name length][name bytes]
///     [varint compressed size of chunk i]
///     [fixed32 CRC-32 of chunk i's compressed bytes]
///   [chunk 0 envelope][chunk 1 envelope] ... [chunk N-1 envelope]
///
/// Each chunk payload is a full self-describing `Codec` envelope (codec id,
/// original size, CRC-32 of the *decoded* bytes), so a decoded chunk is
/// verified end to end: the directory CRC catches corruption of the stored
/// bytes without decompressing, the envelope CRC catches a bad decode.
/// Chunk offsets are implicit (cumulative compressed sizes, in directory
/// order).
///
/// Deterministic-ordering invariant (same contract as chunked.h): the chunk
/// list and every stored byte are a pure function of the inputs — chunks are
/// compressed in parallel on `pool` but assembled in input order — so
/// `ColumnarPack` emits bit-identical blobs at every worker count.

/// Leading byte of the columnar container. Distinct from every registered
/// codec id (single digits) and from the chunked magic 0xCF, so the three
/// leaf formats — plain envelope, 0xCF chunked, 0xCD columnar — are
/// distinguished by their first byte.
inline constexpr uint8_t kColumnarMagic = 0xCD;

/// Current (and only) format version byte.
inline constexpr uint8_t kColumnarVersion = 1;

/// One named chunk to pack (uncompressed).
struct ColumnChunk {
  std::string name;
  std::string data;
};

/// True if `blob` starts with the columnar-container magic.
bool IsColumnarBlob(Slice blob);

/// Compresses `chunks` with `codec` into the columnar container, appending
/// to `*blob`. Chunks are compressed on `pool` when given (inline
/// otherwise); the output bytes are identical either way. Chunk names must
/// be unique — `ColumnarReader::Open` rejects containers with duplicate
/// directory names as corrupt, because a duplicate would let hostile bytes
/// shadow the chunk a `Find`-routed read resolves. An empty chunk list
/// yields a valid empty container.
Status ColumnarPack(const Codec& codec, const std::vector<ColumnChunk>& chunks,
                    ThreadPool* pool, std::string* blob);

/// Random-access reader over a columnar blob. `Open` parses only the
/// directory — no chunk is decompressed until `Decode` is called on it, so
/// a projected read touches exactly the chunks it asks for. The reader
/// borrows the blob's memory; the blob must outlive it.
class ColumnarReader {
 public:
  struct ChunkRef {
    std::string_view name;  // points into the blob
    Slice envelope;         // the chunk's compressed codec envelope
    uint32_t crc = 0;       // directory CRC-32 of the envelope bytes
  };

  ColumnarReader() = default;

  /// Parses the container header and directory; fails with Corruption on
  /// any framing violation (bad magic/version, truncated directory, a
  /// duplicate chunk name, chunk sizes disagreeing with the payload bytes).
  /// Every directory-declared size is bounded against the remaining input
  /// as it is read, so no allocation or slice is sized from an unvalidated
  /// field.
  static Status Open(Slice blob, ColumnarReader* reader);

  const std::vector<ChunkRef>& chunks() const { return chunks_; }

  /// The chunk named `name`, or nullptr (names are unique per container).
  /// A hash lookup, so a full-width decode stays linear in the chunk count.
  const ChunkRef* Find(std::string_view name) const;

  /// Decompresses one chunk, appending the original bytes to `*data`.
  /// Verifies the directory CRC over the stored bytes first, then the
  /// envelope's own size/CRC over the decoded bytes.
  static Status Decode(const ChunkRef& chunk, std::string* data);

 private:
  std::vector<ChunkRef> chunks_;
  // Name -> position in `chunks_`; the names point into the blob.
  std::unordered_map<std::string_view, size_t> index_;
};

/// Structural verification for `spate::check`'s fsck: validates the
/// container framing (magic, version, directory varints, chunk sizes vs
/// payload bytes), each directory CRC against the stored chunk bytes, and
/// each chunk's envelope header (known codec id, parseable fields). Does
/// NOT decompress — pair with `ColumnarReader::Decode` for that.
Status VerifyColumnarFraming(Slice blob);

}  // namespace spate

#endif  // SPATE_COMPRESS_COLUMNAR_H_
