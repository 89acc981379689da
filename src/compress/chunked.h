#ifndef SPATE_COMPRESS_CHUNKED_H_
#define SPATE_COMPRESS_CHUNKED_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "compress/codec.h"

namespace spate {

class ThreadPool;

/// Chunked leaf container: the storage format that lets the SPATE ingest
/// pipeline compress one snapshot's serialized text as independent jobs
/// (rapidgzip-style chunked parallel compression) and the scan pipeline
/// decompress those parts concurrently, while keeping the stored bytes a
/// pure function of the input.
///
/// Layout (only used when the text spans more than one chunk):
///
///   [1B magic 0xCF][varint original size][varint part count]
///   [varint compressed size of part i] * N
///   [part 0 envelope][part 1 envelope] ... [part N-1 envelope]
///
/// Each part is a full self-describing `Codec` envelope (codec id, original
/// size, CRC-32) over one contiguous `chunk_bytes`-sized slice of the text,
/// so integrity is verified per part and the codec is recorded per part.
/// Texts of at most `chunk_bytes` are stored as today's plain single
/// envelope — small blobs (day summaries, metadata) never pay the
/// container overhead and stay byte-compatible with pre-container stores.
///
/// Deterministic-ordering invariant: the partition depends only on the text
/// and `chunk_bytes` — never on the worker count or scheduling — and parts
/// are reassembled in index order, so `ChunkedCompress` emits bit-identical
/// bytes whether the parts are compressed serially (`pool == nullptr`) or on
/// any pool of any size.

/// Leading byte of the chunked container (distinct from every registered
/// codec id, which the registry keeps in single digits).
inline constexpr uint8_t kChunkedMagic = 0xCF;

/// Default serialized-text bytes per independent compression job. Small
/// enough that one bench-sized snapshot yields a dozen-plus jobs, large
/// enough that per-part LZ-window resets cost only a few percent of ratio.
inline constexpr size_t kDefaultChunkBytes = 64u << 10;

/// True if `blob` starts with the chunked-container magic.
bool IsChunkedBlob(Slice blob);

/// Compresses `text` with `codec` into either a plain envelope (one chunk)
/// or the chunked container (several chunks), appending to `*blob`. Parts
/// are compressed on `pool` when given, inline otherwise; the output bytes
/// are identical either way.
Status ChunkedCompress(const Codec& codec, Slice text, size_t chunk_bytes,
                       ThreadPool* pool, std::string* blob);

/// Decodes a blob written by `ChunkedCompress` — either format — appending
/// the original text to `*text`. Plain envelopes (including pre-container
/// blobs) resolve their codec from the envelope id; container parts each
/// resolve their own. Parts are decompressed on `pool` when given. Returns
/// Corruption on any framing, size or CRC violation.
Status ChunkedDecompress(Slice blob, ThreadPool* pool, std::string* text);

/// Structural verification without decompression (for `spate::check`'s
/// fsck): validates the container framing — magic, header varints, part
/// count, part-length table vs payload bytes — and each part's envelope
/// header (known codec id, parseable size/CRC fields). Plain envelopes get
/// the same header check. Cheap (no codec work, no allocation proportional
/// to the text); does NOT prove the payloads decode — pair with
/// `ChunkedDecompress` for that.
Status VerifyChunkedFraming(Slice blob);

}  // namespace spate

#endif  // SPATE_COMPRESS_CHUNKED_H_
