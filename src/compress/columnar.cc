#include "compress/columnar.h"

#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"

namespace spate {
namespace {

/// Validates one chunk envelope's header without touching the payload:
/// known codec id and parseable size/CRC fields.
Status VerifyChunkEnvelopeHeader(Slice envelope) {
  if (envelope.empty()) {
    return Status::Corruption("columnar: empty chunk envelope");
  }
  const uint8_t id = static_cast<uint8_t>(envelope[0]);
  if (CodecRegistry::GetById(id) == nullptr) {
    return Status::Corruption("columnar: unknown codec id " +
                              std::to_string(static_cast<int>(id)) +
                              " in chunk envelope");
  }
  Slice payload;
  uint64_t original_size = 0;
  uint32_t crc = 0;
  return compress_internal::GetEnvelope(id, envelope, &payload,
                                        &original_size, &crc);
}

}  // namespace

bool IsColumnarBlob(Slice blob) {
  return !blob.empty() && static_cast<uint8_t>(blob[0]) == kColumnarMagic;
}

Status ColumnarPack(const Codec& codec, const std::vector<ColumnChunk>& chunks,
                    ThreadPool* pool, std::string* blob) {
  // Names are the reader's lookup key: a container with a duplicate would be
  // rejected by `ColumnarReader::Open`, so refuse to write one.
  {
    std::unordered_set<std::string_view> names;
    names.reserve(chunks.size());
    for (const ColumnChunk& chunk : chunks) {
      if (!names.insert(chunk.name).second) {
        return Status::InvalidArgument("columnar: duplicate chunk name '" +
                                       chunk.name + "'");
      }
    }
  }
  // Compress every chunk into an indexed slot; nothing here may depend on
  // the worker count (the bit-identity invariant of the ingest pipeline).
  std::vector<std::string> envelopes(chunks.size());
  std::vector<Status> statuses(chunks.size());
  auto compress_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      statuses[i] = codec.Compress(chunks[i].data, &envelopes[i]);
    }
  };
  if (pool != nullptr && chunks.size() > 1) {
    pool->ParallelFor(chunks.size(), compress_range);
  } else {
    compress_range(0, chunks.size());
  }
  for (const Status& status : statuses) SPATE_RETURN_IF_ERROR(status);

  // Deterministic assembly: header, directory in input order, payloads in
  // the same order (offsets are implicit in the cumulative sizes).
  blob->push_back(static_cast<char>(kColumnarMagic));
  blob->push_back(static_cast<char>(kColumnarVersion));
  PutVarint64(blob, chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    PutLengthPrefixed(blob, chunks[i].name);
    PutVarint64(blob, envelopes[i].size());
    PutFixed32(blob, Crc32(envelopes[i]));
  }
  for (const std::string& envelope : envelopes) blob->append(envelope);
  return Status::OK();
}

Status ColumnarReader::Open(Slice blob, ColumnarReader* reader) {
  SPATE_FAILPOINT("compress.columnar.open");
  reader->chunks_.clear();
  if (!IsColumnarBlob(blob)) {
    return Status::Corruption("columnar: bad magic");
  }
  if (blob.size() < 2) {
    return Status::Corruption("columnar: truncated header");
  }
  const uint8_t version = static_cast<uint8_t>(blob[1]);
  if (version != kColumnarVersion) {
    return Status::Corruption("columnar: unsupported version " +
                              std::to_string(static_cast<int>(version)));
  }
  Slice input(blob.data() + 2, blob.size() - 2);
  uint64_t num_chunks = 0;
  if (!GetVarint64(&input, &num_chunks)) {
    return Status::Corruption("columnar: truncated chunk count");
  }
  // Each directory entry needs at least a name-length byte, a size byte and
  // a fixed32 CRC; reject counts the remaining bytes cannot possibly hold
  // before sizing any allocation off them.
  if (num_chunks > input.size() / 6 + 1) {
    return Status::Corruption("columnar: implausible chunk count");
  }
  std::vector<ChunkRef> chunks(static_cast<size_t>(num_chunks));
  uint64_t total = 0;
  std::vector<uint64_t> sizes(chunks.size());
  std::unordered_map<std::string_view, size_t> index;
  index.reserve(chunks.size());
  for (size_t i = 0; i < chunks.size(); ++i) {
    Slice name;
    if (!GetLengthPrefixed(&input, &name)) {
      return Status::Corruption("columnar: truncated chunk name");
    }
    chunks[i].name = name.ToStringView();
    // Two directory entries with one name would make `Find`-routed reads
    // ambiguous (and give hostile bytes a shadowing primitive): reject.
    if (!index.emplace(chunks[i].name, i).second) {
      return Status::Corruption("columnar: duplicate chunk name '" +
                                std::string(chunks[i].name) + "'");
    }
    if (!GetVarint64(&input, &sizes[i])) {
      return Status::Corruption("columnar: truncated chunk size");
    }
    if (!GetFixed32(&input, &chunks[i].crc)) {
      return Status::Corruption("columnar: truncated chunk CRC");
    }
    // Bound every directory-declared size against the remaining input as it
    // is read, so the accumulated total cannot overflow and cannot describe
    // chunk slices past the payload.
    if (sizes[i] > input.size() || total + sizes[i] > input.size()) {
      return Status::Corruption("columnar: chunk size exceeds payload");
    }
    total += sizes[i];
  }
  if (total != input.size()) {
    return Status::Corruption("columnar: chunk sizes disagree with payload");
  }
  size_t offset = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    chunks[i].envelope =
        Slice(input.data() + offset, static_cast<size_t>(sizes[i]));
    offset += static_cast<size_t>(sizes[i]);
  }
  reader->chunks_ = std::move(chunks);
  reader->index_ = std::move(index);
  return Status::OK();
}

const ColumnarReader::ChunkRef* ColumnarReader::Find(
    std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &chunks_[it->second];
}

Status ColumnarReader::Decode(const ChunkRef& chunk, std::string* data) {
  // Directory CRC over the stored bytes: catches corruption of the
  // compressed chunk before any codec work.
  if (Crc32(chunk.envelope) != chunk.crc) {
    return Status::Corruption("columnar: chunk '" + std::string(chunk.name) +
                              "' fails its directory CRC");
  }
  if (chunk.envelope.empty()) {
    return Status::Corruption("columnar: empty chunk envelope");
  }
  const Codec* codec =
      CodecRegistry::GetById(static_cast<uint8_t>(chunk.envelope[0]));
  if (codec == nullptr) {
    return Status::Corruption("columnar: unknown codec id in chunk '" +
                              std::string(chunk.name) + "'");
  }
  return codec->Decompress(chunk.envelope, data);
}

Status VerifyColumnarFraming(Slice blob) {
  ColumnarReader reader;
  SPATE_RETURN_IF_ERROR(ColumnarReader::Open(blob, &reader));
  for (const ColumnarReader::ChunkRef& chunk : reader.chunks()) {
    if (Crc32(chunk.envelope) != chunk.crc) {
      return Status::Corruption("columnar: chunk '" +
                                std::string(chunk.name) +
                                "' fails its directory CRC");
    }
    SPATE_RETURN_IF_ERROR(VerifyChunkEnvelopeHeader(chunk.envelope));
  }
  return Status::OK();
}

}  // namespace spate
