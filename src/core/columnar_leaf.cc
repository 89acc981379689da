#include "core/columnar_leaf.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "compress/columnar.h"
#include "index/leaf_spatial.h"

namespace spate {
namespace {

/// Sanity cap on the total field count a "@meta" width table may claim
/// before the rows are materialized (untrusted input; a real snapshot is
/// a few thousand rows x 200 columns).
constexpr uint64_t kMaxMetaFields = 64ull << 20;

std::string ColumnChunkName(const TableSchema& schema, char prefix,
                            int column) {
  std::string name{prefix, ':'};
  if (column >= 0 && static_cast<size_t>(column) < schema.num_attributes()) {
    name += schema.attributes()[static_cast<size_t>(column)].name;
  } else {
    name += "#" + std::to_string(column);
  }
  return name;
}

/// Appends one table's row widths as RLE pairs (runs of equal widths: real
/// snapshots are rectangular, so this is a handful of bytes).
void AppendWidthsRle(const std::vector<Record>& rows, std::string* out) {
  std::vector<std::pair<uint64_t, uint64_t>> runs;  // (width, run length)
  for (const Record& row : rows) {
    const uint64_t width = row.size();
    if (runs.empty() || runs.back().first != width) {
      runs.emplace_back(width, 1);
    } else {
      ++runs.back().second;
    }
  }
  PutVarint64(out, runs.size());
  for (const auto& [width, length] : runs) {
    PutVarint64(out, width);
    PutVarint64(out, length);
  }
}

Status ParseWidthsRle(Slice* input, std::vector<uint32_t>* widths) {
  uint64_t num_runs = 0;
  if (!GetVarint64(input, &num_runs)) {
    return Status::Corruption("columnar leaf: truncated width table");
  }
  uint64_t total_rows = 0;
  uint64_t total_fields = 0;
  for (uint64_t run = 0; run < num_runs; ++run) {
    uint64_t width = 0;
    uint64_t length = 0;
    if (!GetVarint64(input, &width) || !GetVarint64(input, &length)) {
      return Status::Corruption("columnar leaf: truncated width table");
    }
    total_rows += length;
    total_fields += width * length;
    if (total_fields > kMaxMetaFields || total_rows > kMaxMetaFields) {
      return Status::Corruption("columnar leaf: implausible width table");
    }
    widths->insert(widths->end(), static_cast<size_t>(length),
                   static_cast<uint32_t>(width));
  }
  return Status::OK();
}

/// Decodes a chunk by name, accounting the decompressed bytes. This is the
/// single per-chunk decode funnel, so the fragment cache plugs in here: a
/// hit serves the plaintext without touching the codec (and without
/// charging `*bytes_decoded` — the scope counts the avoided bytes instead),
/// a miss decodes and admits the result under the chunk's name. A failed
/// decode leaves its claim to the scope, which releases it.
Status DecodeChunk(const ColumnarReader& reader, std::string_view name,
                   std::string* data, uint64_t* bytes_decoded,
                   FragmentCacheScope* fragments = nullptr) {
  if (fragments != nullptr && fragments->Lookup(name, data)) {
    return Status::OK();
  }
  const ColumnarReader::ChunkRef* chunk = reader.Find(name);
  if (chunk == nullptr) {
    return Status::Corruption("columnar leaf: missing chunk '" +
                              std::string(name) + "'");
  }
  SPATE_RETURN_IF_ERROR(ColumnarReader::Decode(*chunk, data));
  if (bytes_decoded != nullptr) *bytes_decoded += data->size();
  if (fragments != nullptr) fragments->Insert(name, *data);
  return Status::OK();
}

/// Ascending row positions of `wanted_cells` within one table, from the
/// leaf's embedded spatial index.
std::vector<uint32_t> SelectedPositions(
    const LeafSpatialIndex& index, bool cdr_table,
    const std::unordered_set<std::string>& wanted_cells) {
  std::vector<uint32_t> positions;
  for (const std::string& cell_id : wanted_cells) {
    const std::vector<uint32_t>* rows =
        cdr_table ? index.CdrRows(cell_id) : index.NmsRows(cell_id);
    if (rows != nullptr) {
      positions.insert(positions.end(), rows->begin(), rows->end());
    }
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

/// Materializes one table: builds `count` rows at their original widths,
/// then fills exactly the projected columns from their chunks. `selected`
/// (when non-null) lists the row positions to keep, ascending.
Status MaterializeTable(const ColumnarReader& reader,
                        const TableSchema& schema, char prefix,
                        const std::vector<uint32_t>& widths,
                        const TableProjection& projection,
                        const std::vector<uint32_t>* selected,
                        std::vector<Record>* rows, uint64_t* bytes_decoded,
                        FragmentCacheScope* fragments) {
  if (projection.skip) return Status::OK();
  const size_t n = widths.size();
  uint32_t max_width = 0;
  for (uint32_t width : widths) max_width = std::max(max_width, width);
  if (selected != nullptr) {
    rows->reserve(selected->size());
    for (uint32_t position : *selected) {
      if (position >= n) {
        return Status::Corruption(
            "columnar leaf: spatial index names row " +
            std::to_string(position) + " of a " + std::to_string(n) +
            "-row table");
      }
      rows->emplace_back(widths[position]);
    }
  } else {
    rows->reserve(n);
    for (uint32_t width : widths) rows->emplace_back(width);
  }

  std::vector<int> columns;
  if (projection.all) {
    columns.resize(max_width);
    for (uint32_t c = 0; c < max_width; ++c) columns[c] = static_cast<int>(c);
  } else {
    for (int c : projection.columns) {
      if (c >= 0 && static_cast<uint32_t>(c) < max_width) columns.push_back(c);
    }
  }

  std::string data;
  for (const int column : columns) {
    data.clear();
    SPATE_RETURN_IF_ERROR(DecodeChunk(
        reader, ColumnChunkName(schema, prefix, column), &data,
        bytes_decoded, fragments));
    // Walk the rows in order, consuming one '\n'-terminated value per row
    // wide enough to carry this column; copy it out for kept rows.
    const uint32_t c = static_cast<uint32_t>(column);
    size_t value_begin = 0;
    size_t next_selected = 0;  // index into *selected (when restricting)
    for (size_t position = 0; position < n; ++position) {
      const bool kept =
          selected == nullptr
              ? true
              : (next_selected < selected->size() &&
                 (*selected)[next_selected] == position);
      if (widths[position] > c) {
        const char* terminator = static_cast<const char*>(
            memchr(data.data() + value_begin, '\n',
                   data.size() - value_begin));
        if (terminator == nullptr) {
          return Status::Corruption("columnar leaf: column chunk '" +
                                    ColumnChunkName(schema, prefix, column) +
                                    "' holds too few values");
        }
        const size_t value_end =
            static_cast<size_t>(terminator - data.data());
        if (kept) {
          const size_t row = selected == nullptr ? position : next_selected;
          (*rows)[row][c].assign(data, value_begin,
                                 value_end - value_begin);
        }
        value_begin = value_end + 1;
      }
      if (kept && selected != nullptr) ++next_selected;
    }
    if (value_begin != data.size()) {
      return Status::Corruption("columnar leaf: column chunk '" +
                                ColumnChunkName(schema, prefix, column) +
                                "' holds trailing bytes");
    }
  }
  return Status::OK();
}

/// Builds the full chunk set of the columnar container in its canonical
/// order: "@meta", "@spidx", then one chunk per CDR column and one per NMS
/// column. Shared by the encoder and the stats recomputation so both see
/// identical plaintext sizes.
std::vector<ColumnChunk> BuildColumnarChunks(const Snapshot& snapshot,
                                             size_t* cdr_width_out,
                                             size_t* nms_width_out) {
  std::vector<ColumnChunk> chunks;
  size_t cdr_width = 0;
  for (const Record& row : snapshot.cdr) {
    cdr_width = std::max(cdr_width, row.size());
  }
  size_t nms_width = 0;
  for (const Record& row : snapshot.nms) {
    nms_width = std::max(nms_width, row.size());
  }
  chunks.reserve(2 + cdr_width + nms_width);

  // "@meta": epoch + the row-width tables (the decode-side row skeleton).
  ColumnChunk meta;
  meta.name = kColumnarMetaChunk;
  PutVarint64(&meta.data, ZigZagEncode64(snapshot.epoch_start));
  AppendWidthsRle(snapshot.cdr, &meta.data);
  AppendWidthsRle(snapshot.nms, &meta.data);
  chunks.push_back(std::move(meta));

  // "@spidx": cell id -> row positions, for bounding-box row restriction.
  chunks.push_back(ColumnChunk{std::string(kColumnarSpatialChunk),
                               LeafSpatialIndex::Build(snapshot).Serialize()});

  // One chunk per column, values '\n'-terminated in row order. A column's
  // chunk lists one value per row wide enough to carry it, so ragged rows
  // round-trip exactly.
  auto shred = [](const std::vector<Record>& rows, size_t width,
                  const TableSchema& schema, char prefix,
                  std::vector<ColumnChunk>* out) {
    for (size_t column = 0; column < width; ++column) {
      ColumnChunk chunk;
      chunk.name = ColumnChunkName(schema, prefix, static_cast<int>(column));
      for (const Record& row : rows) {
        if (row.size() <= column) continue;
        chunk.data += row[column];
        chunk.data += '\n';
      }
      out->push_back(std::move(chunk));
    }
  };
  shred(snapshot.cdr, cdr_width, CdrSchema(), 'c', &chunks);
  shred(snapshot.nms, nms_width, NmsSchema(), 'n', &chunks);
  if (cdr_width_out != nullptr) *cdr_width_out = cdr_width;
  if (nms_width_out != nullptr) *nms_width_out = nms_width;
  return chunks;
}

/// Fills `stats` from the canonical chunk sequence of `BuildColumnarChunks`.
void FillStatsFromChunks(const std::vector<ColumnChunk>& chunks,
                         size_t cdr_width, size_t nms_width,
                         LeafDecodeStats* stats) {
  *stats = LeafDecodeStats{};
  stats->columnar = true;
  stats->meta_bytes = chunks[0].data.size();
  stats->spidx_bytes = chunks[1].data.size();
  stats->cdr_column_bytes.reserve(cdr_width);
  for (size_t c = 0; c < cdr_width; ++c) {
    stats->cdr_column_bytes.push_back(chunks[2 + c].data.size());
  }
  stats->nms_column_bytes.reserve(nms_width);
  for (size_t c = 0; c < nms_width; ++c) {
    stats->nms_column_bytes.push_back(chunks[2 + cdr_width + c].data.size());
  }
}

}  // namespace

std::string CdrColumnChunkName(int column) {
  return ColumnChunkName(CdrSchema(), 'c', column);
}

std::string NmsColumnChunkName(int column) {
  return ColumnChunkName(NmsSchema(), 'n', column);
}

Status EncodeColumnarLeaf(const Codec& codec, const Snapshot& snapshot,
                          ThreadPool* pool, std::string* blob,
                          LeafDecodeStats* stats) {
  size_t cdr_width = 0;
  size_t nms_width = 0;
  const std::vector<ColumnChunk> chunks =
      BuildColumnarChunks(snapshot, &cdr_width, &nms_width);
  if (stats != nullptr) {
    FillStatsFromChunks(chunks, cdr_width, nms_width, stats);
  }
  return ColumnarPack(codec, chunks, pool, blob);
}

void ComputeColumnarLeafStats(const Snapshot& snapshot,
                              LeafDecodeStats* stats) {
  size_t cdr_width = 0;
  size_t nms_width = 0;
  const std::vector<ColumnChunk> chunks =
      BuildColumnarChunks(snapshot, &cdr_width, &nms_width);
  FillStatsFromChunks(chunks, cdr_width, nms_width, stats);
}

Status DecodeColumnarLeaf(Slice blob, const TableProjection& cdr,
                          const TableProjection& nms,
                          const std::unordered_set<std::string>* wanted_cells,
                          Snapshot* snapshot, uint64_t* bytes_decoded,
                          FragmentCacheScope* fragments) {
  ColumnarReader reader;
  SPATE_RETURN_IF_ERROR(ColumnarReader::Open(blob, &reader));

  std::string meta;
  SPATE_RETURN_IF_ERROR(
      DecodeChunk(reader, kColumnarMetaChunk, &meta, bytes_decoded,
                  fragments));
  Slice input(meta);
  uint64_t epoch_zigzag = 0;
  if (!GetVarint64(&input, &epoch_zigzag)) {
    return Status::Corruption("columnar leaf: truncated meta chunk");
  }
  snapshot->epoch_start = ZigZagDecode64(epoch_zigzag);
  std::vector<uint32_t> cdr_widths;
  std::vector<uint32_t> nms_widths;
  SPATE_RETURN_IF_ERROR(ParseWidthsRle(&input, &cdr_widths));
  SPATE_RETURN_IF_ERROR(ParseWidthsRle(&input, &nms_widths));
  if (!input.empty()) {
    return Status::Corruption("columnar leaf: trailing bytes in meta chunk");
  }

  // Bounding-box restriction: resolve the wanted cells to row positions via
  // the embedded spatial index (the only extra chunk a box query decodes).
  std::vector<uint32_t> cdr_selected;
  std::vector<uint32_t> nms_selected;
  if (wanted_cells != nullptr) {
    std::string serialized;
    SPATE_RETURN_IF_ERROR(DecodeChunk(reader, kColumnarSpatialChunk,
                                      &serialized, bytes_decoded, fragments));
    LeafSpatialIndex index;
    SPATE_RETURN_IF_ERROR(LeafSpatialIndex::Parse(serialized, &index));
    cdr_selected = SelectedPositions(index, /*cdr_table=*/true, *wanted_cells);
    nms_selected =
        SelectedPositions(index, /*cdr_table=*/false, *wanted_cells);
  }

  SPATE_RETURN_IF_ERROR(MaterializeTable(
      reader, CdrSchema(), 'c', cdr_widths, cdr,
      wanted_cells != nullptr ? &cdr_selected : nullptr, &snapshot->cdr,
      bytes_decoded, fragments));
  SPATE_RETURN_IF_ERROR(MaterializeTable(
      reader, NmsSchema(), 'n', nms_widths, nms,
      wanted_cells != nullptr ? &nms_selected : nullptr, &snapshot->nms,
      bytes_decoded, fragments));
  return Status::OK();
}

}  // namespace spate
