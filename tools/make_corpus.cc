// Seed-corpus generator for the fuzz/ harness suite.
//
//   make_corpus <output-dir>
//
// Writes one subdirectory per fuzz target (envelope/, chunked/, columnar/,
// coding/, sql/), each seeded with *valid* blobs produced by the real
// encoders (chunked/ also gets a real snapshot text) — the fuzzer then
// mutates structurally-plausible inputs instead of spending its budget
// rediscovering magics and varint framing. Output is
// fully deterministic (fixed sample data, no clocks, no randomness), so
// regenerating the corpus is reproducible: see EXPERIMENTS.md "Fuzzing".

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/coding.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "compress/columnar.h"
#include "compress/huffman.h"
#include "compress/tans.h"
#include "telco/snapshot.h"

namespace {

using spate::Codec;
using spate::CodecRegistry;

/// Telco-flavored sample text: repetitive CDR-ish rows (the low-entropy
/// shape the codecs are tuned for) with enough variation to exercise
/// matches, literals and entropy tables.
std::string SampleText(size_t rows) {
  std::string text;
  for (size_t i = 0; i < rows; ++i) {
    text += "2016031400";
    text += std::to_string(10 + i % 50);
    text += ",caller";
    text += std::to_string(i % 17);
    text += ",callee";
    text += std::to_string(i % 23);
    text += i % 2 == 0 ? ",alpha,voice," : ",beta,sms,";
    text += std::to_string(30 + i % 90);
    text += ",100,200,ok,imei";
    text += std::to_string(i);
    text += "\n";
  }
  return text;
}

/// A real two-section snapshot text, the row-text format `ParseSnapshot`
/// reads, so the fuzzer's mutations of it start past the header.
std::string SampleSnapshotText() {
  spate::Snapshot snapshot;
  snapshot.epoch_start = spate::ParseCompact("201603141030");
  for (int i = 0; i < 6; ++i) {
    snapshot.cdr.push_back({"2016031410" + std::to_string(30 + i),
                            "caller" + std::to_string(i % 4), "",
                            i % 2 == 0 ? "voice" : "sms",
                            std::to_string(60 + 7 * i)});
  }
  for (int i = 0; i < 3; ++i) {
    snapshot.nms.push_back({"201603141030", "cell" + std::to_string(i),
                            std::to_string(0.5 * i), ""});
  }
  return spate::SerializeSnapshot(snapshot);
}

bool WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  const std::filesystem::path path = dir / name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    fprintf(stderr, "make_corpus: cannot write %s\n", path.string().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: make_corpus <output-dir>\n");
    return 2;
  }
  const std::filesystem::path out_root(argv[1]);
  bool ok = true;
  for (const char* target :
       {"envelope", "chunked", "columnar", "coding", "sql"}) {
    std::error_code ec;
    std::filesystem::create_directories(out_root / target, ec);
    if (ec) {
      fprintf(stderr, "make_corpus: mkdir %s: %s\n", target,
              ec.message().c_str());
      return 1;
    }
  }

  const std::string small = SampleText(4);
  const std::string medium = SampleText(400);

  // envelope/: one valid envelope per codec per sample, plus an empty-input
  // envelope (headers-only edge).
  for (std::string_view name : CodecRegistry::Names()) {
    const Codec* codec = CodecRegistry::Get(name);
    for (const auto& [tag, text] :
         std::vector<std::pair<std::string, const std::string*>>{
             {"small", &small}, {"medium", &medium}}) {
      std::string blob;
      if (!codec->Compress(*text, &blob).ok()) {
        fprintf(stderr, "make_corpus: %s compress failed\n",
                std::string(name).c_str());
        return 1;
      }
      ok = ok && WriteSeed(out_root / "envelope",
                           std::string(name) + "_" + tag, blob);
    }
    std::string empty_blob;
    if (codec->Compress("", &empty_blob).ok()) {
      ok = ok && WriteSeed(out_root / "envelope",
                           std::string(name) + "_empty", empty_blob);
    }
  }

  // chunked/: multi-part 0xCF containers (small chunk size forces several
  // parts) and the single-part passthrough for every codec.
  for (std::string_view name : CodecRegistry::Names()) {
    const Codec* codec = CodecRegistry::Get(name);
    std::string multi;
    if (!spate::ChunkedCompress(*codec, medium, 1024, nullptr, &multi).ok()) {
      return 1;
    }
    ok = ok && WriteSeed(out_root / "chunked",
                         std::string(name) + "_multi", multi);
    std::string single;
    if (!spate::ChunkedCompress(*codec, small, 4096, nullptr, &single).ok()) {
      return 1;
    }
    ok = ok && WriteSeed(out_root / "chunked",
                         std::string(name) + "_single", single);
  }
  // ...and a snapshot text, raw and in a container, for the harness's
  // row-text parser.
  {
    const std::string snapshot = SampleSnapshotText();
    ok = ok && WriteSeed(out_root / "chunked", "snapshot_text", snapshot);
    std::string packed;
    if (!spate::ChunkedCompress(*CodecRegistry::Get("deflate"), snapshot,
                                4096, nullptr, &packed)
             .ok()) {
      return 1;
    }
    ok = ok && WriteSeed(out_root / "chunked", "snapshot_deflate", packed);
  }

  // columnar/: shredded-column-shaped 0xCD containers.
  for (std::string_view name : CodecRegistry::Names()) {
    const Codec* codec = CodecRegistry::Get(name);
    std::string repetitive;
    for (int i = 0; i < 500; ++i) repetitive += "VOICE\n";
    std::string varied;
    for (int i = 0; i < 500; ++i) {
      varied += std::to_string(i * 2654435761u) + "\n";
    }
    const std::vector<spate::ColumnChunk> chunks = {
        {"@meta", "epoch+widths"},
        {"c:call_type", repetitive},
        {"c:opt_042", ""},
        {"c:duration", varied},
    };
    std::string blob;
    if (!spate::ColumnarPack(*codec, chunks, nullptr, &blob).ok()) return 1;
    ok = ok && WriteSeed(out_root / "columnar", std::string(name), blob);
  }

  // coding/: primitive streams — varints across the width spectrum, tANS
  // blocks in all three modes (raw/RLE/tANS), a serialized Huffman
  // code-length array.
  {
    std::string varints;
    for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 1ull << 21,
                       1ull << 35, ~0ull}) {
      spate::PutVarint64(&varints, v);
      spate::PutFixed32(&varints, static_cast<uint32_t>(v));
      spate::PutLengthPrefixed(&varints, "cell");
    }
    ok = ok && WriteSeed(out_root / "coding", "varints", varints);

    std::string tans_raw;
    spate::TansEncodeBlock("tiny", &tans_raw);  // raw mode (short stream)
    ok = ok && WriteSeed(out_root / "coding", "tans_raw", tans_raw);
    std::string tans_rle;
    spate::TansEncodeBlock(std::string(5000, 'z'), &tans_rle);  // RLE mode
    ok = ok && WriteSeed(out_root / "coding", "tans_rle", tans_rle);
    std::string tans_full;
    spate::TansEncodeBlock(medium, &tans_full);  // tabled mode
    ok = ok && WriteSeed(out_root / "coding", "tans_tabled", tans_full);

    std::string lengths_stream;
    spate::BitWriter writer(&lengths_stream);
    spate::WriteCodeLengths(
        &writer, spate::BuildHuffmanCodeLengths(
                     {40, 30, 0, 20, 10, 5, 5, 2, 1, 1}));
    writer.Finish();
    ok = ok && WriteSeed(out_root / "coding", "code_lengths", lengths_stream);
  }

  // sql/: statements spanning the grammar — every clause, aggregates,
  // placeholders, EXPLAIN — plus near-miss malformed ones so the mutator
  // starts at the error frontier.
  {
    const std::vector<std::pair<std::string, std::string>> statements = {
        {"select_star", "SELECT * FROM CDR"},
        {"projected",
         "SELECT caller_id, duration FROM CDR WHERE ts >= '201603140000' "
         "AND ts < '201603140100' AND cell_id = 'alpha'"},
        {"aggregate",
         "SELECT cell_id, COUNT(*), AVG(duration) FROM CDR GROUP BY cell_id "
         "ORDER BY cell_id LIMIT 10"},
        {"join",
         "SELECT caller_id, region FROM CDR JOIN CELL ON cell_id = cell_id "
         "WHERE duration > 40"},
        {"explain",
         "EXPLAIN SELECT COUNT(DISTINCT caller_id) FROM CDR WHERE "
         "ts >= '201603140000'"},
        {"prepared",
         "SELECT * FROM NMS WHERE throughput > ? AND cell_id = ? LIMIT 5;"},
        {"bad_clause", "SELECT FROM CDR WHERE"},
        {"bad_quote", "SELECT * FROM CDR WHERE cell_id = 'alpha"},
    };
    for (const auto& [name, sql] : statements) {
      ok = ok && WriteSeed(out_root / "sql", name, sql);
    }
  }

  if (!ok) return 1;
  printf("make_corpus: seed corpus written under %s\n",
         out_root.string().c_str());
  return 0;
}
