// Fuzz target: the 0xCF chunked container. Arbitrary bytes go through both
// the decoding path (`ChunkedDecompress`, which also handles plain
// envelopes when the magic is absent) and the framing verifier that
// `spate::check`'s fsck runs. Cross-checked invariant: a blob that fully
// decodes must also pass framing verification — the verifier checks a
// strict subset of what decoding enforces, so a disagreement means one of
// the two walked the directory differently (exactly the class of bug that
// turns into an out-of-bounds slice on hostile input).
//
// Stored snapshot texts reach the row-text parser the same way (Recover,
// fsck and every row-leaf scan parse them), so `ParseSnapshot` runs on
// every text that decodes and on the raw input bytes. A text that parses
// must survive a serialize/parse round trip with the same rows.
//
// FUZZ-COVERS: chunked.h:ChunkedDecompress
// FUZZ-COVERS: chunked.h:VerifyChunkedFraming
// FUZZ-COVERS: telco/snapshot.h:ParseSnapshot

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "compress/chunked.h"
#include "telco/snapshot.h"

namespace {

void DriveSnapshotParser(spate::Slice text) {
  spate::Snapshot parsed;
  if (!spate::ParseSnapshot(text, &parsed).ok()) return;
  spate::Snapshot reparsed;
  if (!spate::ParseSnapshot(spate::SerializeSnapshot(parsed), &reparsed)
           .ok() ||
      reparsed.cdr != parsed.cdr || reparsed.nms != parsed.nms) {
    __builtin_trap();  // the parser split a row it cannot read back
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const spate::Slice blob(reinterpret_cast<const char*>(data), size);

  std::string text;
  const spate::Status decode = spate::ChunkedDecompress(blob, nullptr, &text);
  const spate::Status framing = spate::VerifyChunkedFraming(blob);
  if (decode.ok() && !framing.ok()) {
    __builtin_trap();  // decoder and fsck verifier disagree on framing
  }
  if (decode.ok()) DriveSnapshotParser(text);
  DriveSnapshotParser(blob);
  return 0;
}
