#include "telco/snapshot.h"

#include <algorithm>
#include <string_view>

#include "common/strings.h"

namespace spate {
namespace {

void AppendRows(const std::vector<Record>& rows, std::string* out) {
  for (const Record& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i) out->push_back(',');
      out->append(row[i]);
    }
    out->push_back('\n');
  }
}

/// Splits one CSV line into its fields in a single pass, reserving `width`
/// fields up front (callers pass the previous row's width).
Record ParseRow(std::string_view line, size_t width) {
  Record row;
  row.reserve(width);
  SplitString(line, ',', &row);
  return row;
}

/// The width of the row last parsed into `rows`, as the next row's guess.
size_t LastWidth(const std::vector<Record>& rows) {
  return rows.empty() ? 0 : rows.back().size();
}

/// Consumes one '\n'-terminated line from the front of `*text` (the final
/// line may be unterminated). Returns false when exhausted.
bool NextLine(std::string_view* text, std::string_view* line) {
  if (text->empty()) return false;
  const size_t nl = text->find('\n');
  if (nl == std::string_view::npos) {
    *line = *text;
    *text = std::string_view();
  } else {
    *line = text->substr(0, nl);
    *text = text->substr(nl + 1);
  }
  return true;
}

}  // namespace

std::string SerializeSnapshot(const Snapshot& snapshot) {
  std::string out;
  out += "#SPATE-SNAPSHOT ";
  out += FormatCompact(snapshot.epoch_start);
  out += "\n#CDR ";
  out += std::to_string(snapshot.cdr.size());
  out += "\n";
  AppendRows(snapshot.cdr, &out);
  out += "#NMS ";
  out += std::to_string(snapshot.nms.size());
  out += "\n";
  AppendRows(snapshot.nms, &out);
  return out;
}

Status ParseSnapshot(Slice text, Snapshot* snapshot) {
  std::string_view rest = text.ToStringView();
  std::string_view line;

  if (!NextLine(&rest, &line) || !line.starts_with("#SPATE-SNAPSHOT ")) {
    return Status::Corruption("snapshot: missing header");
  }
  snapshot->epoch_start = ParseCompact(std::string(line.substr(16)));
  if (snapshot->epoch_start < 0) {
    return Status::Corruption("snapshot: bad header timestamp");
  }

  auto read_section = [&](std::string_view tag,
                          std::vector<Record>* rows) -> Status {
    if (!NextLine(&rest, &line) || !line.starts_with(tag)) {
      return Status::Corruption("snapshot: missing section header");
    }
    int64_t count = 0;
    if (!ParseInt64(line.substr(tag.size()), &count) || count < 0) {
      return Status::Corruption("snapshot: bad section row count");
    }
    rows->clear();
    // The count is untrusted: every row takes at least one byte of the
    // remaining text, so reserve no more rows than there are bytes left.
    rows->reserve(static_cast<size_t>(
        std::min<uint64_t>(static_cast<uint64_t>(count), rest.size())));
    for (int64_t i = 0; i < count; ++i) {
      if (!NextLine(&rest, &line)) {
        return Status::Corruption("snapshot: truncated section");
      }
      rows->push_back(ParseRow(line, LastWidth(*rows)));
    }
    return Status::OK();
  };

  SPATE_RETURN_IF_ERROR(read_section("#CDR ", &snapshot->cdr));
  SPATE_RETURN_IF_ERROR(read_section("#NMS ", &snapshot->nms));
  return Status::OK();
}

std::string SerializeCells(const std::vector<Record>& cells) {
  std::string out;
  AppendRows(cells, &out);
  return out;
}

Status ParseCells(Slice text, std::vector<Record>* cells) {
  cells->clear();
  std::string_view rest = text.ToStringView();
  std::string_view line;
  while (NextLine(&rest, &line)) {
    if (line.empty()) continue;
    cells->push_back(ParseRow(line, LastWidth(*cells)));
  }
  return Status::OK();
}

}  // namespace spate
