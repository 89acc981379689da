#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bench/bench_util.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "compress/columnar.h"
#include "core/columnar_leaf.h"
#include "telco/schema.h"

namespace perfbench {

using namespace spate;

namespace {

thread_local uint32_t t_current_span = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void DigestRows(const std::vector<Record>& rows, Digest* d) {
  d->AddU64(rows.size());
  for (const Record& row : rows) {
    d->AddU64(row.size());
    for (const std::string& field : row) d->Add(field);
  }
}

}  // namespace

int LoadWorkers() {
  return std::clamp<int>(static_cast<int>(std::thread::hardware_concurrency()),
                         1, 4);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Samples::InterquartileMean() const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t lo = sorted.size() / 4;
  const size_t hi = std::max(lo + 1, sorted.size() - sorted.size() / 4);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += sorted[i];
  return sum / static_cast<double>(hi - lo);
}

void Digest::Add(std::string_view bytes) {
  AddU64(bytes.size());
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
}

void Digest::AddU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::AddDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  AddU64(bits);
}

uint64_t DigestQueryResult(const QueryResult& result,
                           bool summary_counts_only) {
  Digest d;
  d.AddU64(result.exact);
  d.AddU64(result.degraded);
  d.AddU64(static_cast<uint64_t>(result.served_from));
  DigestRows(result.cdr_rows, &d);
  DigestRows(result.nms_rows, &d);
  if (summary_counts_only) {
    for (const auto& [cell_id, stats] : result.summary.per_cell()) {
      d.Add(cell_id);
      d.AddU64(stats.cdr_rows);
      d.AddU64(stats.nms_rows);
      d.AddU64(stats.dropped_calls);
    }
  } else {
    d.Add(result.summary.Serialize());
  }
  d.AddU64(result.skipped_epochs.size());
  for (Timestamp ts : result.skipped_epochs) {
    d.AddU64(static_cast<uint64_t>(ts));
  }
  return d.value();
}

uint64_t DigestSqlResult(const SqlResult& result, bool sort_rows) {
  Digest d;
  d.AddU64(result.columns.size());
  for (const std::string& column : result.columns) d.Add(column);
  std::vector<std::vector<std::string>> rows = result.rows;
  if (sort_rows) std::sort(rows.begin(), rows.end());
  DigestRows(rows, &d);
  return d.value();
}

bool Fingerprint::Matches(const Fingerprint& other) const {
  if (exact != other.exact || approx.size() != other.approx.size()) {
    return false;
  }
  for (size_t i = 0; i < approx.size(); ++i) {
    const double a = approx[i];
    const double b = other.approx[i];
    if (std::isnan(a) || std::isnan(b)) {
      if (std::isnan(a) != std::isnan(b)) return false;
      continue;
    }
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    if (std::fabs(a - b) > 1e-6 * scale) return false;
  }
  return true;
}

Tracer::Scope::Scope(Tracer* tracer, uint32_t op, const char* name)
    : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.op = op;
  span_.id = tracer_->next_span_.fetch_add(1) + 1;
  span_.parent = t_current_span;
  span_.name = name;
  saved_parent_ = t_current_span;
  t_current_span = span_.id;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  t_current_span = saved_parent_;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(span_);
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint32_t, int64_t> child_ns;
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string, std::pair<double, uint64_t>> out;
  for (const Span& span : spans_) {
    int64_t self = span.end_ns - span.start_ns;
    const auto it = child_ns.find(span.id);
    if (it != child_ns.end()) self -= it->second;
    auto& entry = out[span.name];
    entry.first += static_cast<double>(std::max<int64_t>(self, 0)) / 1e6;
    entry.second += 1;
  }
  return out;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    fprintf(f,
            "{\"op\":%u,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
            "\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64 "}\n",
            span.op, span.id, span.parent, span.name, span.start_ns,
            span.end_ns);
  }
  return fclose(f) == 0;
}

BoundingBox Quadrant(const CellDirectory& cells, int quadrant) {
  const BoundingBox& e = cells.extent();
  const double mid_x = (e.min_x + e.max_x) / 2;
  const double mid_y = (e.min_y + e.max_y) / 2;
  BoundingBox box;
  box.min_x = (quadrant & 1) ? mid_x : e.min_x;
  box.max_x = (quadrant & 1) ? e.max_x : mid_x;
  box.min_y = (quadrant & 2) ? mid_y : e.min_y;
  box.max_y = (quadrant & 2) ? e.max_y : mid_y;
  return box;
}

TraceConfig MakeTrace(uint64_t seed, int days) {
  TraceConfig config = bench::BenchTrace();
  config.seed = 20160118u ^ (seed * 0x9e3779b97f4a7c15ull);
  config.days = days;
  return config;
}

void ProbeTextLayers(const std::vector<Snapshot>& sample, Tracer* tracer,
                     RunResult* out) {
  const Codec* deflate = CodecRegistry::Get("deflate");
  double serialize_s = 0, parse_s = 0, encode_s = 0, decode_s = 0, add_s = 0;
  uint64_t text_bytes = 0, blob_bytes = 0, snapshots = 0;
  // Repeat the sample until a quarter second of work is measured, so the
  // throughputs are not single-shot timings.
  const double start = Now();
  for (int round = 0; round == 0 || Now() - start < 0.25; ++round) {
    for (const Snapshot& snapshot : sample) {
      const uint32_t op = tracer->NewOp();
      double t = Now();
      std::string text;
      {
        Tracer::Scope span(tracer, op, "telco.SerializeSnapshot");
        text = SerializeSnapshot(snapshot);
      }
      serialize_s += Now() - t;
      t = Now();
      Snapshot parsed;
      {
        Tracer::Scope span(tracer, op, "telco.ParseSnapshot");
        if (!ParseSnapshot(text, &parsed).ok()) ++out->failed;
      }
      parse_s += Now() - t;
      t = Now();
      std::string blob;
      {
        Tracer::Scope span(tracer, op, "compress.ChunkedCompress");
        if (!ChunkedCompress(*deflate, text, kDefaultChunkBytes, nullptr, &blob)
                 .ok()) {
          ++out->failed;
        }
      }
      encode_s += Now() - t;
      t = Now();
      std::string decoded;
      {
        Tracer::Scope span(tracer, op, "compress.ChunkedDecompress");
        if (!ChunkedDecompress(blob, nullptr, &decoded).ok() ||
            decoded != text) {
          ++out->failed;
        }
      }
      decode_s += Now() - t;
      t = Now();
      {
        Tracer::Scope span(tracer, op, "index.NodeSummary.AddSnapshot");
        NodeSummary summary;
        summary.AddSnapshot(snapshot);
      }
      add_s += Now() - t;
      text_bytes += text.size();
      blob_bytes += blob.size();
      ++snapshots;
    }
  }
  const double mb = static_cast<double>(text_bytes) / 1e6;
  SetMetric(&out->per_layer, "telco.serialize_mb_per_s",
            Ratio(mb, serialize_s), "MB/s");
  SetMetric(&out->per_layer, "telco.parse_mb_per_s", Ratio(mb, parse_s),
            "MB/s");
  SetMetric(&out->per_layer, "compress.encode_mb_per_s", Ratio(mb, encode_s),
            "MB/s");
  SetMetric(&out->per_layer, "compress.decode_mb_per_s", Ratio(mb, decode_s),
            "MB/s");
  SetMetric(&out->per_layer, "compress.ratio",
            Ratio(static_cast<double>(text_bytes),
                  static_cast<double>(blob_bytes)),
            "ratio");
  SetMetric(&out->per_layer, "index.add_snapshot_ms",
            Ratio(add_s * 1e3, static_cast<double>(snapshots)), "ms");
  // One round's bytes: the ratio's exact inputs.
  uint64_t round_text = 0, round_blob = 0;
  for (const Snapshot& snapshot : sample) {
    const std::string text = SerializeSnapshot(snapshot);
    std::string blob;
    (void)ChunkedCompress(*deflate, text, kDefaultChunkBytes, nullptr, &blob);
    round_text += text.size();
    round_blob += blob.size();
  }
  out->deterministic["compress.ratio"] =
      std::to_string(round_text) + "/" + std::to_string(round_blob);
}

void ReplayStats::Add(const ReplayStats& other) {
  leaves += other.leaves;
  columnar_leaves += other.columnar_leaves;
  leaves_skipped_spatial += other.leaves_skipped_spatial;
  bytes_decoded += other.bytes_decoded;
  codec_bytes += other.codec_bytes;
  dfs_bytes_read += other.dfs_bytes_read;
  dfs_blocks_read += other.dfs_blocks_read;
  rows_filtered += other.rows_filtered;
  parse_bytes += other.parse_bytes;
  read_ms += other.read_ms;
  codec_ms += other.codec_ms;
  columnar_ms += other.columnar_ms;
  parse_ms += other.parse_ms;
  filter_ms += other.filter_ms;
}

Status ReplayQuery(SpateFramework& framework, const ExplorationQuery& query,
                   Tracer* tracer, uint32_t op, ReplayStats* out) {
  const TemporalIndex& index = framework.index();
  // A window that is not fully resolved is answered from summaries: the
  // framework runs no leaf pass, so neither does the replay.
  if (!index.WindowFullyResolved(query.window_begin, query.window_end)) {
    return Status::OK();
  }
  // The projections and cell restriction `ScanWindowProjected` derives.
  TableProjection cdr =
      ScanProjection(CdrSchema(), query.attributes, kCdrTs, kCdrCellId);
  TableProjection nms =
      ScanProjection(NmsSchema(), query.attributes, kNmsTs, kNmsCellId);
  if (!query.want_cdr) cdr = TableProjection{false, true, {}};
  if (!query.want_nms) nms = TableProjection{false, true, {}};
  std::unordered_set<std::string> wanted;
  const std::unordered_set<std::string>* wanted_cells = nullptr;
  if (query.has_box) {
    for (const std::string& id : framework.cells().CellsInBox(query.box)) {
      wanted.insert(id);
    }
    wanted_cells = &wanted;
  }
  const bool restricted = !cdr.all || !nms.all || wanted_cells != nullptr;

  std::vector<const LeafNode*> leaves;
  {
    Tracer::Scope span(tracer, op, "index.LeavesInWindow");
    leaves = index.LeavesInWindow(query.window_begin, query.window_end);
  }
  DistributedFileSystem& dfs = framework.dfs();
  for (const LeafNode* leaf : leaves) {
    if (wanted_cells != nullptr && framework.options().spatial_leaf_skip) {
      bool intersects = false;
      for (const auto& [cell_id, stats] : leaf->summary.per_cell()) {
        (void)stats;
        if (wanted.count(cell_id) != 0) {
          intersects = true;
          break;
        }
      }
      if (!intersects) {
        ++out->leaves_skipped_spatial;
        continue;
      }
    }
    ++out->leaves;
    const IoStats io_before = dfs.stats();
    double t = Now();
    std::string blob;
    {
      Tracer::Scope span(tracer, op, "dfs.ReadFile");
      Result<std::string> read = dfs.ReadFile(leaf->dfs_path);
      if (!read.ok()) return read.status();
      blob = std::move(read).value();
    }
    out->read_ms += (Now() - t) * 1e3;
    const IoStats io_after = dfs.stats();
    out->dfs_bytes_read += io_after.bytes_read - io_before.bytes_read;
    out->dfs_blocks_read += io_after.blocks_read - io_before.blocks_read;

    Snapshot snapshot;
    if (IsColumnarBlob(blob)) {
      ++out->columnar_leaves;
      // Codec probe: decompress every chunk of the leaf on its own, as a
      // sibling of the reassembly below (whose own chunk decodes cannot be
      // timed from outside).
      t = Now();
      {
        Tracer::Scope span(tracer, op, "compress.ColumnarReader.Decode");
        ColumnarReader reader;
        SPATE_RETURN_IF_ERROR(ColumnarReader::Open(blob, &reader));
        for (const ColumnarReader::ChunkRef& chunk : reader.chunks()) {
          std::string data;
          SPATE_RETURN_IF_ERROR(ColumnarReader::Decode(chunk, &data));
          out->codec_bytes += data.size();
        }
      }
      out->codec_ms += (Now() - t) * 1e3;
      uint64_t bytes = 0;
      t = Now();
      if (restricted) {
        Tracer::Scope span(tracer, op, "core.DecodeColumnarLeaf");
        SPATE_RETURN_IF_ERROR(DecodeColumnarLeaf(blob, cdr, nms, wanted_cells,
                                                 &snapshot, &bytes));
        out->columnar_ms += (Now() - t) * 1e3;
      } else {
        // Unrestricted reads materialize row text and parse it, exactly
        // like the framework's full-leaf path.
        Snapshot full;
        const TableProjection all;
        {
          Tracer::Scope span(tracer, op, "core.DecodeColumnarLeaf");
          SPATE_RETURN_IF_ERROR(
              DecodeColumnarLeaf(blob, all, all, nullptr, &full, &bytes));
        }
        out->columnar_ms += (Now() - t) * 1e3;
        const std::string text = SerializeSnapshot(full);
        t = Now();
        {
          Tracer::Scope span(tracer, op, "telco.ParseSnapshot");
          SPATE_RETURN_IF_ERROR(ParseSnapshot(text, &snapshot));
        }
        out->parse_ms += (Now() - t) * 1e3;
        out->parse_bytes += text.size();
      }
      out->bytes_decoded += bytes;
    } else {
      std::string text;
      t = Now();
      {
        Tracer::Scope span(tracer, op, "compress.ChunkedDecompress");
        SPATE_RETURN_IF_ERROR(ChunkedDecompress(blob, nullptr, &text));
      }
      out->codec_ms += (Now() - t) * 1e3;
      out->codec_bytes += text.size();
      out->bytes_decoded += text.size();
      t = Now();
      Snapshot full;
      {
        Tracer::Scope span(tracer, op, "telco.ParseSnapshot");
        SPATE_RETURN_IF_ERROR(ParseSnapshot(text, &full));
        snapshot = restricted ? RestrictSnapshot(full, cdr, nms, wanted_cells)
                              : std::move(full);
      }
      out->parse_ms += (Now() - t) * 1e3;
      out->parse_bytes += text.size();
    }
    t = Now();
    {
      Tracer::Scope span(tracer, op, "core.FilterSnapshotRows");
      out->rows_filtered += snapshot.size();
      FilterSnapshotRows(snapshot, query, framework.cells(), &out->cdr_rows,
                         &out->nms_rows);
    }
    out->filter_ms += (Now() - t) * 1e3;
  }
  return Status::OK();
}

void ReportReplay(const ReplayStats& total, uint64_t ops, RunResult* out) {
  const double n = static_cast<double>(ops);
  SetMetric(&out->per_layer, "dfs.read_ms_per_op", Ratio(total.read_ms, n),
            "ms");
  if (total.parse_ms > 0) {
    SetMetric(&out->per_layer, "telco.parse_mb_per_s",
              Ratio(static_cast<double>(total.parse_bytes) / 1e6,
                    total.parse_ms / 1e3),
              "MB/s");
  }
  if (total.codec_ms > 0) {
    SetMetric(&out->per_layer, "compress.decode_mb_per_s",
              Ratio(static_cast<double>(total.codec_bytes) / 1e6,
                    total.codec_ms / 1e3),
              "MB/s");
  }
  SetMetric(&out->per_layer, "core.columnar_decode_ms_per_leaf",
            Ratio(total.columnar_ms,
                  static_cast<double>(total.columnar_leaves)),
            "ms");
  SetMetric(&out->per_layer, "core.filter_rows_per_s",
            Ratio(static_cast<double>(total.rows_filtered),
                  total.filter_ms / 1e3),
            "rows/s");
  SetMetric(&out->per_layer, "replay.ops", n, "count");
  SetMetric(&out->per_layer, "replay.leaves",
            static_cast<double>(total.leaves), "count");
}

void ReportSpans(const Tracer& tracer, const Options& options,
                 RunResult* out) {
  SetMetric(&out->per_layer, "trace.spans",
            static_cast<double>(tracer.num_spans()), "count");
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".jsonl";
  if (!tracer.Write(path)) out->notes.push_back("could not write " + path);
  for (const auto& [name, self] : tracer.SelfTimes()) {
    char line[160];
    snprintf(line, sizeof(line), "self time %-32s %10.2f ms over %" PRIu64
             " spans", name.c_str(), self.first, self.second);
    out->notes.push_back(line);
  }
}

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const auto& names =
      *new std::vector<std::pair<std::string, std::string>>{
          {"telco.serialize_mb_per_s", "MB/s"},
          {"telco.parse_mb_per_s", "MB/s"},
          {"compress.encode_mb_per_s", "MB/s"},
          {"compress.ratio", "ratio"},
          {"compress.decode_mb_per_s", "MB/s"},
          {"dfs.read_ms_per_op", "ms"},
          {"dfs.bytes_read_per_op", "bytes"},
          {"dfs.blocks_read_per_op", "count"},
          {"dfs.sim_read_ms_per_op", "ms"},
          {"dfs.bytes_written_per_raw_byte", "ratio"},
          {"dfs.sim_write_ms_per_snap", "ms"},
          {"index.rollup_ms_per_snap", "ms"},
          {"index.add_snapshot_ms", "ms"},
          {"index.leaves_decayed", "count"},
          {"index.days_pruned", "count"},
          {"index.summary_answer_share", "ratio"},
          {"core.compress_ms_per_snap", "ms"},
          {"core.bytes_decoded_per_op", "bytes"},
          {"core.leaves_scanned_per_op", "count"},
          {"core.leaves_skipped_spatial_per_op", "count"},
          {"core.fragment_hit_ratio", "ratio"},
          {"core.fragment_evictions_per_op", "count"},
          {"core.fragment_budget_mb", "MB"},
          {"core.decoded_working_set_mb", "MB"},
          {"core.columnar_decode_ms_per_leaf", "ms"},
          {"core.filter_rows_per_s", "rows/s"},
          {"query.result_cache_hit_ratio", "ratio"},
          {"query.passes_per_query", "ratio"},
          {"query.join_ratio", "ratio"},
          {"query.mid_pass_attaches_per_query", "ratio"},
          {"query.leaves_folded_per_query", "count"},
          {"query.exclusive_runs", "count"},
          {"query.waiters_detached", "count"},
          {"query.task_scan_ms", "ms"},
          {"analytics.kernel_ms_per_task", "ms"},
          {"privacy.anonymize_ms", "ms"},
          {"sql.parse_ms", "ms"},
          {"sql.plan_ms", "ms"},
          {"sql.exec_ms", "ms"},
          {"sql.predicted_over_actual_bytes", "ratio"},
          {"sql.summary_plan_share", "ratio"},
          {"serve.shed", "count"},
          {"serve.degraded", "count"},
          {"serve.deadline_exceeded", "count"},
          {"serve.queue_rejections", "count"},
          {"serve.retries", "count"},
          {"serve.fallbacks", "count"},
          {"serve.writer_late_ms", "ms"},
          {"replay.ops", "count"},
          {"replay.leaves", "count"},
          {"replay.reconciled_ops", "count"},
          {"trace.spans", "count"},
          {"trace.untraced_ops_per_s", "ops/s"},
          {"trace.traced_ops_per_s", "ops/s"},
          {"trace.overhead_frac", "ratio"},
      };
  return names;
}

void FillMissingLayerMetrics(RunResult* out) {
  for (const auto& [name, unit] : LayerMetricNames()) {
    if (out->per_layer.count(name) == 0) {
      SetMetric(&out->per_layer, name, 0, unit);
    }
  }
}

std::string Exact(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
