#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the SPATE benchmark: run options, latency samples,
// result digests, the span tracer, the per-layer probes and the leaf-path
// replay. Everything here calls the library only through its public
// headers; nothing under src/ is changed or instrumented.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/spate_framework.h"
#include "sql/executor.h"
#include "telco/generator.h"

namespace perfbench {

using spate::Timestamp;

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test switch: flips the reference answer of every seventh distinct
  /// op, so the correctness gate must report mismatches.
  bool perturb_reference = false;
  /// Directory the traced run writes its spans into.
  std::string out_dir = ".";
};

struct MetricValue {
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports.
struct RunResult {
  uint64_t attempted = 0;
  /// Ops that errored, were shed or degraded, or disagreed with the
  /// reference (plus failed replay reconciliations on traced runs).
  uint64_t failed = 0;
  std::map<std::string, MetricValue> end_to_end;
  std::map<std::string, MetricValue> per_layer;
  /// Exact counts that must repeat across runs of one seed (printed as
  /// text so no rounding hides a difference).
  std::map<std::string, std::string> deterministic;
  /// Human-readable detail lines printed before the result line.
  std::vector<std::string> notes;
};

/// Steady-clock seconds since an arbitrary origin.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Worker threads a workload may use: `nproc`, capped at 4.
int LoadWorkers();

/// Peak resident set size of this process in MB (`ru_maxrss`).
double PeakRssMb();

/// Latency samples of one op class, in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, `q` in (0, 1]. 0 when empty.
  double Percentile(double q) const;
  /// Mean of the middle half of the samples (robust to outliers).
  double InterquartileMean() const;

 private:
  std::vector<double> values_;
};

/// Incremental 64-bit FNV-1a digest.
class Digest {
 public:
  void Add(std::string_view bytes);
  void AddU64(uint64_t v);
  void AddDouble(double v);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Digest of everything a `QueryResult` answers with (flags, rows, window
/// summary, skipped epochs). With `summary_counts_only` the summary
/// contributes only its per-cell row and drop counts: a `ResultCache` hit
/// rebuilds the summary from the narrowed rows, which sums the float
/// metrics in another order and restricts the categorical histograms to
/// the box, so only the counts are comparable across cache states.
uint64_t DigestQueryResult(const spate::QueryResult& result,
                           bool summary_counts_only = false);

/// Digest of a SQL result; `sort_rows` canonicalizes row order first (for
/// answers gathered across shards, whose row order is shard order).
uint64_t DigestSqlResult(const spate::SqlResult& result, bool sort_rows);

/// A fingerprint that compares exact parts by digest and floating-point
/// parts with a relative tolerance (the analytics kernels reduce on a
/// thread pool, so their sums may differ in the last bits between a
/// parallel run and the serial reference).
struct Fingerprint {
  uint64_t exact = 0;
  std::vector<double> approx;

  bool Matches(const Fingerprint& other) const;
};

/// The benchmark's trace recorder: spans (name, start, end, parent) around
/// every call the benchmark makes into a layer, grouped by op id. Spans stay
/// in memory until `Write`. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    uint32_t op = 0;
    uint32_t id = 0;
    uint32_t parent = 0;  // 0 = root of its op
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// RAII span. Nested scopes on one thread become parent and child.
  class Scope {
   public:
    Scope(Tracer* tracer, uint32_t op, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
    uint32_t saved_parent_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint32_t NewOp() { return next_op_.fetch_add(1) + 1; }

  /// Self time (duration minus the time covered by child spans) summed by
  /// span name, in milliseconds, with the number of spans per name.
  std::map<std::string, std::pair<double, uint64_t>> SelfTimes() const;
  size_t num_spans() const;

  /// Writes one JSON object per span (JSON lines) to `path`.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<uint32_t> next_op_{0};
  std::atomic<uint32_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// One quarter (0-3) of the cells' bounding box.
spate::BoundingBox Quadrant(const spate::CellDirectory& cells, int quadrant);

/// The trace every workload draws from: `bench::BenchTrace()` density with
/// the run's seed and the given number of days.
spate::TraceConfig MakeTrace(uint64_t seed, int days);

/// Per-layer probes over a sample of the workload's snapshots: serialize,
/// parse, compress (encode, ratio, decode) and the summary roll-up, timed
/// through the layers' public functions. Fills the `telco.*`,
/// `compress.*` and `index.add_snapshot_ms` metrics and the exact
/// `compress.ratio` count.
void ProbeTextLayers(const std::vector<spate::Snapshot>& sample,
                     Tracer* tracer, RunResult* out);

/// Outcome of replaying one exploration query's leaf path from outside
/// the framework: which layers did what, and how long each took.
struct ReplayStats {
  uint64_t leaves = 0;
  uint64_t columnar_leaves = 0;
  uint64_t leaves_skipped_spatial = 0;
  uint64_t bytes_decoded = 0;   // plaintext produced, as ScanStats counts it
  uint64_t codec_bytes = 0;     // plaintext produced by the codec probe
  uint64_t dfs_bytes_read = 0;  // IoStats delta of the replay's reads
  uint64_t dfs_blocks_read = 0;
  uint64_t rows_filtered = 0;
  uint64_t parse_bytes = 0;  // row text handed to ParseSnapshot
  double read_ms = 0;
  double codec_ms = 0;
  double columnar_ms = 0;
  double parse_ms = 0;
  double filter_ms = 0;
  std::vector<spate::Record> cdr_rows;
  std::vector<spate::Record> nms_rows;

  /// Sums the counters and times (not the rows) of `other`.
  void Add(const ReplayStats& other);
};

/// Replays `query`'s exact-path leaf walk on `framework` through the public
/// layer functions: `TemporalIndex::LeavesInWindow`, the summary cell-set
/// spatial skip, `ReadFile`, the codec / `DecodeColumnarLeaf` decode,
/// `ParseSnapshot` and `FilterSnapshotRows`. Decodes without the fragment
/// cache, so `bytes_decoded` equals what a cold scan decodes. The caller
/// must hold the framework quiescent (no concurrent mutator).
spate::Status ReplayQuery(spate::SpateFramework& framework,
                          const spate::ExplorationQuery& query, Tracer* tracer,
                          uint32_t op, ReplayStats* out);

/// Adds the replay-derived layer metrics for `ops` replayed ops.
void ReportReplay(const ReplayStats& total, uint64_t ops, RunResult* out);

/// Writes the traced run's spans to `<out_dir>/spans-<workload>-<seed>.jsonl`,
/// sets `trace.spans` and adds a per-span-name self-time table to the notes.
void ReportSpans(const Tracer& tracer, const Options& options, RunResult* out);

/// Names and units of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// Sets every per-layer metric this workload does not produce to 0, so a
/// traced run always reports the full set.
void FillMissingLayerMetrics(RunResult* out);

/// Adds a metric to the end-to-end or per-layer map.
inline void SetMetric(std::map<std::string, MetricValue>* map,
                      const std::string& name, double value,
                      const std::string& unit) {
  (*map)[name] = MetricValue{value, unit};
}

/// Formats a double with every digit a round trip needs.
std::string Exact(double v);

/// Safe ratio: 0 when the denominator is 0.
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// Latencies of a read probe: per-op minimum over its rounds.
struct ReadProbeResult {
  Samples query, sql;
  double task_ms_mean = 0;
  uint64_t failed = 0;
};

/// The `explore` recipe's op shapes — `queries` Q(a,b,w), `sqls` planned
/// SQL and `tasks` T1-T8 ops, windows of at most two hours inside the
/// `days` days from `resident` — run in rounds against a store another
/// workload built. It gives the workloads whose own op mix has no reads
/// (`ingest`) or no tasks (`serve`) the read-side latencies of the store
/// they produce, so a change that speeds their ops by slowing later reads
/// shows there too. Rounds spread over a run let the per-op minimum skip
/// a stretch of host noise.
class ReadProbe {
 public:
  ReadProbe(uint64_t seed, Timestamp resident, int days, size_t queries,
            size_t sqls, size_t tasks, const spate::CellDirectory& cells);
  ~ReadProbe();
  ReadProbe(const ReadProbe&) = delete;
  ReadProbe& operator=(const ReadProbe&) = delete;

  /// Runs every op once against `framework` (quiescent, holding the data).
  void RunRound(spate::SpateFramework& framework);
  size_t ops() const;
  ReadProbeResult Result() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// Workload entry points (one file each).
RunResult RunIngest(const Options& options);
RunResult RunExplore(const Options& options);
RunResult RunServe(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
