// Workload `ingest`: one writer streams pre-generated snapshots as fast as
// it can into a SpateFramework with the paper's storage defaults (row
// layout, deflate, replication 3 on 4 datanodes) and a short decay policy
// (one day of raw leaves, two days of day summaries), so both decay stages
// run many cycles over each four-day pass of the stream. Op = one Ingest.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "check/fsck.h"
#include "common.h"

namespace perfbench {
namespace {

using namespace spate;

/// Days per pass over the stream; each pass starts from an empty store.
constexpr int kPassDays = 4;
/// Snapshots generated ahead of each timed batch.
constexpr size_t kBatch = 16;
constexpr int kSetupRepeats = 5;
/// Read probe over the first pass's store: Q(a,b,w), SQL and task ops.
constexpr size_t kProbeQueries = 100;
constexpr size_t kProbeSqls = 100;
constexpr size_t kProbeTasks = 16;
/// Probe rounds, one after each of the first passes.
constexpr int kProbeRounds = 5;

/// Spot queries checked against the reference after the first pass: fully
/// resident windows in the pass's last ten hours.
std::vector<ExplorationQuery> SpotQueries(Timestamp last_epoch,
                                          const CellDirectory& cells) {
  const BoundingBox& e = cells.extent();
  const BoundingBox west{e.min_x, e.min_y, (e.min_x + e.max_x) / 2, e.max_y};
  auto window = [&](int from_back, int epochs) {
    ExplorationQuery q;
    q.window_begin = last_epoch - from_back * kEpochSeconds;
    q.window_end = q.window_begin + epochs * kEpochSeconds;
    return q;
  };
  std::vector<ExplorationQuery> spots;
  spots.push_back(window(2, 3));
  spots.push_back(window(6, 3));
  spots.back().has_box = true;
  spots.back().box = west;
  spots.push_back(window(12, 1));
  spots.back().attributes = {"duration", "rssi"};
  spots.push_back(window(20, 4));
  spots.back().attributes = {"caller_id", "cell_id", "throughput"};
  spots.back().has_box = true;
  spots.back().box = west;
  return spots;
}

struct Phase {
  /// Latencies per epoch of the pass (one per pass over the stream).
  std::vector<Samples> epoch_ms;
  double busy_s = 0;
  uint64_t ops = 0;
  uint64_t ok = 0;
  uint64_t raw_bytes = 0;
  double sim_ms = 0;
  double compress_s = 0;
  double index_s = 0;
  uint64_t bytes_written = 0;
  double sim_write_ms = 0;
};

}  // namespace

RunResult RunIngest(const Options& options) {
  RunResult out;
  const TraceConfig config = MakeTrace(options.seed, kPassDays);
  const TraceGenerator generator(config);
  const std::vector<Timestamp> epochs = generator.EpochStarts();
  SpateOptions store_options;
  store_options.parallelism.worker_count = LoadWorkers();
  store_options.decay.full_resolution_seconds = 86400;
  store_options.decay.day_resolution_seconds = 2 * 86400;
  Tracer tracer(options.trace);

  // Stream state, carried across phases.
  std::unique_ptr<SpateFramework> store;
  std::vector<Snapshot> batch;
  size_t batch_index = 0;
  size_t pos = 0;  // index of the next snapshot within the pass
  bool first_pass = true;
  std::vector<uint64_t> raw_size(epochs.size(), 0);
  uint64_t first_stored = 0, first_raw = 0, first_written = 0;
  size_t first_decayed = 0, first_pruned = 0;
  bool checks_ok = false;
  ReadProbe probe(options.seed, TruncateToDay(epochs.back()), 1,
                  kProbeQueries, kProbeSqls, kProbeTasks,
                  CellDirectory(generator.cells()));
  int probe_rounds = 0;

  auto generate_batch = [&] {
    batch.clear();
    batch_index = 0;
    for (size_t k = pos; k < std::min(pos + kBatch, epochs.size()); ++k) {
      batch.push_back(generator.GenerateSnapshot(epochs[k]));
    }
  };
  // Set-up: an empty store plus the feed's first batch.
  std::vector<double> setup_times;
  auto setup = [&] {
    store.reset();
    const double t0 = Now();
    store = std::make_unique<SpateFramework>(store_options, generator.cells());
    pos = 0;
    generate_batch();
    setup_times.push_back(Now() - t0);
  };
  for (int r = 0; r < kSetupRepeats; ++r) setup();

  // After the first pass: fsck plus spot queries against a reference store
  // (serial, no decay) fed only the epochs the spots read.
  auto verify_first_pass = [&] {
    const check::FsckReport report = store->Fsck();
    bool ok = report.clean();
    if (!ok) out.notes.push_back("ingest: fsck found violations");
    SpateFramework reference(SpateOptions(), generator.cells());
    for (size_t k = epochs.size() - 21; k < epochs.size(); ++k) {
      if (!reference.Ingest(generator.GenerateSnapshot(epochs[k])).ok()) {
        ok = false;
      }
    }
    const std::vector<ExplorationQuery> spots =
        SpotQueries(epochs.back(), store->cells());
    for (size_t s = 0; s < spots.size(); ++s) {
      Result<QueryResult> got = store->Execute(spots[s]);
      Result<QueryResult> want = reference.Execute(spots[s]);
      uint64_t want_digest = want.ok() ? DigestQueryResult(*want) : 0;
      if (options.perturb_reference && s == 0) want_digest ^= 1;
      if (!got.ok() || !want.ok() || !got->exact ||
          DigestQueryResult(*got) != want_digest) {
        ok = false;
        out.notes.push_back("ingest: spot query " + std::to_string(s) +
                            " disagrees with the reference");
      }
    }
    first_decayed = store->index().num_decayed();
    first_pruned = store->index().num_pruned_days();
    if (first_decayed == 0 || first_pruned == 0) {
      ok = false;
      out.notes.push_back("ingest: decay stages did not run");
    }
    checks_ok = ok;
  };

  auto run_phase = [&](double seconds, Tracer* t, bool finish_first_pass,
                       Phase* phase) {
    Tracer off(false);
    Tracer* span_tracer = t != nullptr ? t : &off;
    phase->epoch_ms.resize(epochs.size());
    double end_time = Now() + seconds;
    while (Now() < end_time || (finish_first_pass && first_pass)) {
      if (batch_index >= batch.size()) {
        if (pos >= epochs.size()) {
          setup();
        } else {
          generate_batch();
        }
      }
      const Snapshot& snapshot = batch[batch_index];
      if (raw_size[pos] == 0) {
        raw_size[pos] = SerializeSnapshot(snapshot).size();
      }
      const uint32_t id = span_tracer->NewOp();
      const IoStats before = store->dfs().stats();
      const double t0 = Now();
      Status status;
      {
        Tracer::Scope span(span_tracer, id, "core.Ingest");
        status = store->Ingest(snapshot);
      }
      const double seconds_taken = Now() - t0;
      const IoStats after = store->dfs().stats();
      const IngestStats& stats = store->last_ingest_stats();
      phase->epoch_ms[pos].Add(seconds_taken * 1e3);
      phase->busy_s += seconds_taken;
      ++phase->ops;
      if (status.ok()) ++phase->ok;
      phase->raw_bytes += raw_size[pos];
      phase->sim_ms +=
          (after.simulated_io_seconds() - before.simulated_io_seconds()) * 1e3;
      phase->compress_s += stats.compress_seconds;
      phase->index_s += stats.index_seconds;
      phase->bytes_written += after.bytes_written - before.bytes_written;
      phase->sim_write_ms +=
          (after.simulated_write_seconds - before.simulated_write_seconds) *
          1e3;
      if (first_pass) {
        first_stored += stats.stored_bytes;
        first_raw += raw_size[pos];
        first_written += after.bytes_written - before.bytes_written;
      }
      ++batch_index;
      ++pos;
      if (pos == epochs.size() &&
          (first_pass || probe_rounds < kProbeRounds)) {
        // Off the clock, extending the phase: verification after the first
        // pass, and a read-probe round over the day each pass leaves at full
        // resolution.
        const double paused = Now();
        if (first_pass) verify_first_pass();
        first_pass = false;
        probe.RunRound(*store);
        ++probe_rounds;
        end_time += Now() - paused;
      }
    }
  };

  Phase main_phase, traced_phase;
  if (!options.trace) {
    run_phase(options.seconds, nullptr, true, &main_phase);
  } else {
    run_phase(options.seconds / 2, nullptr, true, &main_phase);
    run_phase(options.seconds / 2, &tracer, false, &traced_phase);
  }
  const double peak_rss = PeakRssMb();

  const ReadProbeResult reads = probe.Result();
  const uint64_t probe_ops = probe.ops() * static_cast<uint64_t>(probe_rounds);
  const uint64_t attempted = main_phase.ops + traced_phase.ops + probe_ops;
  const uint64_t ok =
      main_phase.ok + traced_phase.ok + probe_ops - reads.failed;
  out.attempted = attempted;
  out.failed = checks_ok ? attempted - ok : attempted;

  std::sort(setup_times.begin(), setup_times.end());
  const Phase& m = main_phase;
  // Each epoch's latency is its minimum over the passes (its cost with the
  // least host interference); throughput follows from the same minima.
  Samples per_epoch;
  double epoch_ms_sum = 0, epoch_raw = 0;
  for (size_t k = 0; k < epochs.size(); ++k) {
    if (m.epoch_ms[k].size() == 0) continue;
    const double ms = m.epoch_ms[k].Percentile(0);
    per_epoch.Add(ms);
    epoch_ms_sum += ms;
    epoch_raw += static_cast<double>(raw_size[k]);
  }
  auto& e2e = out.end_to_end;
  SetMetric(&e2e, "setup_s", setup_times[setup_times.size() / 2], "s");
  SetMetric(&e2e, "ops_per_s",
            Ratio(static_cast<double>(per_epoch.size()), epoch_ms_sum / 1e3),
            "ops/s");
  SetMetric(&e2e, "ingest_mb_per_s",
            Ratio(epoch_raw / 1e6, epoch_ms_sum / 1e3), "MB/s");
  SetMetric(&e2e, "ingest_p50_ms", per_epoch.Percentile(0.5), "ms");
  SetMetric(&e2e, "ingest_p90_ms", per_epoch.Percentile(0.9), "ms");
  SetMetric(&e2e, "query_p50_ms", reads.query.Percentile(0.5), "ms");
  SetMetric(&e2e, "query_p90_ms", reads.query.Percentile(0.9), "ms");
  SetMetric(&e2e, "sql_p50_ms", reads.sql.Percentile(0.5), "ms");
  SetMetric(&e2e, "sql_p90_ms", reads.sql.Percentile(0.9), "ms");
  SetMetric(&e2e, "task_ms_mean", reads.task_ms_mean, "ms");
  SetMetric(&e2e, "stored_bytes_per_raw_byte",
            Ratio(static_cast<double>(first_stored),
                  static_cast<double>(first_raw)),
            "ratio");
  SetMetric(&e2e, "modelled_io_ms_per_op",
            Ratio(m.sim_ms, static_cast<double>(m.ops)), "ms");
  SetMetric(&e2e, "correct_frac",
            Ratio(static_cast<double>(attempted - out.failed),
                  static_cast<double>(attempted)),
            "ratio");
  SetMetric(&e2e, "peak_rss_mb", peak_rss, "MB");

  Digest op_digest;
  for (size_t k = 0; k < epochs.size(); ++k) {
    op_digest.AddU64(static_cast<uint64_t>(epochs[k]));
    op_digest.AddU64(raw_size[k]);
  }
  out.deterministic["op_sequence"] = std::to_string(op_digest.value());
  out.deterministic["ingest.first_pass_stored_bytes"] =
      std::to_string(first_stored);
  out.deterministic["ingest.first_pass_raw_bytes"] = std::to_string(first_raw);
  out.deterministic["ingest.first_pass_dfs_bytes_written"] =
      std::to_string(first_written);
  char line[200];
  snprintf(line, sizeof(line),
           "ingest: samples=%zu passes_started=%zu leaves_decayed=%zu "
           "days_pruned=%zu checks=%s",
           static_cast<size_t>(m.ops), setup_times.size() - kSetupRepeats + 1,
           first_decayed, first_pruned, checks_ok ? "ok" : "FAILED");
  out.notes.push_back(line);

  if (options.trace) {
    const Phase& p = traced_phase;
    const double n = static_cast<double>(p.ops);
    auto& layer = out.per_layer;
    std::vector<Snapshot> sample;
    for (size_t k = 20; k < 36; k += 4) {
      sample.push_back(generator.GenerateSnapshot(epochs[k]));
    }
    ProbeTextLayers(sample, &tracer, &out);
    SetMetric(&layer, "dfs.bytes_written_per_raw_byte",
              Ratio(static_cast<double>(p.bytes_written),
                    static_cast<double>(p.raw_bytes)),
              "ratio");
    SetMetric(&layer, "dfs.sim_write_ms_per_snap", Ratio(p.sim_write_ms, n),
              "ms");
    SetMetric(&layer, "index.rollup_ms_per_snap", Ratio(p.index_s * 1e3, n),
              "ms");
    SetMetric(&layer, "core.compress_ms_per_snap",
              Ratio(p.compress_s * 1e3, n), "ms");
    SetMetric(&layer, "index.leaves_decayed",
              static_cast<double>(first_decayed), "count");
    SetMetric(&layer, "index.days_pruned", static_cast<double>(first_pruned),
              "count");
    const double untraced = Ratio(static_cast<double>(m.ops), m.busy_s);
    const double traced = Ratio(n, p.busy_s);
    SetMetric(&layer, "trace.untraced_ops_per_s", untraced, "ops/s");
    SetMetric(&layer, "trace.traced_ops_per_s", traced, "ops/s");
    SetMetric(&layer, "trace.overhead_frac", Ratio(untraced, traced) - 1,
              "ratio");
    ReportSpans(tracer, options, &out);
  }
  return out;
}

}  // namespace perfbench
