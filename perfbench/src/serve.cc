// Workload `serve`: a QueryServer with 2 shards x 2 workers (row layout, a
// fragment cache that holds the hot set, unlimited quota, generous
// deadline). Three closed-loop analyst threads send exploration requests
// and prepared SQL over recency-skewed 1-3 h windows (half with a quadrant
// box), while a fourth thread replays the live feed on a fixed schedule
// (open loop) and its ingest latency is timed from each epoch's due time.
//
// Every analyst window ends at or before the first feed epoch. Shards
// answer repeated windows from their ResultCache, which ingest never
// invalidates: a window reaching the feed's epochs could be served stale
// (see perfbench/NOTES.md), so the generator never emits one.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "common.h"
#include "common/random.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace spate;

constexpr int kPreloadDays = 2;
constexpr int kAnalysts = 3;
/// Distinct ops per analyst, cycled through the timed phase.
constexpr size_t kOpsPerAnalyst = 100;
/// Feed schedule: one epoch every this many seconds.
constexpr double kFeedInterval = 0.09;
constexpr int kSetupRepeats = 5;
/// Exploration requests whose leaf path the traced run replays per shard.
constexpr size_t kReplayOps = 16;
constexpr size_t kShardCacheBytes = 32u << 20;
/// Read probe of T1-T8 over the unsharded store built for the SQL
/// references: tasks and rounds.
constexpr size_t kProbeTasks = 80;
constexpr int kProbeRounds = 8;

struct ServeOp {
  bool sql = false;
  ExplorationQuery query;           // exploration request
  std::string prepared;             // SQL: registered statement name
  std::vector<std::string> params;  // SQL: bindings
  std::string text;                 // SQL: the bound text, for the reference
  std::string label;
};

struct Statement {
  const char* name;
  const char* text;
};
constexpr Statement kStatements[] = {
    {"narrow", "SELECT caller_id, duration FROM CDR WHERE ts >= ? AND ts < ?"},
    {"cell",
     "SELECT caller_id, duration FROM CDR WHERE cell_id = ? AND ts >= ? AND "
     "ts < ?"},
    {"agg",
     "SELECT cell_id, COUNT(*), SUM(duration) FROM CDR WHERE ts >= ? AND "
     "ts < ? GROUP BY cell_id"},
};

Timestamp FeedStart(const TraceConfig& config) {
  return config.start + kPreloadDays * 86400;
}

/// Epochs back from the feed start at quantile `q` of a Zipf(1.1)
/// distribution over [0, n): recent windows are the most frequent.
int64_t ZipfQuantile(size_t n, double q) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) total += 1.0 / std::pow(i + 1.0, 1.1);
  double cumulative = 0;
  for (size_t i = 0; i < n; ++i) {
    cumulative += 1.0 / std::pow(i + 1.0, 1.1) / total;
    if (cumulative >= q) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(n - 1);
}

/// The seeded op list of one analyst. Windows are 2-6 epochs long and end
/// a Zipf-distributed number of epochs before the feed start, so recent
/// windows repeat and overlap; none reaches the feed. The shapes follow a
/// fixed recipe (60% exploration requests, half of them boxed; the Zipf
/// offsets at stratified quantiles), so every seed runs the same mix; the
/// seed picks the order and the cells.
std::vector<ServeOp> AnalystOps(uint64_t seed, int analyst,
                                const TraceConfig& config,
                                const CellDirectory& cells) {
  const Timestamp feed_start = FeedStart(config);
  const size_t max_back = kPreloadDays * kEpochsPerDay - 6;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 77 + static_cast<uint64_t>(analyst));
  std::vector<ServeOp> ops;
  for (size_t k = 0; k < kOpsPerAnalyst; ++k) {
    ServeOp op;
    const int64_t epochs = 2 + static_cast<int64_t>(k % 5);
    const size_t stratum = (k * 37 + static_cast<size_t>(analyst) * 11) %
                           kOpsPerAnalyst;
    const double quantile = (stratum + 0.5) / kOpsPerAnalyst;
    const Timestamp end =
        feed_start - ZipfQuantile(max_back, quantile) * kEpochSeconds;
    const Timestamp begin = end - epochs * kEpochSeconds;
    if (k % 5 < 3) {
      op.query.window_begin = begin;
      op.query.window_end = end;
      if ((k / 5) % 2 == 0) {
        op.query.has_box = true;
        op.query.box = Quadrant(cells, static_cast<int>((k / 10) % 4));
      }
      if ((k / 10) % 2 == 0) {
        op.query.attributes = {"caller_id", "duration", "upflux", "drop_calls",
                               "rssi"};
      }
      op.label = "Q box=" + std::to_string(op.query.has_box) + " attrs=" +
                 std::to_string(op.query.attributes.size()) + " w=" +
                 FormatCompact(begin) + "+" + std::to_string(epochs);
    } else {
      op.sql = true;
      const Statement& s = kStatements[(k / 5 + k % 5) % 3];
      op.prepared = s.name;
      std::string text = s.text;
      if (op.prepared == "cell") {
        op.params.push_back(cells.cells()[rng.Uniform(cells.size())].id);
      }
      op.params.push_back(FormatCompact(begin));
      op.params.push_back(FormatCompact(end));
      for (const std::string& p : op.params) {
        text.replace(text.find('?'), 1, "'" + p + "'");
      }
      op.text = text;
      op.label = "SQL " + text;
    }
    ops.push_back(std::move(op));
  }
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Uniform(i)]);
  }
  return ops;
}

struct AnalystLog {
  /// Latencies of each op of the analyst's list, and completions per
  /// second of the phase.
  std::vector<Samples> op_ms;
  std::vector<uint64_t> per_second;
  uint64_t ops = 0;
  uint64_t not_ok = 0;
  /// (op index, answer digest) of every kOk answer.
  std::vector<std::pair<size_t, uint64_t>> answers;
};

struct FeedLog {
  Samples latency;
  double late_ms = 0;
  uint64_t ingests = 0;
  uint64_t failed = 0;
  uint64_t raw_bytes = 0;
  double compress_s = 0;
  double index_s = 0;
  uint64_t stored_bytes = 0;
  double busy_s = 0;
};

/// Sum of every shard's DFS counters.
IoStats ServerIo(QueryServer& server) {
  IoStats total;
  for (size_t i = 0; i < server.num_shards(); ++i) {
    const IoStats s = server.shard(i).framework().dfs().stats();
    total.bytes_read += s.bytes_read;
    total.bytes_written += s.bytes_written;
    total.blocks_read += s.blocks_read;
    total.simulated_read_seconds += s.simulated_read_seconds;
    total.simulated_write_seconds += s.simulated_write_seconds;
  }
  return total;
}

/// Sum of every shard's counters.
ShardStats SumShards(const ServerStats& stats) {
  ShardStats sum;
  for (const ShardStats& s : stats.shards) {
    sum.queue_rejections += s.queue_rejections;
    sum.executed += s.executed;
    sum.retries += s.retries;
    sum.fallbacks += s.fallbacks;
    sum.cache.hits += s.cache.hits;
    sum.cache.misses += s.cache.misses;
    sum.scheduler.passes_started += s.scheduler.passes_started;
    sum.scheduler.shared_pass_joins += s.scheduler.shared_pass_joins;
    sum.scheduler.mid_pass_attaches += s.scheduler.mid_pass_attaches;
    sum.scheduler.waiters_detached += s.scheduler.waiters_detached;
    sum.scheduler.summary_answers += s.scheduler.summary_answers;
    sum.scheduler.exclusive_runs += s.scheduler.exclusive_runs;
    sum.scheduler.leaves_folded += s.scheduler.leaves_folded;
    sum.scheduler.bytes_decoded += s.scheduler.bytes_decoded;
    sum.fragments.fragment_hits += s.fragments.fragment_hits;
    sum.fragments.misses += s.fragments.misses;
    sum.fragments.evictions += s.fragments.evictions;
  }
  return sum;
}

}  // namespace

std::vector<std::string> ServeWindowViolations(uint64_t seed) {
  const TraceConfig config = MakeTrace(seed, kPreloadDays);
  const TraceGenerator generator(config);
  const CellDirectory cells(generator.cells());
  const Timestamp feed_start = FeedStart(config);
  std::vector<std::string> violations;
  for (int a = 0; a < kAnalysts; ++a) {
    for (const ServeOp& op : AnalystOps(seed, a, config, cells)) {
      Timestamp begin = op.query.window_begin, end = op.query.window_end;
      if (op.sql) {
        begin = ParseCompact(op.params[op.params.size() - 2]);
        end = ParseCompact(op.params.back());
      }
      if (end > feed_start || begin >= end || begin < config.start) {
        violations.push_back(op.label + " reaches past the data (feed at " +
                             FormatCompact(feed_start) + ")");
      }
    }
  }
  return violations;
}

RunResult RunServe(const Options& options) {
  RunResult out;
  const TraceConfig config = MakeTrace(options.seed, kPreloadDays + 3);
  const TraceGenerator generator(config);
  const Timestamp feed_start = FeedStart(config);
  std::vector<Timestamp> preload;
  for (Timestamp epoch : generator.EpochStarts()) {
    if (epoch < feed_start) preload.push_back(epoch);
  }

  ServeOptions serve_options;
  serve_options.num_shards = 2;
  serve_options.shard.fragment_cache_bytes = kShardCacheBytes;
  serve_options.quota.tokens_per_second = 0;  // unlimited
  serve_options.quota.max_in_flight = 0;
  serve_options.default_deadline_seconds = 60;
  serve_options.tuning.workers = 2;
  auto build = [&](const ServeOptions& o) {
    auto server = std::make_unique<QueryServer>(o, generator.cells());
    for (Timestamp epoch : preload) {
      if (!server->Ingest(generator.GenerateSnapshot(epoch)).ok()) ++out.failed;
    }
    for (const Statement& s : kStatements) {
      if (!server->PrepareSql(s.name, s.text).ok()) ++out.failed;
    }
    return server;
  };
  std::unique_ptr<QueryServer> server;
  std::vector<double> setup_times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    const double t0 = Now();
    server = build(serve_options);
    setup_times.push_back(Now() - t0);
  }
  std::sort(setup_times.begin(), setup_times.end());

  std::vector<std::vector<ServeOp>> ops;
  Digest op_digest;
  for (int a = 0; a < kAnalysts; ++a) {
    ops.push_back(AnalystOps(options.seed, a, config, server->cells()));
    for (const ServeOp& op : ops.back()) op_digest.Add(op.label);
  }

  // The feed, serialized before the timed phase (parsed back just ahead of
  // each due time, off the clock).
  const size_t feed_epochs =
      static_cast<size_t>(options.seconds / kFeedInterval) + 4;
  std::vector<std::string> feed;
  for (size_t i = 0; i < feed_epochs; ++i) {
    feed.push_back(SerializeSnapshot(
        generator.GenerateSnapshot(feed_start + i * kEpochSeconds)));
  }
  size_t feed_pos = 0;

  Tracer tracer(options.trace);
  std::vector<AnalystLog> analyst_logs(kAnalysts);
  FeedLog feed_log;

  struct PhaseResult {
    double wall_s = 0;
    double ops_per_s = 0;
    uint64_t analyst_ops = 0;
    uint64_t ingests = 0;
    IoStats io_before, io_after;
    ServerStats stats_before, stats_after;
    Samples query, sql, ingest;
    double late_ms = 0;
    uint64_t raw_bytes = 0;
    uint64_t stored_bytes = 0;
    double ingest_busy_s = 0;
    double compress_s = 0, index_s = 0;
  };

  auto run_phase = [&](double seconds, Tracer* t, PhaseResult* phase) {
    Tracer off(false);
    Tracer* span_tracer = t != nullptr ? t : &off;
    std::vector<AnalystLog> logs(kAnalysts);
    FeedLog flog;
    phase->io_before = ServerIo(*server);
    phase->stats_before = server->Stats();
    std::atomic<bool> stop{false};
    const double start = Now();
    const double end_time = start + seconds;
    std::vector<std::thread> threads;
    for (int a = 0; a < kAnalysts; ++a) {
      threads.emplace_back([&, a] {
        AnalystLog& log = logs[a];
        const std::vector<ServeOp>& list = ops[a];
        log.op_ms.resize(list.size());
        for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const size_t index = i % list.size();
          const ServeOp& op = list[index];
          const uint32_t id = span_tracer->NewOp();
          const double t0 = Now();
          if (op.sql) {
            SqlServeRequest request;
            request.prepared = op.prepared;
            request.params = op.params;
            SqlServeResponse response = [&] {
              Tracer::Scope span(span_tracer, id, "serve.QuerySql");
              return server->QuerySql(request);
            }();
            log.op_ms[index].Add((Now() - t0) * 1e3);
            if (response.outcome == ServeOutcome::kOk) {
              log.answers.emplace_back(index,
                                       DigestSqlResult(response.result, true));
            } else {
              ++log.not_ok;
            }
          } else {
            ServeRequest request;
            request.query = op.query;
            ServeResponse response = [&] {
              Tracer::Scope span(span_tracer, id, "serve.Query");
              return server->Query(request);
            }();
            log.op_ms[index].Add((Now() - t0) * 1e3);
            if (response.outcome == ServeOutcome::kOk) {
              log.answers.emplace_back(
                  index, DigestQueryResult(response.result, true));
            } else {
              ++log.not_ok;
            }
          }
          ++log.ops;
          const size_t second = static_cast<size_t>(Now() - start);
          if (log.per_second.size() <= second) {
            log.per_second.resize(second + 1);
          }
          ++log.per_second[second];
        }
      });
    }
    // The feed: open loop, one epoch per interval, timed from its due time.
    threads.emplace_back([&] {
      for (uint64_t k = 1; feed_pos < feed.size(); ++k) {
        const double due = start + k * kFeedInterval;
        if (due >= end_time) break;
        Snapshot snapshot;
        if (!ParseSnapshot(feed[feed_pos], &snapshot).ok()) ++flog.failed;
        ++feed_pos;
        const double wait = due - Now();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const uint32_t id = span_tracer->NewOp();
        const double begun = Now();
        Status status;
        {
          Tracer::Scope span(span_tracer, id, "serve.Ingest");
          status = server->Ingest(snapshot);
        }
        const double done = Now();
        flog.late_ms += (begun - due) * 1e3;
        flog.latency.Add((done - due) * 1e3);
        ++flog.ingests;
        if (!status.ok()) ++flog.failed;
        flog.raw_bytes += feed[feed_pos - 1].size();
        flog.busy_s += done - begun;
        for (size_t s = 0; s < server->num_shards(); ++s) {
          const IngestStats& is =
              server->shard(s).framework().last_ingest_stats();
          flog.compress_s += is.compress_seconds;
          flog.index_s += is.index_seconds;
          flog.stored_bytes += is.stored_bytes;
        }
      }
    });
    const double remaining = end_time - Now();
    if (remaining > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(remaining));
    }
    stop.store(true);
    for (std::thread& th : threads) th.join();
    phase->wall_s = Now() - start;
    phase->io_after = ServerIo(*server);
    phase->stats_after = server->Stats();
    // Each op's latency is its median over its repetitions; the class
    // percentiles are taken over those per-op medians, and throughput is
    // the interquartile mean over the phase's whole seconds, so bursts of
    // host noise do not move them.
    std::vector<uint64_t> per_second;
    for (int a = 0; a < kAnalysts; ++a) {
      AnalystLog& log = logs[a];
      phase->analyst_ops += log.ops;
      for (size_t i = 0; i < log.op_ms.size(); ++i) {
        if (log.op_ms[i].size() == 0) continue;
        (ops[a][i].sql ? phase->sql : phase->query)
            .Add(log.op_ms[i].Percentile(0.5));
      }
      if (per_second.size() < log.per_second.size()) {
        per_second.resize(log.per_second.size());
      }
      for (size_t s = 0; s < log.per_second.size(); ++s) {
        per_second[s] += log.per_second[s];
      }
      AnalystLog& keep = analyst_logs[a];
      keep.ops += log.ops;
      keep.not_ok += log.not_ok;
      keep.answers.insert(keep.answers.end(), log.answers.begin(),
                          log.answers.end());
    }
    Samples rates;
    for (size_t s = 0; s + 1 < per_second.size(); ++s) {
      rates.Add(static_cast<double>(per_second[s]));
    }
    phase->ops_per_s = rates.size() > 0
                           ? rates.InterquartileMean()
                           : Ratio(static_cast<double>(phase->analyst_ops),
                                   phase->wall_s);
    phase->ingests = flog.ingests;
    phase->ingest = flog.latency;
    phase->late_ms = flog.late_ms;
    phase->raw_bytes = flog.raw_bytes;
    phase->stored_bytes = flog.stored_bytes;
    phase->ingest_busy_s = flog.busy_s;
    phase->compress_s = flog.compress_s;
    phase->index_s = flog.index_s;
    feed_log.ingests += flog.ingests;
    feed_log.failed += flog.failed;
  };

  PhaseResult main_phase, traced_phase;
  if (!options.trace) {
    run_phase(options.seconds, nullptr, &main_phase);
  } else {
    run_phase(options.seconds / 2, nullptr, &main_phase);
    run_phase(options.seconds / 2, &tracer, &traced_phase);
  }
  const double peak_rss = PeakRssMb();


  // Correctness: one reference answer per distinct op, from an independent
  // server (serial shards, no fragment cache) for exploration requests and
  // the naive executor over an unsharded serial store for SQL.
  ServeOptions reference_options = serve_options;
  reference_options.tuning.workers = 1;
  reference_options.shard.fragment_cache_bytes = 0;
  std::unique_ptr<QueryServer> reference_server = build(reference_options);
  SpateFramework reference(SpateOptions(), generator.cells());
  for (Timestamp epoch : preload) {
    if (!reference.Ingest(generator.GenerateSnapshot(epoch)).ok()) ++out.failed;
  }
  // The analysts run no tasks: probe T1-T8 over the last preloaded day of
  // that unsharded store (the shards' row layout, every cell in one place,
  // no cache state left by the timed phase).
  ReadProbe probe(options.seed, feed_start - 86400, 1, 0, 0, kProbeTasks,
                  server->cells());
  for (int r = 0; r < kProbeRounds; ++r) probe.RunRound(reference);
  const ReadProbeResult reads = probe.Result();
  out.failed += reads.failed;
  uint64_t mismatches = 0, analyst_ops = 0, not_ok = 0;
  size_t distinct = 0;
  for (int a = 0; a < kAnalysts; ++a) {
    std::unordered_map<size_t, uint64_t> expected;
    analyst_ops += analyst_logs[a].ops;
    not_ok += analyst_logs[a].not_ok;
    for (const auto& [index, digest] : analyst_logs[a].answers) {
      auto it = expected.find(index);
      if (it == expected.end()) {
        const ServeOp& op = ops[a][index];
        uint64_t want = ~digest;
        if (op.sql) {
          Result<SqlResult> r = ExecuteSql(reference, op.text);
          if (r.ok()) want = DigestSqlResult(*r, true);
        } else {
          ServeRequest request;
          request.query = op.query;
          ServeResponse r = reference_server->Query(request);
          if (r.outcome == ServeOutcome::kOk) {
            want = DigestQueryResult(r.result, true);
          }
        }
        if (options.perturb_reference && index % 7 == 0) want ^= 1;
        it = expected.emplace(index, want).first;
      }
      if (it->second != digest) {
        if (mismatches < 5) {
          out.notes.push_back("serve: answer differs from the reference: " +
                              ops[a][index].label);
        }
        ++mismatches;
      }
    }
    distinct += expected.size();
  }
  out.attempted =
      analyst_ops + feed_log.ingests + kProbeRounds * kProbeTasks;
  out.failed += not_ok + mismatches + feed_log.failed;

  const PhaseResult& m = main_phase;
  const double m_ops = static_cast<double>(m.analyst_ops + m.ingests);
  auto& e2e = out.end_to_end;
  SetMetric(&e2e, "setup_s", setup_times[setup_times.size() / 2], "s");
  SetMetric(&e2e, "ops_per_s", m.ops_per_s, "ops/s");
  SetMetric(&e2e, "ingest_mb_per_s",
            Ratio(static_cast<double>(m.raw_bytes) / 1e6, m.ingest_busy_s),
            "MB/s");
  SetMetric(&e2e, "stored_bytes_per_raw_byte",
            Ratio(static_cast<double>(m.stored_bytes),
                  static_cast<double>(m.raw_bytes)),
            "ratio");
  SetMetric(&e2e, "task_ms_mean", reads.task_ms_mean, "ms");
  SetMetric(&e2e, "ingest_p50_ms", m.ingest.Percentile(0.5), "ms");
  SetMetric(&e2e, "ingest_p90_ms", m.ingest.Percentile(0.9), "ms");
  SetMetric(&e2e, "query_p50_ms", m.query.Percentile(0.5), "ms");
  SetMetric(&e2e, "query_p90_ms", m.query.Percentile(0.9), "ms");
  SetMetric(&e2e, "sql_p50_ms", m.sql.Percentile(0.5), "ms");
  SetMetric(&e2e, "sql_p90_ms", m.sql.Percentile(0.9), "ms");
  SetMetric(&e2e, "modelled_io_ms_per_op",
            Ratio((m.io_after.simulated_io_seconds() -
                   m.io_before.simulated_io_seconds()) *
                      1e3,
                  m_ops),
            "ms");
  SetMetric(&e2e, "correct_frac",
            Ratio(static_cast<double>(out.attempted - out.failed),
                  static_cast<double>(out.attempted)),
            "ratio");
  SetMetric(&e2e, "peak_rss_mb", peak_rss, "MB");

  char line[256];
  snprintf(line, sizeof(line),
           "serve: samples query=%zu sql=%zu ingest=%zu analyst_ops=%" PRIu64
           " distinct=%zu not_ok=%" PRIu64 " mismatches=%" PRIu64
           " feed_late_ms_mean=%.3f",
           m.query.size(), m.sql.size(), m.ingest.size(), m.analyst_ops,
           distinct, not_ok, mismatches,
           Ratio(m.late_ms, static_cast<double>(m.ingests)));
  out.notes.push_back(line);
  out.deterministic["op_sequence"] = std::to_string(op_digest.value());

  if (options.trace) {
    const PhaseResult& p = traced_phase;
    const double n = static_cast<double>(p.analyst_ops);
    const double snaps = static_cast<double>(p.ingests);
    auto& layer = out.per_layer;
    std::vector<Snapshot> sample(4);
    for (size_t k = 0; k < sample.size(); ++k) {
      (void)ParseSnapshot(feed[k], &sample[k]);
    }
    ProbeTextLayers(sample, &tracer, &out);

    // Replay a sample of exploration requests on each (now idle) shard.
    ReplayStats replay;
    uint64_t replayed = 0;
    for (size_t a = 0; a < ops.size() && replayed < kReplayOps; ++a) {
      for (const ServeOp& op : ops[a]) {
        if (op.sql || replayed >= kReplayOps) continue;
        const uint32_t id = tracer.NewOp();
        for (size_t s = 0; s < server->num_shards(); ++s) {
          ReplayStats shard_replay;
          if (!ReplayQuery(server->shard(s).framework(), op.query, &tracer, id,
                           &shard_replay)
                   .ok()) {
            ++out.failed;
          }
          replay.Add(shard_replay);
        }
        ++replayed;
      }
    }
    ReportReplay(replay, replayed, &out);

    const IoStats& b = p.io_before;
    const IoStats& e = p.io_after;
    SetMetric(&layer, "dfs.bytes_read_per_op",
              Ratio(static_cast<double>(e.bytes_read - b.bytes_read), n),
              "bytes");
    SetMetric(&layer, "dfs.blocks_read_per_op",
              Ratio(static_cast<double>(e.blocks_read - b.blocks_read), n),
              "count");
    SetMetric(&layer, "dfs.sim_read_ms_per_op",
              Ratio((e.simulated_read_seconds - b.simulated_read_seconds) * 1e3,
                    n),
              "ms");
    SetMetric(&layer, "dfs.bytes_written_per_raw_byte",
              Ratio(static_cast<double>(e.bytes_written - b.bytes_written),
                    static_cast<double>(p.raw_bytes)),
              "ratio");
    SetMetric(&layer, "dfs.sim_write_ms_per_snap",
              Ratio((e.simulated_write_seconds - b.simulated_write_seconds) *
                        1e3,
                    snaps),
              "ms");
    SetMetric(&layer, "index.rollup_ms_per_snap", Ratio(p.index_s * 1e3, snaps),
              "ms");
    SetMetric(&layer, "core.compress_ms_per_snap",
              Ratio(p.compress_s * 1e3, snaps), "ms");

    const ShardStats before = SumShards(p.stats_before);
    const ShardStats after = SumShards(p.stats_after);
    const double executed =
        static_cast<double>(after.executed - before.executed);
    const ScanSchedulerStats& sb = before.scheduler;
    const ScanSchedulerStats& sa = after.scheduler;
    const double passes =
        static_cast<double>(sa.passes_started - sb.passes_started);
    const double joins =
        static_cast<double>(sa.shared_pass_joins - sb.shared_pass_joins);
    SetMetric(&layer, "index.summary_answer_share",
              Ratio(static_cast<double>(sa.summary_answers -
                                        sb.summary_answers),
                    executed),
              "ratio");
    SetMetric(&layer, "core.bytes_decoded_per_op",
              Ratio(static_cast<double>(sa.bytes_decoded - sb.bytes_decoded),
                    n),
              "bytes");
    SetMetric(&layer, "core.leaves_scanned_per_op",
              Ratio(static_cast<double>(sa.leaves_folded - sb.leaves_folded),
                    n),
              "count");
    const double hits = static_cast<double>(after.fragments.fragment_hits -
                                            before.fragments.fragment_hits);
    const double misses =
        static_cast<double>(after.fragments.misses - before.fragments.misses);
    SetMetric(&layer, "core.fragment_hit_ratio", Ratio(hits, hits + misses),
              "ratio");
    SetMetric(&layer, "core.fragment_evictions_per_op",
              Ratio(static_cast<double>(after.fragments.evictions -
                                        before.fragments.evictions),
                    n),
              "count");
    SetMetric(&layer, "core.fragment_budget_mb",
              server->num_shards() * kShardCacheBytes / 1e6, "MB");
    const double cache_hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double cache_misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    SetMetric(&layer, "query.result_cache_hit_ratio",
              Ratio(cache_hits, cache_hits + cache_misses), "ratio");
    SetMetric(&layer, "query.passes_per_query", Ratio(passes, executed),
              "ratio");
    SetMetric(&layer, "query.join_ratio", Ratio(joins, passes + joins),
              "ratio");
    SetMetric(&layer, "query.mid_pass_attaches_per_query",
              Ratio(static_cast<double>(sa.mid_pass_attaches -
                                        sb.mid_pass_attaches),
                    executed),
              "ratio");
    SetMetric(&layer, "query.leaves_folded_per_query",
              Ratio(static_cast<double>(sa.leaves_folded - sb.leaves_folded),
                    executed),
              "count");
    SetMetric(&layer, "query.exclusive_runs",
              static_cast<double>(sa.exclusive_runs - sb.exclusive_runs),
              "count");
    SetMetric(&layer, "query.waiters_detached",
              static_cast<double>(sa.waiters_detached - sb.waiters_detached),
              "count");
    const TenantStats tb = p.stats_before.tenants.count("default")
                               ? p.stats_before.tenants.at("default")
                               : TenantStats();
    const TenantStats ta = p.stats_after.tenants.count("default")
                               ? p.stats_after.tenants.at("default")
                               : TenantStats();
    SetMetric(&layer, "serve.shed", static_cast<double>(ta.shed - tb.shed),
              "count");
    SetMetric(&layer, "serve.degraded",
              static_cast<double>(ta.degraded - tb.degraded), "count");
    SetMetric(&layer, "serve.deadline_exceeded",
              static_cast<double>(ta.deadline_exceeded - tb.deadline_exceeded),
              "count");
    SetMetric(&layer, "serve.queue_rejections",
              static_cast<double>(after.queue_rejections -
                                  before.queue_rejections),
              "count");
    SetMetric(&layer, "serve.retries",
              static_cast<double>(after.retries - before.retries), "count");
    SetMetric(&layer, "serve.fallbacks",
              static_cast<double>(after.fallbacks - before.fallbacks), "count");
    SetMetric(&layer, "serve.writer_late_ms", Ratio(p.late_ms, snaps), "ms");
    const double untraced = m.ops_per_s;
    const double traced = p.ops_per_s;
    SetMetric(&layer, "trace.untraced_ops_per_s", untraced, "ops/s");
    SetMetric(&layer, "trace.traced_ops_per_s", traced, "ops/s");
    SetMetric(&layer, "trace.overhead_frac", Ratio(untraced, traced) - 1,
              "ratio");
    ReportSpans(tracer, options, &out);
  }
  return out;
}

}  // namespace perfbench
