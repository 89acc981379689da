// spate_cli: an interactive shell over a SPATE instance — the stand-in for
// the paper's SPATE-SQL (Apache Hue) interface.
//
// Loads a configurable synthetic trace, then reads commands from stdin:
//
//   sql <statement>        run a SPATE-SQL statement (tables CDR/NMS/CELL)
//                          through the cost-based planner and a session
//                          result cache; prefix the statement with EXPLAIN
//                          to also print the chosen plan
//   explain <statement>    shorthand for `sql EXPLAIN <statement>`: print
//                          the plan tree and predicted-vs-actual decoded
//                          bytes, then the result
//   explore <from> <to>    exploration query Q(a,b,w) with compact
//                          timestamps, e.g. `explore 20160118 20160119`
//   highlights <from> <to> only the highlight list for the window
//   stats                  storage/index statistics
//   decay <days>           run the decaying module, keeping <days> days
//   fsck                   deep cross-layer integrity check (see
//                          src/check/fsck.h for the invariant catalog)
//   corrupt <seed>         flip one replica byte (then try `fsck`)
//   repair                 namenode repair scan (re-replicate/rewrite)
//   locks                  lock-order graph + per-mutex contention stats
//                          observed so far (spate::lockdep; populated in
//                          instrumented builds — -DSPATE_LOCKDEP=ON or
//                          Debug)
//   serve-stats [n]        drive n demo requests (default 60) through a
//                          sharded QueryServer over the same trace, then
//                          print per-tenant admission counters and
//                          per-shard breaker/queue/fallback state (the
//                          serving tier, src/serve/)
//   scan-stats [n]         drive n overlapping exploration queries
//                          (default 24) through one ScanScheduler from 4
//                          concurrent reader threads, then print the
//                          scheduler's counters and the decoded-fragment
//                          cache counters (src/query/scan_scheduler.h,
//                          src/core/fragment_cache.h)
//   help / quit
//
// Non-interactive use:  echo "sql SELECT COUNT(*) FROM CDR" | spate_cli
//
// Subcommands (no trace is loaded):
//
//   spate_cli verify-blob <file>   run one stored-format blob (a corpus
//                                  file or fuzz crash artifact) through
//                                  the envelope/chunked/columnar decoders
//                                  and print each Status — the offline
//                                  reproducer for fuzz/ findings (see
//                                  DESIGN.md "Adversarial bytes")
//
//   spate_cli failpoints           list every registered error-injection
//                                  site with its passage/trip counters
//   spate_cli failpoints --trip <id>
//                                  arm <id> fail-once (kIOError), run the
//                                  walker's canonical workload, print every
//                                  surfaced Status and the post-run fsck
//                                  verdict — the interactive twin of
//                                  tests/common/failpoint_walk_test.cc (see
//                                  DESIGN.md "Error-handling contract")
//
// Flags: --days N (default 2), --cells N (default 120).

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analytics/heavy_hitters.h"
#include "analytics/histogram.h"
#include "check/fsck.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/lockdep.h"
#include "common/strings.h"
#include "compress/chunked.h"
#include "compress/codec.h"
#include "compress/columnar.h"
#include "core/spate_framework.h"
#include "query/result_cache.h"
#include "query/scan_scheduler.h"
#include "serve/server.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "telco/generator.h"
#include "telco/schema.h"

using namespace spate;  // NOLINT — example brevity

namespace {

void PrintSqlResult(const SqlResult& result) {
  for (const std::string& column : result.columns) {
    printf("%-16s", column.c_str());
  }
  printf("\n");
  size_t shown = 0;
  for (const auto& row : result.rows) {
    for (const std::string& value : row) printf("%-16s", value.c_str());
    printf("\n");
    if (++shown >= 25 && result.rows.size() > 30) {
      printf("... (%zu more rows)\n", result.rows.size() - shown);
      break;
    }
  }
  printf("(%zu row%s)\n", result.rows.size(),
         result.rows.size() == 1 ? "" : "s");
}

bool ParseWindow(std::istringstream& in, Timestamp* begin, Timestamp* end) {
  std::string from, to;
  if (!(in >> from >> to)) return false;
  *begin = ParseCompact(from);
  *end = ParseCompact(to);
  return *begin >= 0 && *end >= 0 && *begin < *end;
}

/// `serve-stats [n]`: drives a small deterministic mixed-tenant workload
/// through a lazily built 4-shard QueryServer over the same trace, then
/// prints the serving tier's two counter tables. Three tenants exercise
/// the admission paths: "interactive" runs within quota on a workable
/// deadline, "batch" runs the same load on a deadline too tight for exact
/// answers (degrades, and its repeated deadline failures can trip shard
/// breakers), and "greedy" carries a tiny token bucket (sheds).
void RunServeStats(const TraceGenerator& generator, int requests) {
  static std::unique_ptr<QueryServer> server;
  if (server == nullptr) {
    fprintf(stderr, "building the 4-shard serving tier (one-time)... ");
    ServeOptions options;
    options.num_shards = 4;
    options.default_deadline_seconds = 0.05;
    server = std::make_unique<QueryServer>(options, generator.cells());
    for (Timestamp epoch : generator.EpochStarts()) {
      if (!server->Ingest(generator.GenerateSnapshot(epoch)).ok()) {
        fprintf(stderr, "shard ingest failed\n");
        server.reset();
        return;
      }
    }
    TenantQuota tiny;
    tiny.tokens_per_second = 0.1;
    tiny.burst = 3;
    server->SetQuota("greedy", tiny);
    fprintf(stderr, "done.\n");
  }

  const TraceConfig& trace = generator.config();
  const char* tenants[] = {"interactive", "batch", "greedy"};
  for (int i = 0; i < requests; ++i) {
    ServeRequest request;
    request.tenant = tenants[i % 3];
    // "batch" gets a deadline no exact decode can meet: its answers come
    // from the highlight ladder and its shards record deadline failures.
    request.deadline_seconds = request.tenant == "batch" ? 1e-4 : 0.05;
    request.query.window_begin = trace.start + (i % 20) * 3600;
    request.query.window_end = request.query.window_begin + 3600;
    server->Query(request);
  }

  const ServerStats stats = server->Stats();
  printf("%-13s %9s %9s %6s %9s %6s %9s %6s\n", "tenant", "admitted",
         "in-flight", "ok", "degraded", "shed", "deadline", "error");
  for (const auto& [tenant, t] : stats.tenants) {
    printf("%-13s %9llu %9llu %6llu %9llu %6llu %9llu %6llu\n",
           tenant.c_str(), static_cast<unsigned long long>(t.admitted),
           static_cast<unsigned long long>(t.in_flight),
           static_cast<unsigned long long>(t.ok),
           static_cast<unsigned long long>(t.degraded),
           static_cast<unsigned long long>(t.shed),
           static_cast<unsigned long long>(t.deadline_exceeded),
           static_cast<unsigned long long>(t.errors));
  }
  printf("\n%5s %-9s %6s %8s %9s %9s %8s %9s %12s\n", "shard", "breaker",
         "trips", "shorted", "q-reject", "executed", "retries", "fallback",
         "cache h/m");
  for (size_t i = 0; i < stats.shards.size(); ++i) {
    const ShardStats& s = stats.shards[i];
    printf("%5zu %-9s %6llu %8llu %9llu %9llu %8llu %9llu %6llu/%llu\n", i,
           std::string(CircuitBreaker::StateName(s.breaker_state)).c_str(),
           static_cast<unsigned long long>(s.breaker_trips),
           static_cast<unsigned long long>(s.short_circuits),
           static_cast<unsigned long long>(s.queue_rejections),
           static_cast<unsigned long long>(s.executed),
           static_cast<unsigned long long>(s.retries),
           static_cast<unsigned long long>(s.fallbacks),
           static_cast<unsigned long long>(s.cache.hits),
           static_cast<unsigned long long>(s.cache.misses));
  }
}

/// `scan-stats [n]`: drives n overlapping 8-epoch exploration windows
/// through one ScanScheduler from 4 concurrent reader threads
/// (src/query/scan_scheduler.h), then prints the scheduler's read/detach
/// counters and the decoded-fragment cache's hit/eviction/residency
/// counters. The scheduler is built once and kept, so repeated invocations
/// show counters accumulating and the second run answering mostly from the
/// warm fragment cache.
void RunScanStats(SpateFramework* spate, const TraceGenerator& generator,
                  int queries) {
  static std::unique_ptr<ScanScheduler> scheduler;
  if (scheduler == nullptr) scheduler = std::make_unique<ScanScheduler>(spate);

  const TraceConfig& trace = generator.config();
  const int total_epochs = trace.days * (86400 / kEpochSeconds);
  const int window_epochs = 8;
  const int positions = std::max(1, total_epochs - window_epochs);
  constexpr int kThreads = 4;
  std::vector<std::thread> clients;
  std::vector<int> errors(kThreads, 0);
  clients.reserve(kThreads);
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      // Client c asks windows offset by half a window from its neighbour:
      // a 50%-overlap chain, so concurrent readers share in-flight decodes
      // and successive rounds rescan warm fragments.
      for (int i = c; i < queries; i += kThreads) {
        ExplorationQuery query;
        query.window_begin =
            trace.start +
            ((i * (window_epochs / 2)) % positions) * kEpochSeconds;
        query.window_end =
            query.window_begin + window_epochs * kEpochSeconds;
        QueryContext ctx;
        if (!scheduler->Execute(query, &ctx).ok()) {
          ++errors[static_cast<size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int e : errors) {
    if (e != 0) printf("warning: %d scan-stats queries failed\n", e);
  }

  const ScanSchedulerStats s = scheduler->stats();
  printf("readers: %llu exact reads (%llu leaves), %llu detached\n",
         static_cast<unsigned long long>(s.passes_started),
         static_cast<unsigned long long>(s.leaves_folded),
         static_cast<unsigned long long>(s.waiters_detached));
  printf("         %llu summary-only, %llu exclusive sections\n",
         static_cast<unsigned long long>(s.summary_answers),
         static_cast<unsigned long long>(s.exclusive_runs));
  printf("         %s decoded, %s saved by the fragment cache "
         "(%llu hits)\n",
         HumanBytes(s.bytes_decoded).c_str(),
         HumanBytes(s.bytes_decoded_saved).c_str(),
         static_cast<unsigned long long>(s.fragment_hits));
  if (const FragmentCache* cache = spate->fragment_cache()) {
    const FragmentCacheStats f = cache->stats();
    printf("fragment cache: %llu hits / %llu misses, %llu insertions, "
           "%llu evictions\n",
           static_cast<unsigned long long>(f.fragment_hits),
           static_cast<unsigned long long>(f.misses),
           static_cast<unsigned long long>(f.insertions),
           static_cast<unsigned long long>(f.evictions));
    printf("                %s resident in %llu fragments, "
           "%s of decode work saved\n",
           HumanBytes(f.resident_bytes).c_str(),
           static_cast<unsigned long long>(f.resident_entries),
           HumanBytes(f.bytes_decoded_saved).c_str());
  } else {
    printf("fragment cache: disabled (fragment_cache_bytes = 0)\n");
  }
}

}  // namespace

/// `spate_cli verify-blob <file>`: run one stored-format blob through the
/// exact Status paths the fuzz/ harnesses exercise — envelope decode,
/// chunked/columnar framing + decode — and print every verdict. This is
/// how a fuzz finding (a corpus file or libFuzzer crash artifact) is
/// reproduced outside the fuzzing engine: same decoders, same bounds,
/// human-readable statuses. Exits 0 when every applicable decoder returns
/// OK, 1 when any reports corruption (reporting IS the success mode for a
/// crash artifact), 2 on usage/IO errors.
int VerifyBlobCommand(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    fprintf(stderr, "verify-blob: cannot read %s\n", path);
    return 2;
  }
  const std::string blob((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  printf("verify-blob: %s (%zu bytes)\n", path, blob.size());
  bool all_ok = true;
  auto report = [&all_ok](const char* what, const Status& status) {
    printf("  %-22s %s\n", what, status.ok() ? "OK" : status.ToString().c_str());
    all_ok = all_ok && status.ok();
  };

  if (IsColumnarBlob(blob)) {
    printf("  format: columnar container (0xCD)\n");
    report("framing", VerifyColumnarFraming(blob));
    ColumnarReader reader;
    const Status open = ColumnarReader::Open(blob, &reader);
    report("directory", open);
    if (open.ok()) {
      for (const ColumnarReader::ChunkRef& chunk : reader.chunks()) {
        std::string decoded;
        report(("chunk '" + std::string(chunk.name) + "'").c_str(),
               ColumnarReader::Decode(chunk, &decoded));
      }
    }
  } else if (IsChunkedBlob(blob)) {
    printf("  format: chunked container (0xCF)\n");
    report("framing", VerifyChunkedFraming(blob));
    std::string text;
    report("decode", ChunkedDecompress(blob, nullptr, &text));
  } else {
    const Codec* codec =
        blob.empty() ? nullptr
                     : CodecRegistry::GetById(static_cast<uint8_t>(blob[0]));
    if (codec == nullptr) {
      printf("  format: unknown leading byte — not a SPATE blob\n");
      report("decode", Status::Corruption("unknown codec id / magic"));
    } else {
      printf("  format: %s envelope\n", std::string(codec->Name()).c_str());
      std::string text;
      report("decode", codec->Decompress(blob, &text));
    }
  }
  return all_ok ? 0 : 1;
}

/// `spate_cli failpoints --trip <id>`: the interactive twin of the failpoint
/// walker (tests/common/failpoint_walk_test.cc). Arms `id` fail-once with
/// kIOError, drives the same canonical ingest -> query -> recover -> serve
/// workload, prints every Status that surfaces at an API boundary, then
/// disarms, repairs, and reports the fsck/recover verdict. Exits 0 when the
/// site tripped and the store came back clean, 1 otherwise, 2 on usage
/// errors or an uninstrumented binary.
int TripFailpointCommand(const char* id) {
  {
    const auto info = failpoint::Get(id);
    if (!info.ok()) {
      fprintf(stderr, "failpoints: %s (run `spate_cli failpoints` for the "
              "registered ids)\n", info.status().ToString().c_str());
      return 2;
    }
  }
  if (!failpoint::Enabled()) {
    fprintf(stderr,
            "failpoints: this binary was built without the site macros "
            "(Release with SPATE_FAILPOINTS=OFF), so '%s' can never trip. "
            "Rebuild with -DSPATE_FAILPOINTS=ON or CMAKE_BUILD_TYPE=Debug.\n",
            id);
    return 2;
  }

  // Same trace and stores as the walker: a row store with chunking forced, a
  // columnar store, and a 2-shard serving tier — together they reach all
  // registered sites.
  TraceConfig config;
  config.days = 3;
  config.num_cells = 24;
  config.num_antennas = 8;
  config.num_users = 60;
  config.cdr_base_rate = 6;
  config.nms_per_cell = 0.5;
  const TraceGenerator gen(config);
  const std::vector<Timestamp> epochs = gen.EpochStarts();

  SpateOptions row_options;
  row_options.parallelism.ingest_chunk_bytes = 2048;
  auto row_store = std::make_unique<SpateFramework>(row_options, gen.cells());
  SpateOptions col_options;
  col_options.leaf_layout = LeafLayout::kColumnar;
  auto col_store = std::make_unique<SpateFramework>(col_options, gen.cells());
  ServeOptions serve_options;
  serve_options.num_shards = 2;
  serve_options.quota.tokens_per_second = 0;
  serve_options.quota.max_in_flight = 0;
  serve_options.default_deadline_seconds = 30.0;
  QueryServer server(serve_options, gen.cells());

  failpoint::ResetCounters();
  failpoint::Trigger trigger;  // fail-once, kIOError
  if (!failpoint::Arm(id, trigger).ok()) return 2;
  printf("failpoints: armed %s fail-once (IOError); running the canonical "
         "workload\n", id);

  int surfaced = 0;
  auto report = [&surfaced](const char* stage, const Status& status) {
    if (status.ok()) return;
    ++surfaced;
    printf("  surfaced at %-8s %s\n", stage, status.ToString().c_str());
  };

  for (size_t i = 0; i < epochs.size(); ++i) {
    if (static_cast<int>(i) % kEpochsPerDay >= 3) continue;
    report("ingest", row_store->Ingest(gen.GenerateSnapshot(epochs[i])));
  }
  for (size_t i = 0; i < 3; ++i) {
    report("ingest", col_store->Ingest(gen.GenerateSnapshot(epochs[i])));
  }

  ExplorationQuery query;
  query.window_begin = config.start + 2 * 86400;
  query.window_end = config.start + 2 * 86400 + 3 * kEpochSeconds;
  report("query", row_store->Execute(query).status());
  ExplorationQuery day0 = query;
  day0.window_begin = config.start;
  day0.window_end = config.start + 3 * kEpochSeconds;
  report("query", col_store->Execute(day0).status());
  size_t rows = 0;
  report("scan", row_store->ScanWindow(config.start,
                                       config.start + 3 * kEpochSeconds,
                                       [&](const Snapshot& s) {
                                         rows += s.size();
                                       }));

  const std::string sql =
      "SELECT cell_id, SUM(duration) FROM CDR WHERE ts >= '" +
      FormatCompact(config.start) + "' AND ts < '" +
      FormatCompact(config.start + 3 * kEpochSeconds) + "' GROUP BY cell_id";
  report("sql", ExecutePlannedSql(*row_store, sql).status());

  auto dfs = row_store->shared_dfs();
  for (uint64_t seed : {7u, 11u}) {
    report("corrupt", dfs->CorruptRandomReplica(seed).status());
  }
  const RepairReport mid_repair = dfs->RepairScan();
  if (mid_repair.unavailable_blocks > 0) {
    printf("  repair scan left %llu block(s) unavailable (re-replication "
           "absorbed the failure)\n",
           static_cast<unsigned long long>(mid_repair.unavailable_blocks));
  }
  report("recover", SpateFramework::Recover(row_options, dfs).status());

  DecayPolicy policy;
  policy.full_resolution_seconds = 86400;
  (void)row_store->RunDecay(policy, config.start + 3 * 86400);

  for (size_t i = 0; i < 2; ++i) {
    report("serve", server.Ingest(gen.GenerateSnapshot(epochs[i])));
  }
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.query.window_begin = epochs[0];
    request.query.window_end = epochs[0] + 2 * kEpochSeconds;
    const ServeResponse response = server.Query(request);
    report("serve", response.status);
    if (response.outcome == ServeOutcome::kDegraded ||
        response.outcome == ServeOutcome::kShed ||
        response.shards_fallback > 0) {
      printf("  serving tier degraded (outcome absorbed the failure)\n");
    }
  }

  const auto info = failpoint::Get(id);
  const uint64_t passages = info.ok() ? info->passages : 0;
  const uint64_t trips = info.ok() ? info->trips : 0;
  printf("site %s: %llu passage(s), %llu trip(s), %d status(es) surfaced\n",
         id, static_cast<unsigned long long>(passages),
         static_cast<unsigned long long>(trips), surfaced);

  failpoint::DisarmAll();
  (void)dfs->RepairScan();
  const check::FsckReport row_fsck = row_store->Fsck();
  const check::FsckReport col_fsck = col_store->Fsck();
  const auto recovered = SpateFramework::Recover(row_options, dfs);
  printf("post-run: fsck row=%s columnar=%s recover=%s\n",
         row_fsck.clean() ? "clean" : "DIRTY",
         col_fsck.clean() ? "clean" : "DIRTY",
         recovered.ok() ? "OK" : recovered.status().ToString().c_str());
  if (!row_fsck.clean()) printf("%s", row_fsck.ToString().c_str());
  if (!col_fsck.clean()) printf("%s", col_fsck.ToString().c_str());

  const bool verdict =
      trips >= 1 && row_fsck.clean() && col_fsck.clean() && recovered.ok();
  printf("%s\n", verdict ? "verdict: tripped, propagated, store consistent"
                         : "verdict: FAILED (see above)");
  return verdict ? 0 : 1;
}

/// `spate_cli failpoints`: list the registry. Works in every build — the
/// table is always compiled in — but the counters only move (and --trip only
/// injects) when the site macros are instrumented.
int FailpointsCommand(int argc, char** argv) {
  if (argc == 3 || (argc == 4 && strcmp(argv[2], "--trip") != 0)) {
    fprintf(stderr, "usage: spate_cli failpoints [--trip <id>]\n");
    return 2;
  }
  if (argc == 4) return TripFailpointCommand(argv[3]);

  const auto all = failpoint::AllFailpoints();
  printf("%zu registered failpoints (%s)\n", all.size(),
         failpoint::Enabled()
             ? "instrumented build: sites can trip"
             : "uninstrumented build: sites compiled out, counters stay 0");
  for (const auto& info : all) {
    printf("  %-28s %8llu passages %6llu trips%s\n",
           std::string(info.id).c_str(),
           static_cast<unsigned long long>(info.passages),
           static_cast<unsigned long long>(info.trips),
           info.armed ? "  [armed]" : "");
    printf("    %s\n", std::string(info.description).c_str());
  }
  printf("docs/FAILPOINTS.md is the reviewed manifest; tools/failscan.py "
         "--check keeps it honest.\n");
  return 0;
}

int main(int argc, char** argv) {
  if (argc >= 2 && strcmp(argv[1], "verify-blob") == 0) {
    if (argc != 3) {
      fprintf(stderr, "usage: spate_cli verify-blob <file>\n");
      return 2;
    }
    return VerifyBlobCommand(argv[2]);
  }
  if (argc >= 2 && strcmp(argv[1], "failpoints") == 0) {
    return FailpointsCommand(argc, argv);
  }

  TraceConfig trace;
  trace.days = 2;
  trace.num_cells = 120;
  trace.num_antennas = 40;
  for (int i = 1; i + 1 < argc; i += 2) {
    int64_t v = 0;
    if (strcmp(argv[i], "--days") == 0 && ParseInt64(argv[i + 1], &v)) {
      trace.days = static_cast<int>(v);
    } else if (strcmp(argv[i], "--cells") == 0 && ParseInt64(argv[i + 1], &v)) {
      trace.num_cells = static_cast<int>(v);
    }
  }

  TraceGenerator generator(trace);
  SpateOptions options;
  // A modest decoded-fragment cache so `scan-stats` (and repeated scans in
  // general) demonstrate concurrent readers sharing warm fragments.
  options.fragment_cache_bytes = 64u << 20;
  SpateFramework spate(options, generator.cells());
  fprintf(stderr, "Loading %d day(s) of synthetic telco traffic... ",
          trace.days);
  for (Timestamp epoch : generator.EpochStarts()) {
    if (!spate.Ingest(generator.GenerateSnapshot(epoch)).ok()) return 1;
  }
  fprintf(stderr, "done. Storage: %s. Type 'help'.\n",
          HumanBytes(spate.StorageBytes()).c_str());

  // Session caches (the UI cache, paper Section VI-A): `explore` answers
  // repeated or narrower windows from exact results it already holds, and
  // planned SQL statements probe theirs (`CacheServe`) while completed
  // scans feed it, so a repeated statement decodes nothing. `decay` hands
  // both the new decay horizon, which drops the entries it invalidated.
  ResultCache explore_cache;
  ResultCache sql_cache;
  std::string line;
  while (true) {
    fprintf(stderr, "spate> ");
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;

    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      printf("commands:\n"
             "  sql <statement>         e.g. sql SELECT COUNT(*) FROM CDR\n"
             "  explain <statement>     plan tree + predicted/actual bytes\n"
             "  explore <from> <to>     e.g. explore 201601181200 20160119\n"
             "  highlights <from> <to>\n"
             "  top callers|cells|devices <from> <to> [k]\n"
             "  hist rssi|throughput|duration <from> <to>\n"
             "  stats | decay <days> | quit\n"
             "  fsck | corrupt <seed> | repair | locks\n"
             "  serve-stats [n]         serving-tier tenant/shard counters\n"
             "  scan-stats [n]          concurrent-reader + fragment-cache "
             "counters\n");
      continue;
    }
    if (command == "top") {
      std::string what;
      ExplorationQuery window;
      if (!(in >> what) ||
          !ParseWindow(in, &window.window_begin, &window.window_end)) {
        printf("usage: top callers|cells|devices <from> <to> [k]\n");
        continue;
      }
      int64_t k = 10;
      std::string k_text;
      if (in >> k_text) ParseInt64(k_text, &k);
      HeavyHitters hh(256);
      Status scan = spate.ScanWindow(
          window.window_begin, window.window_end, [&](const Snapshot& s) {
            for (const Record& row : s.cdr) {
              if (what == "callers") {
                hh.Add(FieldAsString(row, kCdrCaller));
              } else if (what == "devices") {
                hh.Add(FieldAsString(row, kCdrImei));
              } else {
                hh.Add(FieldAsString(row, kCdrCellId));
              }
            }
          });
      if (!scan.ok()) {
        printf("error: %s\n", scan.ToString().c_str());
        continue;
      }
      for (const auto& entry : hh.Top(static_cast<size_t>(k))) {
        printf("  %-20s %8llu calls (+/- %llu)\n", entry.key.c_str(),
               static_cast<unsigned long long>(entry.count),
               static_cast<unsigned long long>(entry.error));
      }
      continue;
    }
    if (command == "hist") {
      std::string what;
      ExplorationQuery window;
      if (!(in >> what) ||
          !ParseWindow(in, &window.window_begin, &window.window_end)) {
        printf("usage: hist rssi|throughput|duration <from> <to>\n");
        continue;
      }
      Histogram hist(what == "rssi" ? -110 : 0,
                     what == "rssi" ? -60 : (what == "throughput" ? 50 : 600),
                     20);
      Status scan = spate.ScanWindow(
          window.window_begin, window.window_end, [&](const Snapshot& s) {
            if (what == "duration") {
              for (const Record& row : s.cdr) {
                hist.Add(static_cast<double>(FieldAsInt(row, kCdrDuration)));
              }
            } else {
              const int col = what == "rssi" ? kNmsRssi : kNmsThroughput;
              for (const Record& row : s.nms) {
                hist.Add(FieldAsDouble(row, col));
              }
            }
          });
      if (!scan.ok()) {
        printf("error: %s\n", scan.ToString().c_str());
        continue;
      }
      printf("%s", hist.ToAscii().c_str());
      printf("p50=%.1f p95=%.1f mean=%.1f (n=%llu, %llu outside range)\n",
             hist.Quantile(0.5), hist.Quantile(0.95), hist.ApproxMean(),
             static_cast<unsigned long long>(hist.total()),
             static_cast<unsigned long long>(hist.underflow() +
                                             hist.overflow()));
      continue;
    }
    if (command == "sql" || command == "explain") {
      std::string statement_text;
      std::getline(in, statement_text);
      auto parsed = ParseSql(statement_text);
      if (!parsed.ok()) {
        printf("error: %s\n", parsed.status().ToString().c_str());
        continue;
      }
      if (command == "explain" || parsed->explain) {
        auto explained = ExplainSelect(spate, *parsed, &sql_cache);
        if (!explained.ok()) {
          printf("error: %s\n", explained.status().ToString().c_str());
          continue;
        }
        printf("%s\n", explained->text.c_str());
        PrintSqlResult(explained->result);
        continue;
      }
      auto plan = PlanSelect(spate, *parsed, &sql_cache);
      if (!plan.ok()) {
        printf("error: %s\n", plan.status().ToString().c_str());
        continue;
      }
      auto result = ExecutePlan(spate, *plan, &sql_cache);
      if (!result.ok()) {
        printf("error: %s\n", result.status().ToString().c_str());
      } else {
        PrintSqlResult(*result);
      }
      continue;
    }
    if (command == "explore" || command == "highlights") {
      ExplorationQuery query;
      if (!ParseWindow(in, &query.window_begin, &query.window_end)) {
        printf("usage: %s <from> <to>  (compact timestamps)\n",
               command.c_str());
        continue;
      }
      std::optional<QueryResult> cached =
          explore_cache.Lookup(query, spate.cells());
      Result<QueryResult> result =
          cached.has_value() ? Result<QueryResult>(*std::move(cached))
                             : spate.Execute(query);
      if (!cached.has_value() && result.ok() && result->exact) {
        explore_cache.Insert(query, *result,
                             spate.last_scan_stats().bytes_decoded);
      }
      if (!result.ok()) {
        printf("error: %s\n", result.status().ToString().c_str());
        continue;
      }
      if (command == "explore") {
        printf("exact=%s served_from=%s cdr_rows=%zu nms_rows=%zu "
               "(cache: %llu hits / %llu misses)\n",
               result->exact ? "yes" : "no",
               std::string(IndexLevelName(result->served_from)).c_str(),
               result->cdr_rows.size(), result->nms_rows.size(),
               static_cast<unsigned long long>(explore_cache.hits()),
               static_cast<unsigned long long>(explore_cache.misses()));
        printf("calls=%llu nms_reports=%llu drop_calls=%.0f\n",
               static_cast<unsigned long long>(result->summary.cdr_rows()),
               static_cast<unsigned long long>(result->summary.nms_rows()),
               result->summary.TotalMetric(Metric::kDropCalls).sum);
      }
      for (const Highlight& h : result->highlights) {
        if (h.cell_id.empty()) {
          printf("  highlight [%s=%s] freq=%.3f%%\n", h.attribute.c_str(),
                 h.value.c_str(), 100 * h.frequency);
        } else {
          printf("  highlight [%s] cell=%s peak=%s z=%.1f\n",
                 h.attribute.c_str(), h.cell_id.c_str(), h.value.c_str(),
                 h.frequency);
        }
      }
      continue;
    }
    if (command == "stats") {
      printf("storage: %s logical (%s physical, replication %d)\n",
             HumanBytes(spate.dfs().TotalLogicalBytes()).c_str(),
             HumanBytes(spate.dfs().TotalPhysicalBytes()).c_str(),
             spate.dfs().options().replication);
      printf("index: %zu leaves (%zu decayed), newest epoch %s\n",
             spate.index().num_leaves(), spate.index().num_decayed(),
             FormatIso(spate.index().newest_epoch()).c_str());
      const ResultCache::CacheStats cache_stats = explore_cache.stats();
      printf("cache: %llu hits / %llu misses, %s of decode work saved\n",
             static_cast<unsigned long long>(cache_stats.hits),
             static_cast<unsigned long long>(cache_stats.misses),
             HumanBytes(cache_stats.bytes_decoded_saved).c_str());
      printf("last scan: %s decoded, %zu leaves skipped spatially\n",
             HumanBytes(spate.last_scan_stats().bytes_decoded).c_str(),
             spate.last_scan_stats().leaves_skipped_spatial);
      continue;
    }
    if (command == "decay") {
      int64_t days = 0;
      std::string days_text;
      if (!(in >> days_text) || !ParseInt64(days_text, &days) || days < 0) {
        printf("usage: decay <days-to-keep>\n");
        continue;
      }
      DecayPolicy policy;
      policy.full_resolution_seconds = days * 86400;
      const Timestamp now = spate.index().newest_epoch() + kEpochSeconds;
      const size_t evicted = spate.RunDecay(policy, now);
      explore_cache.SetDecayedUntil(spate.index().decayed_until());
      sql_cache.SetDecayedUntil(spate.index().decayed_until());
      printf("evicted %zu leaves; storage now %s\n", evicted,
             HumanBytes(spate.StorageBytes()).c_str());
      continue;
    }
    if (command == "fsck") {
      const check::FsckReport report = spate.Fsck();
      printf("%s", report.ToString().c_str());
      continue;
    }
    if (command == "corrupt") {
      int64_t seed = 0;
      std::string seed_text;
      if (!(in >> seed_text) || !ParseInt64(seed_text, &seed)) {
        printf("usage: corrupt <seed>\n");
        continue;
      }
      auto event = spate.dfs().CorruptRandomReplica(
          static_cast<uint64_t>(seed));
      if (!event.ok()) {
        printf("error: %s\n", event.status().ToString().c_str());
        continue;
      }
      printf("flipped byte %llu of a replica of block %llu on datanode %d "
             "(run 'fsck' to find it, 'repair' to heal it)\n",
             static_cast<unsigned long long>(event->byte_offset),
             static_cast<unsigned long long>(event->block_id),
             event->datanode);
      continue;
    }
    if (command == "locks") {
      printf("%s", lockdep::Dump().c_str());
      continue;
    }
    if (command == "serve-stats") {
      int64_t requests = 60;
      std::string count_text;
      if (in >> count_text && !ParseInt64(count_text, &requests)) {
        printf("usage: serve-stats [requests]\n");
        continue;
      }
      RunServeStats(generator, static_cast<int>(requests));
      continue;
    }
    if (command == "scan-stats") {
      int64_t queries = 24;
      std::string count_text;
      if (in >> count_text && !ParseInt64(count_text, &queries)) {
        printf("usage: scan-stats [queries]\n");
        continue;
      }
      RunScanStats(&spate, generator, static_cast<int>(queries));
      continue;
    }
    if (command == "repair") {
      const RepairReport report = spate.dfs().RepairScan();
      printf("scanned %llu blocks: repaired %llu replicas, re-replicated "
             "%llu, %llu unrecoverable\n",
             static_cast<unsigned long long>(report.blocks_scanned),
             static_cast<unsigned long long>(report.replicas_repaired),
             static_cast<unsigned long long>(report.replicas_rereplicated),
             static_cast<unsigned long long>(report.unrecoverable_blocks));
      continue;
    }
    printf("unknown command '%s' (try 'help')\n", command.c_str());
  }
  return 0;
}
