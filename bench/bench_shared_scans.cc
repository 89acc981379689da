// Concurrent readers + fragment cache (src/query/scan_scheduler.h,
// src/core/fragment_cache.h): closed-loop sweep of K concurrent clients
// issuing 50%-overlapping windows against one store, serial-private
// execution vs concurrent readers under the scheduler's read lease, which
// share decodes through the fragment cache.
//
// What the sweep must show (both gates are enforced by the exit code):
//   - total bytes_decoded drops >= 3x at K >= 8 versus the private
//     baseline: the cache's single-flight claims make concurrent readers
//     of one leaf decode each fragment once, and the cache absorbs the
//     round-over-round rescans;
//   - every client's every answer is bit-identical to the private serial
//     execution at every concurrency level — the bench exits non-zero on
//     the first mismatch, so a regression cannot publish a pretty JSON.
// Wall-clock is reported, not gated: each reader parses every row leaf it
// reads, so decode savings do not translate one-to-one into time.
//
// Capture for the perf trajectory (see EXPERIMENTS.md "Bench catalog"):
//   ./bench/bench_shared_scans | grep '^BENCH_JSON' | cut -d' ' -f2-
//   (redirect into BENCH_shared_scans.json)
//
// Flags: --clients N (cap of the K sweep, default 16), --rounds N (queries
// per client, default 3), --days N, --cells N. The CI smoke run uses
// --clients 8 --rounds 2 --cells 60.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "common/strings.h"
#include "core/spate_framework.h"
#include "query/scan_scheduler.h"
#include "telco/generator.h"

namespace spate {
namespace bench {
namespace {

/// Window width in epochs. Adjacent clients' windows are offset by half of
/// this, i.e. 50% overlap with each neighbour.
constexpr int kWindowEpochs = 8;

/// The K*R queries of one load point: client c, round r asks an
/// 8-epoch window starting at (c/2 + r) * kWindowEpochs/2 — a sliding
/// 50%-overlap chain across clients, shifted each round so rounds rescan
/// mostly-warm leaves without being byte-identical requests.
std::vector<ExplorationQuery> BuildWorkload(const TraceConfig& config,
                                            int clients, int rounds) {
  const int total_epochs = config.days * (86400 / kEpochSeconds);
  const int positions = std::max(1, total_epochs - kWindowEpochs);
  std::vector<ExplorationQuery> queries;
  queries.reserve(static_cast<size_t>(clients) * rounds);
  for (int c = 0; c < clients; ++c) {
    for (int r = 0; r < rounds; ++r) {
      const int first = ((c + 2 * r) * (kWindowEpochs / 2)) % positions;
      ExplorationQuery query;
      query.window_begin = config.start + first * kEpochSeconds;
      query.window_end = query.window_begin + kWindowEpochs * kEpochSeconds;
      queries.push_back(query);
    }
  }
  return queries;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.exact == b.exact && a.degraded == b.degraded &&
         a.cdr_rows == b.cdr_rows && a.nms_rows == b.nms_rows &&
         a.summary == b.summary && a.skipped_epochs == b.skipped_epochs;
}

struct PointResult {
  int clients = 0;
  uint64_t serial_bytes = 0;
  uint64_t shared_bytes = 0;
  double serial_seconds = 0;
  double shared_seconds = 0;
  ScanSchedulerStats stats;
  bool identical = true;
};

}  // namespace
}  // namespace bench
}  // namespace spate

int main(int argc, char** argv) {
  using namespace spate;
  using namespace spate::bench;

  TraceConfig config;
  config.days = 1;
  config.num_cells = 90;
  config.num_antennas = 30;
  config.num_users = 400;
  int64_t max_clients = 16;
  int64_t rounds = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    int64_t v = 0;
    if (strcmp(argv[i], "--clients") == 0 && ParseInt64(argv[i + 1], &v)) {
      max_clients = v;
    } else if (strcmp(argv[i], "--rounds") == 0 &&
               ParseInt64(argv[i + 1], &v)) {
      rounds = v;
    } else if (strcmp(argv[i], "--days") == 0 && ParseInt64(argv[i + 1], &v)) {
      config.days = static_cast<int>(v);
    } else if (strcmp(argv[i], "--cells") == 0 && ParseInt64(argv[i + 1], &v)) {
      config.num_cells = static_cast<int>(v);
      config.num_antennas = static_cast<int>(v) / 3;
    }
  }

  const TraceGenerator generator(config);
  // The private-baseline store: no fragment cache, queried serially. Each
  // load point recovers a *fresh* shared store (fresh scheduler, fresh
  // cache) from the same DFS, so points never warm each other up.
  SpateOptions base_options;
  SpateFramework base(base_options, generator.cells());
  for (Timestamp epoch : generator.EpochStarts()) {
    if (!base.Ingest(generator.GenerateSnapshot(epoch)).ok()) {
      fprintf(stderr, "ingest failed at %s\n", FormatCompact(epoch).c_str());
      return 1;
    }
  }
  SpateOptions shared_options;
  shared_options.fragment_cache_bytes = 256u << 20;

  printf("# Concurrent readers: K clients x %lld rounds of %d-epoch "
         "windows, 50%% overlap\n",
         static_cast<long long>(rounds), kWindowEpochs);
  printf("# serial-private baseline (no cache, one query at a time) vs "
         "concurrent readers + fragment cache\n");
  printf("# Expected shape: bytes_reduction_x >= 3 from K=8 (acceptance "
         "bar); identical=1 everywhere.\n\n");

  std::vector<int> sweep;
  for (int k : {1, 2, 4, 8, 16, 32}) {
    if (k < max_clients) sweep.push_back(k);
  }
  sweep.push_back(static_cast<int>(max_clients));

  std::vector<PointResult> points;
  bool all_identical = true;
  bool bar_met = true;
  for (int clients : sweep) {
    const std::vector<ExplorationQuery> queries =
        BuildWorkload(config, clients, static_cast<int>(rounds));

    PointResult point;
    point.clients = clients;

    // Serial-private baseline: one thread, one framework call per query,
    // every leaf decoded afresh.
    std::vector<QueryResult> expected;
    expected.reserve(queries.size());
    {
      Stopwatch watch;
      for (const ExplorationQuery& query : queries) {
        auto result = base.Execute(query);
        if (!result.ok()) {
          fprintf(stderr, "baseline query failed: %s\n",
                  result.status().ToString().c_str());
          return 1;
        }
        point.serial_bytes += base.last_scan_stats().bytes_decoded;
        expected.push_back(*std::move(result));
      }
      point.serial_seconds = watch.ElapsedSeconds();
    }

    // Shared run: a fresh store over the same bytes, K closed-loop client
    // threads through one scheduler.
    auto recovered = SpateFramework::Recover(shared_options, base.shared_dfs());
    if (!recovered.ok()) {
      fprintf(stderr, "recover failed: %s\n",
              recovered.status().ToString().c_str());
      return 1;
    }
    ScanScheduler scheduler(recovered->get());
    std::vector<QueryResult> actual(queries.size());
    std::vector<int> failed(static_cast<size_t>(clients), 0);
    {
      Stopwatch watch;
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int r = 0; r < rounds; ++r) {
            const size_t index =
                static_cast<size_t>(c) * static_cast<size_t>(rounds) + r;
            QueryContext ctx;
            auto result = scheduler.Execute(queries[index], &ctx);
            if (!result.ok()) {
              failed[static_cast<size_t>(c)] = 1;
              return;
            }
            actual[index] = *std::move(result);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      point.shared_seconds = watch.ElapsedSeconds();
    }
    for (int f : failed) {
      if (f != 0) {
        fprintf(stderr, "shared query failed at K=%d\n", clients);
        return 1;
      }
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!SameResult(expected[i], actual[i])) {
        point.identical = false;
        all_identical = false;
        fprintf(stderr,
                "MISMATCH at K=%d query %zu: shared result differs from "
                "private serial execution\n",
                clients, i);
      }
    }
    point.stats = scheduler.stats();
    point.shared_bytes = point.stats.bytes_decoded;
    if (clients >= 8 && point.shared_bytes * 3 > point.serial_bytes) {
      bar_met = false;
    }
    points.push_back(point);
  }

  printf("%8s %14s %14s %8s %9s %9s %8s %7s %9s %10s %5s\n", "clients",
         "serial_bytes", "shared_bytes", "red_x", "serial_s", "shared_s",
         "speedup", "reads", "frag_hit", "saved", "ident");
  for (const PointResult& p : points) {
    const double reduction =
        p.shared_bytes > 0 ? static_cast<double>(p.serial_bytes) /
                                 static_cast<double>(p.shared_bytes)
                           : 0.0;
    const double speedup =
        p.shared_seconds > 0 ? p.serial_seconds / p.shared_seconds : 0.0;
    printf("%8d %14llu %14llu %8.2f %9.3f %9.3f %8.2f %7llu %9llu "
           "%10llu %5d\n",
           p.clients, static_cast<unsigned long long>(p.serial_bytes),
           static_cast<unsigned long long>(p.shared_bytes), reduction,
           p.serial_seconds, p.shared_seconds, speedup,
           static_cast<unsigned long long>(p.stats.passes_started),
           static_cast<unsigned long long>(p.stats.fragment_hits),
           static_cast<unsigned long long>(p.stats.bytes_decoded_saved),
           p.identical ? 1 : 0);
  }

  printf("\nBENCH_JSON {\"bench\":\"shared_scans\",\"rounds\":%lld,"
         "\"window_epochs\":%d,\"rows\":[",
         static_cast<long long>(rounds), kWindowEpochs);
  for (size_t i = 0; i < points.size(); ++i) {
    const PointResult& p = points[i];
    const double reduction =
        p.shared_bytes > 0 ? static_cast<double>(p.serial_bytes) /
                                 static_cast<double>(p.shared_bytes)
                           : 0.0;
    const double speedup =
        p.shared_seconds > 0 ? p.serial_seconds / p.shared_seconds : 0.0;
    printf("%s{\"clients\":%d,\"serial_bytes_decoded\":%llu,"
           "\"shared_bytes_decoded\":%llu,\"bytes_reduction_x\":%.2f,"
           "\"serial_seconds\":%.4f,\"shared_seconds\":%.4f,"
           "\"speedup_x\":%.2f,\"reads\":%llu,"
           "\"fragment_hits\":%llu,\"bytes_decoded_saved\":%llu,"
           "\"identical\":%s}",
           i == 0 ? "" : ",", p.clients,
           static_cast<unsigned long long>(p.serial_bytes),
           static_cast<unsigned long long>(p.shared_bytes), reduction,
           p.serial_seconds, p.shared_seconds, speedup,
           static_cast<unsigned long long>(p.stats.passes_started),
           static_cast<unsigned long long>(p.stats.fragment_hits),
           static_cast<unsigned long long>(p.stats.bytes_decoded_saved),
           p.identical ? "true" : "false");
  }
  printf("]}\n");

  if (!all_identical) {
    fprintf(stderr, "\nFAIL: shared results diverged from private serial "
                    "execution\n");
    return 1;
  }
  if (!bar_met) {
    fprintf(stderr, "\nFAIL: bytes_decoded reduction below 3x at K >= 8\n");
    return 1;
  }
  return 0;
}
