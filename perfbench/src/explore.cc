// Workload `explore`: one closed-loop analyst over a resident columnar store
// of three days (the oldest decayed), running a seeded mix of Q(a,b,w)
// exploration queries, planned SQL and the T1-T8 tasks. The fragment cache
// holds about a quarter of the decoded working set. No scheduler, result
// cache or serving tier is involved.

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "analytics/features.h"
#include "common.h"
#include "common/random.h"
#include "query/tasks.h"
#include "sql/planner.h"
#include "telco/schema.h"

namespace perfbench {
namespace {

using namespace spate;

constexpr int kStoreDays = 3;
/// The op recipe the timed phase cycles through: this many Q(a,b,w), SQL
/// and task ops, with the same shapes for every seed.
constexpr size_t kQueries = 130;
constexpr size_t kSqls = 104;
constexpr size_t kTasks = 80;
constexpr int kSetupRepeats = 3;
/// Q(a,b,w) ops whose leaf path the traced run replays.
constexpr uint64_t kReplayOps = 24;

enum class OpKind { kQuery, kSql, kTask };

struct Op {
  OpKind kind = OpKind::kQuery;
  ExplorationQuery query;  // kQuery
  std::string sql;         // kSql
  int task = 0;            // kTask: 1..8
  Timestamp begin = 0;     // kTask window
  Timestamp end = 0;
  std::string label;
};

/// Window of `epochs` epochs in the day range [first, first + days): it
/// starts at time-of-day slot `slot` of a seeded day, moved earlier when it
/// would run past the range.
std::pair<Timestamp, Timestamp> PlaceWindow(Rng& rng, Timestamp first,
                                            int days, int64_t slot,
                                            int64_t epochs) {
  const int64_t day = static_cast<int64_t>(rng.Uniform(days));
  const int64_t start =
      std::min(day * kEpochsPerDay + slot, days * kEpochsPerDay - epochs);
  return {first + start * kEpochSeconds,
          first + (start + epochs) * kEpochSeconds};
}

std::string SqlWindow(Timestamp begin, Timestamp end) {
  return "ts >= '" + FormatCompact(begin) + "' AND ts < '" +
         FormatCompact(end) + "'";
}

/// How many ops of each kind an op list holds, and the day ranges their
/// windows fall in.
struct Recipe {
  size_t queries = 0;
  size_t sqls = 0;
  size_t tasks = 0;
  /// Start of the decayed day every tenth query reads (0 = none).
  Timestamp decayed_day = 0;
  /// The fully resolved days every other window lies in.
  Timestamp resident = 0;
  int resident_days = 1;
  /// Longest window, in epochs (shorter caps shrink the costlier shapes).
  int64_t max_epochs = kEpochsPerDay;
};

/// The seeded op list. Its shapes — kinds, attribute counts, boxes, window
/// lengths and times of day — follow from `recipe` alone, so every seed
/// runs the same mix; the seed picks the days, the cells and the order
/// (and the trace itself).
std::vector<Op> GenerateOps(uint64_t seed, const Recipe& recipe,
                            const CellDirectory& cells) {
  static const char* const kOneAttr[] = {"duration", "throughput", "upflux",
                                         "rssi"};
  static const std::vector<std::string> kFiveAttrs[] = {
      {"caller_id", "duration", "upflux", "drop_calls", "rssi"},
      {"cell_id", "call_type", "downflux", "throughput", "call_attempts"},
  };
  static const int64_t kTaskEpochs[] = {1, 2, 4};
  Rng rng(seed * 0x2545f4914f6cdd1dull + 0xe3);
  const Timestamp resident = recipe.resident;
  const int resident_days = recipe.resident_days;
  auto slot = [](size_t k) {
    return static_cast<int64_t>((k * 17) % kEpochsPerDay);
  };
  auto random_cell = [&]() -> const CellInfo& {
    return cells.cells()[rng.Uniform(cells.size())];
  };
  std::vector<Op> ops;

  // Queries, in groups of rising cost, sized so that the median lands
  // inside the one-leaf full-width group and p90 inside the six-hour one:
  //   decayed (10%, summary answers) | narrow, 1-4 epochs | all attributes,
  //   1 epoch (20%) | all attributes 2-4 epochs, or narrow 12-24 h (20%) |
  //   all attributes, 6 h, with a few 12-24 h windows on top (20%).
  const size_t n = recipe.queries;
  const size_t n_decayed = recipe.decayed_day != 0 ? n / 10 : 0;
  const size_t n_group = n / 5;
  const size_t n_narrow = n - n_decayed - 3 * n_group;
  for (size_t k = 0; k < n; ++k) {
    Op op;
    op.kind = OpKind::kQuery;
    ExplorationQuery& q = op.query;
    size_t attrs = 2;  // 0: one attribute, 1: five, 2: all
    size_t box = 0;    // 0: none, 1: a quadrant, 2: one cell
    int64_t epochs = 1;
    bool decayed = false;
    size_t j = k;
    if (j < n_decayed) {
      decayed = true;
      attrs = j % 3;
      box = (j / 3) % 3;
      epochs = std::array<int64_t, 4>{1, 4, 12, 48}[j % 4];
    } else if ((j -= n_decayed) < n_narrow) {
      attrs = j % 2;
      box = (j / 2) % 3;
      epochs = std::array<int64_t, 3>{1, 2, 4}[(j / 6) % 3];
    } else if ((j -= n_narrow) < n_group) {
      box = j % 2;
    } else if ((j -= n_group) < n_group) {
      if (j < n_group * 3 / 5) {
        box = (j / 2) % 3;
        epochs = 2 + 2 * static_cast<int64_t>(j % 2);
      } else {
        attrs = j % 2;
        epochs = 24 + 24 * static_cast<int64_t>(j % 2);
      }
    } else {
      j -= n_group;
      box = j % 2;
      epochs = j + 6 < n_group ? 12 : 24 + 24 * static_cast<int64_t>(j % 2);
    }
    const size_t variant = (k / 3) % 4;
    if (attrs == 0) {
      q.attributes = {kOneAttr[variant]};
    } else if (attrs == 1) {
      q.attributes = kFiveAttrs[variant % 2];
    }
    if (box == 1) {
      q.has_box = true;
      q.box = Quadrant(cells, static_cast<int>(variant));
    } else if (box == 2) {
      const CellInfo& cell = random_cell();
      q.has_box = true;
      q.box = BoundingBox{cell.x, cell.y, cell.x, cell.y};
    }
    epochs = std::min(epochs, recipe.max_epochs);
    std::tie(q.window_begin, q.window_end) =
        decayed ? PlaceWindow(rng, recipe.decayed_day, 1, slot(k), epochs)
                : PlaceWindow(rng, resident, resident_days, slot(k), epochs);
    op.label = "Q attrs=" + std::to_string(q.attributes.size()) +
               " box=" + std::to_string(box) + " w=" +
               FormatCompact(q.window_begin) + "+" + std::to_string(epochs);
    ops.push_back(std::move(op));
  }

  // SQL: epoch-aligned aggregates (20%, summary plans), narrow + cell_id=
  // (20%), narrow (35%) and SELECT * over an hour (the costliest 25%).
  const size_t m = recipe.sqls;
  for (size_t k = 0; k < m; ++k) {
    Op op;
    op.kind = OpKind::kSql;
    const size_t shape = k < m / 5         ? 3
                         : k < 2 * m / 5   ? 1
                         : k < 3 * m / 4   ? 0
                                           : 2;
    const int64_t epochs = std::min(
        recipe.max_epochs,
        shape == 2   ? int64_t{2}
        : shape == 0 ? std::array<int64_t, 3>{1, 2, 4}[k % 3]
                     : std::array<int64_t, 4>{1, 2, 4, 8}[k % 4]);
    const auto [begin, end] =
        PlaceWindow(rng, resident, resident_days, slot(k + 5), epochs);
    const std::string window = SqlWindow(begin, end);
    switch (shape) {
      case 0:
        op.sql = "SELECT caller_id, duration, upflux FROM CDR WHERE " + window;
        break;
      case 1:
        op.sql = "SELECT caller_id, duration FROM CDR WHERE " + window +
                 " AND cell_id = '" + random_cell().id + "'";
        break;
      case 2:
        op.sql = "SELECT * FROM CDR WHERE " + window;
        break;
      default:
        op.sql = "SELECT cell_id, COUNT(*), SUM(duration) FROM CDR WHERE " +
                 window + " GROUP BY cell_id";
        break;
    }
    op.label = "SQL " + op.sql;
    ops.push_back(std::move(op));
  }
  for (size_t k = 0; k < recipe.tasks; ++k) {
    Op op;
    op.kind = OpKind::kTask;
    op.task = 1 + static_cast<int>(k % 8);
    const int64_t epochs =
        op.task == 1   ? 1
        : op.task >= 6 ? 1 + static_cast<int64_t>((k / 8) % 2)
                       : kTaskEpochs[(k / 8) % 3];
    std::tie(op.begin, op.end) =
        PlaceWindow(rng, resident, resident_days, slot(k + 11), epochs);
    op.label = "T" + std::to_string(op.task) + " w=" +
               FormatCompact(op.begin) + "+" + std::to_string(epochs);
    ops.push_back(std::move(op));
  }
  // Seeded order (Fisher-Yates).
  for (size_t i = ops.size(); i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Uniform(i)]);
  }
  return ops;
}

// -- Task fingerprints ------------------------------------------------------

Fingerprint Fp(const FluxResult& r) {
  Digest d;
  d.AddU64(r.flux.size());
  for (const auto& [up, down] : r.flux) {
    d.AddU64(static_cast<uint64_t>(up));
    d.AddU64(static_cast<uint64_t>(down));
  }
  d.AddU64(r.total_upflux);
  d.AddU64(r.total_downflux);
  return {d.value(), {}};
}

Fingerprint Fp(const DropRateResult& r) {
  Digest d;
  for (const auto& [cell, v] : r.drops_per_cell) {
    d.Add(cell);
    d.AddDouble(v);
  }
  for (const auto& [cell, v] : r.drop_rate_per_cell) {
    d.Add(cell);
    d.AddDouble(v);
  }
  return {d.value(), {}};
}

Fingerprint Fp(const MovedDevicesResult& r) {
  Digest d;
  d.AddU64(r.devices_seen);
  d.AddU64(r.devices_moved);
  for (const auto& [imei, n] : r.top_movers) {
    d.Add(imei);
    d.AddU64(static_cast<uint64_t>(n));
  }
  return {d.value(), {}};
}

Fingerprint Fp(const AnonymizationResult& r) {
  Digest d;
  d.AddU64(r.rows.size());
  for (const Record& row : r.rows) {
    for (const std::string& field : row) d.Add(field);
  }
  for (int level : r.levels) d.AddU64(static_cast<uint64_t>(level));
  d.AddU64(r.suppressed);
  return {d.value(), {}};
}

Fingerprint Fp(const StatisticsResult& r) {
  Fingerprint fp;
  Digest d;
  for (const auto* columns : {&r.cdr, &r.nms}) {
    for (const ColumnStat& c : *columns) {
      d.Add(c.name);
      d.AddU64(c.count);
      d.AddU64(c.num_nonzeros);
      fp.approx.insert(fp.approx.end(), {c.min, c.max, c.mean, c.variance});
    }
  }
  fp.exact = d.value();
  return fp;
}

Fingerprint Fp(const KMeansResult& r) {
  Fingerprint fp;
  Digest d;
  d.AddU64(r.centroids.size());
  d.AddU64(r.assignments.size());
  for (const auto& centroid : r.centroids) {
    fp.approx.insert(fp.approx.end(), centroid.begin(), centroid.end());
  }
  fp.approx.push_back(r.inertia);
  fp.exact = d.value();
  return fp;
}

Fingerprint Fp(const RegressionResult& r) {
  Fingerprint fp;
  Digest d;
  d.AddU64(r.weights.size());
  fp.approx = r.weights;
  fp.approx.insert(fp.approx.end(), {r.intercept, r.mse, r.r2});
  fp.exact = d.value();
  return fp;
}

template <typename T>
Fingerprint FpOf(const Result<T>& r, Status* status) {
  *status = r.status();
  return r.ok() ? Fp(*r) : Fingerprint{};
}

/// Runs task `op.task` through the library's task entry points.
Fingerprint RunTask(Framework& framework, const Op& op, ThreadPool* pool,
                    Status* status) {
  switch (op.task) {
    case 1:
      return FpOf(TaskEquality(framework, op.begin), status);
    case 2:
      return FpOf(TaskRange(framework, op.begin, op.end), status);
    case 3:
      return FpOf(TaskAggregate(framework, op.begin, op.end), status);
    case 4:
      return FpOf(TaskJoin(framework, op.begin, op.end), status);
    case 5:
      return FpOf(TaskPrivacy(framework, op.begin, op.end, 5), status);
    case 6:
      return FpOf(TaskStatistics(framework, op.begin, op.end, pool), status);
    case 7:
      return FpOf(TaskClustering(framework, op.begin, op.end, KMeansOptions(),
                                 pool),
                  status);
    default:
      return FpOf(TaskRegression(framework, op.begin, op.end, pool), status);
  }
}

struct TaskTimes {
  double scan_ms = 0;
  double kernel_ms = 0;
  double privacy_ms = 0;
  uint64_t tasks = 0;
  uint64_t kernel_tasks = 0;
  uint64_t privacy_tasks = 0;
};

/// The traced form of `RunTask`: the same computation split into its scan
/// (`ScanWindow` / `ScanWindowProjected` / `AggregateWindow`) and the public
/// analytics and privacy kernels, each timed and spanned. Answers are
/// identical to the library's task functions.
Fingerprint RunTaskSplit(SpateFramework& framework, const Op& op,
                         ThreadPool* pool, Tracer* tracer, uint32_t id,
                         TaskTimes* times, Status* status) {
  const Timestamp begin =
      op.task == 1 ? TruncateToEpoch(op.begin) : op.begin;
  const Timestamp end = op.task == 1 ? begin + kEpochSeconds : op.end;
  ++times->tasks;
  double t = Now();
  auto scan_done = [&] {
    times->scan_ms += (Now() - t) * 1e3;
    t = Now();
  };
  auto projected = [&](std::vector<std::string> attributes,
                       const std::function<void(const Snapshot&)>& fn) {
    ExplorationQuery query;
    query.attributes = std::move(attributes);
    query.window_begin = begin;
    query.window_end = end;
    Tracer::Scope span(tracer, id, "core.ScanWindowProjected");
    return framework.ScanWindowProjected(query, fn);
  };
  auto in_window = [&](const Record& row) {
    const Timestamp ts = ParseCompact(FieldAsString(row, kCdrTs));
    return ts >= begin && ts < end;
  };
  auto kernel_done = [&](bool privacy) {
    const double ms = (Now() - t) * 1e3;
    if (privacy) {
      times->privacy_ms += ms;
      ++times->privacy_tasks;
    } else {
      times->kernel_ms += ms;
      ++times->kernel_tasks;
    }
  };

  switch (op.task) {
    case 1:
    case 2: {
      FluxResult result;
      *status = projected({"ts", "upflux", "downflux"},
                          [&](const Snapshot& snapshot) {
                            for (const Record& row : snapshot.cdr) {
                              if (!in_window(row)) continue;
                              const int64_t up = FieldAsInt(row, kCdrUpflux);
                              const int64_t down =
                                  FieldAsInt(row, kCdrDownflux);
                              result.flux.emplace_back(up, down);
                              result.total_upflux += static_cast<uint64_t>(up);
                              result.total_downflux +=
                                  static_cast<uint64_t>(down);
                            }
                          });
      scan_done();
      return status->ok() ? Fp(result) : Fingerprint{};
    }
    case 3: {
      Result<NodeSummary> summary = [&] {
        Tracer::Scope span(tracer, id, "index.AggregateWindow");
        return framework.AggregateWindow(begin, end);
      }();
      scan_done();
      *status = summary.status();
      if (!summary.ok()) return {};
      DropRateResult result;
      {
        Tracer::Scope span(tracer, id, "query.DropRateFold");
        for (const auto& [cell_id, stats] : summary->per_cell()) {
          const MetricAggregate& drops =
              stats.metrics[static_cast<int>(Metric::kDropCalls)];
          const MetricAggregate& attempts =
              stats.metrics[static_cast<int>(Metric::kCallAttempts)];
          if (drops.count == 0 && attempts.count == 0) continue;
          result.drops_per_cell[cell_id] = drops.sum;
          result.drop_rate_per_cell[cell_id] =
              attempts.sum > 0 ? drops.sum / attempts.sum : 0.0;
        }
      }
      kernel_done(false);
      return Fp(result);
    }
    case 4: {
      std::unordered_map<std::string, std::unordered_set<std::string>> cells_of;
      *status = projected({"ts", "imei", "cell_id"},
                          [&](const Snapshot& snapshot) {
                            for (const Record& row : snapshot.cdr) {
                              if (!in_window(row)) continue;
                              cells_of[FieldAsString(row, kCdrImei)].insert(
                                  FieldAsString(row, kCdrCellId));
                            }
                          });
      scan_done();
      if (!status->ok()) return {};
      MovedDevicesResult result;
      {
        Tracer::Scope span(tracer, id, "query.JoinMovers");
        result.devices_seen = cells_of.size();
        std::vector<std::pair<std::string, int>> movers;
        for (const auto& [imei, cells] : cells_of) {
          if (cells.size() > 1) {
            ++result.devices_moved;
            movers.emplace_back(imei, static_cast<int>(cells.size()));
          }
        }
        std::sort(movers.begin(), movers.end(),
                  [](const auto& a, const auto& b) {
                    return a.second != b.second ? a.second > b.second
                                                : a.first < b.first;
                  });
        if (movers.size() > 20) movers.resize(20);
        result.top_movers = std::move(movers);
      }
      kernel_done(false);
      return Fp(result);
    }
    case 5: {
      std::vector<Record> rows;
      *status = projected({"ts", "caller_id", "cell_id", "duration"},
                          [&](const Snapshot& snapshot) {
                            for (const Record& row : snapshot.cdr) {
                              if (in_window(row)) rows.push_back(row);
                            }
                          });
      scan_done();
      if (!status->ok()) return {};
      AnonymizationConfig config;
      config.k = 5;
      config.quasi_identifiers = {
          {kCdrCaller, GeneralizationKind::kSuffixMask, 6},
          {kCdrCellId, GeneralizationKind::kSuffixMask, 4},
          {kCdrDuration, GeneralizationKind::kNumericBucket, 5},
      };
      config.drop_columns = {kCdrImei, kCdrCallee};
      Result<AnonymizationResult> result = [&] {
        Tracer::Scope span(tracer, id, "privacy.KAnonymize");
        return KAnonymize(rows, config);
      }();
      kernel_done(true);
      return FpOf(result, status);
    }
    default:
      break;
  }
  // T6-T8: full-width scans feeding an analytics kernel on the pool.
  Matrix cdr_rows, nms_rows;
  std::vector<double> targets;
  {
    Tracer::Scope span(tracer, id, "core.ScanWindow");
    *status = framework.ScanWindow(begin, end, [&](const Snapshot& snapshot) {
      if (op.task == 6) {
        AppendSnapshotFeatures(snapshot, &cdr_rows, &nms_rows);
      } else if (op.task == 7) {
        AppendSnapshotFeatures(snapshot, nullptr, &nms_rows);
      } else {
        for (const Record& row : snapshot.cdr) {
          std::vector<double> f = CdrFeatures(row);
          targets.push_back(f[2]);  // downflux
          f.erase(f.begin() + 2);
          cdr_rows.push_back(std::move(f));
        }
      }
    });
  }
  scan_done();
  if (!status->ok()) return {};
  Tracer::Scope span(tracer, id, "analytics.Kernel");
  Fingerprint fp;
  if (op.task == 6) {
    StatisticsResult result;
    result.cdr = ComputeColumnStats(cdr_rows, CdrFeatureNames(), pool);
    result.nms = ComputeColumnStats(nms_rows, NmsFeatureNames(), pool);
    fp = Fp(result);
  } else if (op.task == 7) {
    fp = FpOf(KMeans(nms_rows, KMeansOptions(), pool), status);
  } else {
    fp = FpOf(LinearRegression(cdr_rows, targets, RegressionOptions(), pool),
              status);
  }
  kernel_done(false);
  return fp;
}

/// Counters of one measured phase.
struct Phase {
  /// Latencies of each distinct op (indexed like the op list), one per
  /// cycle.
  std::vector<Samples> op_ms;
  uint64_t ops = 0;
  double sim_ms = 0;
  /// (op index, answer) of every op that returned OK.
  std::vector<std::pair<size_t, Fingerprint>> answers;
  // Layer counters (collected on every phase, reported from traced ones).
  uint64_t dfs_bytes = 0, dfs_blocks = 0;
  double dfs_sim_read_ms = 0;
  uint64_t cycle_dfs_bytes = 0, cycle_dfs_blocks = 0;
  uint64_t bytes_decoded = 0, leaves_scanned = 0, leaves_skipped = 0;
  uint64_t query_ops = 0, summary_answers = 0;
  double sql_parse_ms = 0, sql_plan_ms = 0, sql_exec_ms = 0;
  uint64_t sql_split = 0, sql_summary_plans = 0;
  uint64_t predicted_bytes = 0, actual_bytes = 0;
  TaskTimes task_times;
  ReplayStats replay;
  uint64_t replayed = 0, reconciled = 0;
  FragmentCacheStats fragments_before, fragments_after;
};

/// The phase's latency metrics. Each distinct op runs once per cycle; its
/// latency is the minimum over the cycles (its cost with the least host
/// interference), the class percentiles are taken over those per-op
/// minima, and throughput is the op count over their sum.
struct PhaseSummary {
  Samples query, sql;
  double task_ms_mean = 0;
  double ops_per_s = 0;
};

PhaseSummary Summarize(const Phase& phase, const std::vector<Op>& ops) {
  PhaseSummary s;
  double task_ms = 0, all_ms = 0;
  size_t tasks = 0, timed = 0;
  for (size_t i = 0; i < phase.op_ms.size(); ++i) {
    if (phase.op_ms[i].size() == 0) continue;
    const double ms = phase.op_ms[i].Percentile(0);
    all_ms += ms;
    ++timed;
    switch (ops[i].kind) {
      case OpKind::kQuery:
        s.query.Add(ms);
        break;
      case OpKind::kSql:
        s.sql.Add(ms);
        break;
      case OpKind::kTask:
        task_ms += ms;
        ++tasks;
        break;
    }
  }
  s.task_ms_mean = Ratio(task_ms, static_cast<double>(tasks));
  s.ops_per_s = Ratio(static_cast<double>(timed), all_ms / 1e3);
  return s;
}

}  // namespace

struct ReadProbe::State {
  std::vector<Op> ops;
  std::vector<Samples> op_ms;
  uint64_t failed = 0;
};

ReadProbe::ReadProbe(uint64_t seed, Timestamp resident, int days,
                     size_t queries, size_t sqls, size_t tasks,
                     const CellDirectory& cells)
    : state_(std::make_unique<State>()) {
  // Windows of at most two hours keep the probe's answers small, so it
  // does not set the caller's peak RSS.
  state_->ops = GenerateOps(
      seed, Recipe{queries, sqls, tasks, 0, resident, days, 4}, cells);
  state_->op_ms.resize(state_->ops.size());
}

ReadProbe::~ReadProbe() = default;

size_t ReadProbe::ops() const { return state_->ops.size(); }

void ReadProbe::RunRound(SpateFramework& framework) {
  for (size_t i = 0; i < state_->ops.size(); ++i) {
    const Op& op = state_->ops[i];
    Status status;
    const double t0 = Now();
    if (op.kind == OpKind::kQuery) {
      status = framework.Execute(op.query).status();
    } else if (op.kind == OpKind::kSql) {
      status = ExecutePlannedSql(framework, op.sql).status();
    } else {
      (void)RunTask(framework, op, framework.pool(), &status);
    }
    state_->op_ms[i].Add((Now() - t0) * 1e3);
    if (!status.ok()) ++state_->failed;
  }
}

ReadProbeResult ReadProbe::Result() const {
  ReadProbeResult out;
  out.failed = state_->failed;
  double task_ms = 0;
  size_t tasks = 0;
  for (size_t i = 0; i < state_->ops.size(); ++i) {
    if (state_->op_ms[i].size() == 0) continue;
    const double ms = state_->op_ms[i].Percentile(0);
    switch (state_->ops[i].kind) {
      case OpKind::kQuery:
        out.query.Add(ms);
        break;
      case OpKind::kSql:
        out.sql.Add(ms);
        break;
      case OpKind::kTask:
        task_ms += ms;
        ++tasks;
        break;
    }
  }
  out.task_ms_mean = Ratio(task_ms, static_cast<double>(tasks));
  return out;
}

RunResult RunExplore(const Options& options) {
  RunResult out;
  const TraceConfig config = MakeTrace(options.seed, kStoreDays);
  const TraceGenerator generator(config);
  const int workers = LoadWorkers();

  SpateOptions store_options;
  store_options.leaf_layout = LeafLayout::kColumnar;
  store_options.parallelism.worker_count = workers;
  store_options.decay.full_resolution_seconds = 2 * 86400;
  store_options.decay.day_resolution_seconds = 4 * 86400;
  // Builds a store. Each Ingest of the set-up builds is timed too: the
  // columnar ingest path is the cost this workload's reads are paid with.
  const std::vector<Timestamp> epochs = generator.EpochStarts();
  std::vector<Samples> build_ingest_ms(epochs.size());
  std::vector<uint64_t> raw_bytes(epochs.size(), 0);
  uint64_t stored_bytes = 0;
  auto build = [&](const SpateOptions& o, bool reference) {
    auto framework = std::make_unique<SpateFramework>(o, generator.cells());
    if (!reference) stored_bytes = 0;
    for (size_t k = 0; k < epochs.size(); ++k) {
      const Snapshot snapshot = generator.GenerateSnapshot(epochs[k]);
      if (reference) raw_bytes[k] = SerializeSnapshot(snapshot).size();
      const double t0 = Now();
      if (!framework->Ingest(snapshot).ok()) ++out.failed;
      if (!reference) {
        build_ingest_ms[k].Add((Now() - t0) * 1e3);
        stored_bytes += framework->last_ingest_stats().stored_bytes;
      }
    }
    return framework;
  };

  // Set-up: build the store several times and keep the last. The first
  // build sizes the fragment cache: a quarter of the decoded working set.
  std::unique_ptr<SpateFramework> store;
  std::vector<double> setup_times;
  uint64_t working_set = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    store.reset();
    const double t0 = Now();
    store = build(store_options, false);
    setup_times.push_back(Now() - t0);
    if (r == 0) {
      for (const LeafNode* leaf : store->index().LeavesInWindow(
               config.start, config.start + kStoreDays * 86400)) {
        working_set += leaf->decode_stats.FullDecodeBytes();
      }
      store_options.fragment_cache_bytes =
          std::max<uint64_t>(1, working_set / 4);
    }
  }
  std::sort(setup_times.begin(), setup_times.end());

  const std::vector<Op> ops = GenerateOps(
      options.seed,
      Recipe{kQueries, kSqls, kTasks, config.start, config.start + 86400,
             kStoreDays - 1},
      store->cells());
  Digest op_digest;
  for (const Op& op : ops) op_digest.Add(op.label);

  SpateFramework& fw = *store;
  ThreadPool* pool = fw.pool();
  Tracer tracer(options.trace);

  // Runs whole cycles of the op list until `seconds` have passed, so every
  // run measures the same mix.
  auto run_phase = [&](double seconds, Tracer* t, Phase* phase) {
    Tracer off(false);
    Tracer* span_tracer = t != nullptr ? t : &off;
    const bool traced = t != nullptr;
    if (fw.fragment_cache() != nullptr) {
      phase->fragments_before = fw.fragment_cache()->stats();
    }
    phase->op_ms.resize(ops.size());
    const double end_time = Now() + seconds;
    for (size_t i = 0; Now() < end_time || i % ops.size() != 0; ++i) {
      const size_t index = i % ops.size();
      const Op& op = ops[index];
      const uint32_t id = span_tracer->NewOp();
      const IoStats io_before = fw.dfs().stats();
      Status status;
      Fingerprint fp;
      std::optional<QueryResult> query_result;
      bool scanned = false;
      double ms = 0;
      if (op.kind == OpKind::kQuery) {
        const double t0 = Now();
        Result<QueryResult> r = [&] {
          Tracer::Scope span(span_tracer, id, "core.Execute");
          return fw.Execute(op.query);
        }();
        ms = (Now() - t0) * 1e3;
        status = r.status();
        ++phase->query_ops;
        if (r.ok()) {
          fp.exact = DigestQueryResult(*r);
          scanned = r->exact;
          if (!r->exact) ++phase->summary_answers;
          query_result = std::move(r).value();
        }
      } else if (op.kind == OpKind::kSql) {
        double t0 = Now();
        if (!traced) {
          Result<SqlResult> r = ExecutePlannedSql(fw, op.sql);
          ms = (Now() - t0) * 1e3;
          status = r.status();
          if (r.ok()) fp.exact = DigestSqlResult(*r, false);
        } else {
          // The planned path split into its three public stages.
          Result<PreparedStatement> prepared = [&] {
            Tracer::Scope span(span_tracer, id, "sql.PrepareStatement");
            return PrepareStatement(op.sql);
          }();
          Result<SelectStatement> bound =
              prepared.ok() ? BindParams(*prepared, {})
                            : Result<SelectStatement>(prepared.status());
          const double t1 = Now();
          Result<QueryPlan> plan =
              bound.ok() ? [&] {
                Tracer::Scope span(span_tracer, id, "sql.PlanSelect");
                return PlanSelect(fw, *bound);
              }()
                         : Result<QueryPlan>(bound.status());
          const double t2 = Now();
          uint64_t actual = 0;
          Result<SqlResult> r =
              plan.ok() ? [&] {
                Tracer::Scope span(span_tracer, id, "sql.ExecutePlan");
                return ExecutePlan(fw, *plan, nullptr, &actual);
              }()
                        : Result<SqlResult>(plan.status());
          const double t3 = Now();
          ms = (t3 - t0) * 1e3;
          status = r.status();
          if (r.ok()) fp.exact = DigestSqlResult(*r, false);
          phase->sql_parse_ms += (t1 - t0) * 1e3;
          phase->sql_plan_ms += (t2 - t1) * 1e3;
          phase->sql_exec_ms += (t3 - t2) * 1e3;
          ++phase->sql_split;
          if (plan.ok()) {
            phase->predicted_bytes += plan->predicted_bytes;
            phase->actual_bytes += actual;
            if (plan->scan == PlanScanKind::kSummaryAnswer) {
              ++phase->sql_summary_plans;
            }
            scanned = plan->scan == PlanScanKind::kProjectedScan ||
                      plan->scan == PlanScanKind::kRowScan;
          }
        }
      } else {
        const double t0 = Now();
        fp = traced ? RunTaskSplit(fw, op, pool, span_tracer, id,
                                   &phase->task_times, &status)
                    : RunTask(fw, op, pool, &status);
        ms = (Now() - t0) * 1e3;
        scanned = op.task != 3;
      }
      const IoStats io_after = fw.dfs().stats();
      ++phase->ops;
      phase->op_ms[index].Add(ms);
      phase->sim_ms += (io_after.simulated_io_seconds() -
                        io_before.simulated_io_seconds()) *
                       1e3;
      const uint64_t op_bytes_read = io_after.bytes_read - io_before.bytes_read;
      const uint64_t op_blocks_read =
          io_after.blocks_read - io_before.blocks_read;
      phase->dfs_bytes += op_bytes_read;
      phase->dfs_blocks += op_blocks_read;
      phase->dfs_sim_read_ms += (io_after.simulated_read_seconds -
                                 io_before.simulated_read_seconds) *
                                1e3;
      if (i + 1 == ops.size()) {
        phase->cycle_dfs_bytes = phase->dfs_bytes;
        phase->cycle_dfs_blocks = phase->dfs_blocks;
      }
      ScanStats scan;
      if (scanned) scan = fw.last_scan_stats();
      phase->bytes_decoded += scan.bytes_decoded;
      phase->leaves_scanned += scan.leaves_scanned;
      phase->leaves_skipped += scan.leaves_skipped_spatial;
      if (status.ok()) phase->answers.emplace_back(index, fp);

      // Replay a sample of Q(a,b,w) ops through the layers from outside
      // and reconcile the replay with what the framework reported.
      if (traced && op.kind == OpKind::kQuery &&
          phase->replayed < kReplayOps && query_result.has_value()) {
        ReplayStats replay;
        const Status replayed =
            ReplayQuery(fw, op.query, span_tracer, id, &replay);
        ++phase->replayed;
        const uint64_t op_decoded =
            scanned ? scan.bytes_decoded + scan.bytes_decoded_saved : 0;
        const bool rows_match =
            !scanned || (replay.cdr_rows == query_result->cdr_rows &&
                         replay.nms_rows == query_result->nms_rows);
        const bool leaves_match =
            !scanned ||
            (replay.leaves == scan.leaves_scanned &&
             replay.leaves_skipped_spatial == scan.leaves_skipped_spatial);
        if (replayed.ok() && replay.bytes_decoded == op_decoded &&
            replay.dfs_bytes_read == op_bytes_read &&
            replay.dfs_blocks_read == op_blocks_read && leaves_match &&
            rows_match) {
          ++phase->reconciled;
        } else {
          out.notes.push_back(
              "replay mismatch on op " + op.label + ": replay decoded " +
              std::to_string(replay.bytes_decoded) + " vs scan " +
              std::to_string(op_decoded) + ", replay read " +
              std::to_string(replay.dfs_bytes_read) + " vs op " +
              std::to_string(op_bytes_read) +
              (rows_match ? "" : ", rows differ") +
              (leaves_match ? "" : ", leaf counts differ") +
              (replayed.ok() ? "" : ", " + replayed.ToString()));
        }
        phase->replay.Add(replay);
      }
    }
    if (fw.fragment_cache() != nullptr) {
      phase->fragments_after = fw.fragment_cache()->stats();
    }
  };

  // Untraced runs measure the whole time; traced runs measure half
  // untraced (the overhead baseline) and half traced.
  Phase main_phase, traced_phase;
  if (!options.trace) {
    run_phase(options.seconds, nullptr, &main_phase);
  } else {
    run_phase(options.seconds / 2, nullptr, &main_phase);
    run_phase(options.seconds / 2, &tracer, &traced_phase);
  }
  const double peak_rss = PeakRssMb();

  // Correctness: one reference answer per distinct op, computed after the
  // timed phase on an independent store (row layout, no fragment cache,
  // serial, naive SQL executor).
  SpateOptions reference_options;
  reference_options.decay = store_options.decay;
  std::unique_ptr<SpateFramework> reference = build(reference_options, true);
  std::unordered_map<size_t, Fingerprint> expected;
  uint64_t mismatches = 0, ok_ops = 0;
  for (Phase* phase : {&main_phase, &traced_phase}) {
    for (const auto& [index, fp] : phase->answers) {
      auto it = expected.find(index);
      if (it == expected.end()) {
        const Op& op = ops[index];
        Fingerprint ref;
        Status status;
        if (op.kind == OpKind::kQuery) {
          Result<QueryResult> r = reference->Execute(op.query);
          status = r.status();
          if (r.ok()) ref.exact = DigestQueryResult(*r);
        } else if (op.kind == OpKind::kSql) {
          Result<SqlResult> r = ExecuteSql(*reference, op.sql);
          status = r.status();
          if (r.ok()) ref.exact = DigestSqlResult(*r, false);
        } else {
          ref = RunTask(*reference, op, nullptr, &status);
        }
        if (!status.ok()) ref.exact = ~fp.exact;
        if (options.perturb_reference && index % 7 == 0) ref.exact ^= 1;
        it = expected.emplace(index, std::move(ref)).first;
      }
      if (fp.Matches(it->second)) {
        ++ok_ops;
      } else {
        ++mismatches;
      }
    }
  }
  const uint64_t attempted = main_phase.ops + traced_phase.ops;
  out.attempted = attempted;
  out.failed += attempted - ok_ops;
  if (options.trace) {
    out.failed += traced_phase.replayed - traced_phase.reconciled;
  }

  const Phase& m = main_phase;
  const PhaseSummary ms = Summarize(m, ops);
  auto& e2e = out.end_to_end;
  SetMetric(&e2e, "setup_s", setup_times[setup_times.size() / 2], "s");
  SetMetric(&e2e, "ops_per_s", ms.ops_per_s, "ops/s");
  SetMetric(&e2e, "query_p50_ms", ms.query.Percentile(0.5), "ms");
  SetMetric(&e2e, "query_p90_ms", ms.query.Percentile(0.9), "ms");
  SetMetric(&e2e, "sql_p50_ms", ms.sql.Percentile(0.5), "ms");
  SetMetric(&e2e, "sql_p90_ms", ms.sql.Percentile(0.9), "ms");
  SetMetric(&e2e, "task_ms_mean", ms.task_ms_mean, "ms");
  // Ingest of the set-up builds: each epoch's minimum over the builds.
  Samples build_ingest;
  double build_ms = 0, raw_total = 0;
  for (size_t k = 0; k < epochs.size(); ++k) {
    const double ms_k = build_ingest_ms[k].Percentile(0);
    build_ingest.Add(ms_k);
    build_ms += ms_k;
    raw_total += static_cast<double>(raw_bytes[k]);
  }
  SetMetric(&e2e, "ingest_mb_per_s", Ratio(raw_total / 1e6, build_ms / 1e3),
            "MB/s");
  SetMetric(&e2e, "ingest_p50_ms", build_ingest.Percentile(0.5), "ms");
  SetMetric(&e2e, "ingest_p90_ms", build_ingest.Percentile(0.9), "ms");
  SetMetric(&e2e, "stored_bytes_per_raw_byte",
            Ratio(static_cast<double>(stored_bytes), raw_total), "ratio");
  SetMetric(&e2e, "modelled_io_ms_per_op",
            Ratio(m.sim_ms, static_cast<double>(m.ops)), "ms");
  SetMetric(&e2e, "correct_frac",
            Ratio(static_cast<double>(attempted - out.failed),
                  static_cast<double>(attempted)),
            "ratio");
  SetMetric(&e2e, "peak_rss_mb", peak_rss, "MB");

  char line[256];
  snprintf(line, sizeof(line),
           "explore: %zu cycles of %zu ops (%zu Q, %zu SQL, %zu tasks), "
           "%" PRIu64 " ops timed, %zu distinct checked, %" PRIu64
           " mismatches",
           m.op_ms.empty() ? size_t{0} : m.op_ms[0].size(), ops.size(),
           ms.query.size(), ms.sql.size(), kTasks, m.ops, expected.size(),
           mismatches);
  out.notes.push_back(line);
  snprintf(line, sizeof(line),
           "explore: decoded working set %.1f MB, fragment budget %.1f MB",
           working_set / 1e6, store_options.fragment_cache_bytes / 1e6);
  out.notes.push_back(line);
  out.deterministic["op_sequence"] = std::to_string(op_digest.value());
  if (!options.trace) {
    out.deterministic["explore.cycle_dfs_bytes_read"] =
        std::to_string(m.cycle_dfs_bytes);
    out.deterministic["explore.cycle_dfs_blocks_read"] =
        std::to_string(m.cycle_dfs_blocks);
  }

  if (options.trace) {
    const Phase& p = traced_phase;
    const double n = static_cast<double>(p.ops);
    auto& layer = out.per_layer;
    std::vector<Snapshot> sample;
    for (int k = 0; k < 4; ++k) {
      sample.push_back(generator.GenerateSnapshot(
          config.start + 86400 + (12 + 6 * k) * kEpochSeconds));
    }
    ProbeTextLayers(sample, &tracer, &out);
    ReportReplay(p.replay, p.replayed, &out);
    SetMetric(&layer, "replay.reconciled_ops",
              static_cast<double>(p.reconciled), "count");
    SetMetric(&layer, "dfs.bytes_read_per_op",
              Ratio(static_cast<double>(p.dfs_bytes), n), "bytes");
    SetMetric(&layer, "dfs.blocks_read_per_op",
              Ratio(static_cast<double>(p.dfs_blocks), n), "count");
    SetMetric(&layer, "dfs.sim_read_ms_per_op", Ratio(p.dfs_sim_read_ms, n),
              "ms");
    SetMetric(&layer, "index.leaves_decayed",
              static_cast<double>(fw.index().num_decayed()), "count");
    SetMetric(&layer, "index.days_pruned",
              static_cast<double>(fw.index().num_pruned_days()), "count");
    SetMetric(&layer, "index.summary_answer_share",
              Ratio(static_cast<double>(p.summary_answers),
                    static_cast<double>(p.query_ops)),
              "ratio");
    SetMetric(&layer, "core.bytes_decoded_per_op",
              Ratio(static_cast<double>(p.bytes_decoded), n), "bytes");
    SetMetric(&layer, "core.leaves_scanned_per_op",
              Ratio(static_cast<double>(p.leaves_scanned), n), "count");
    SetMetric(&layer, "core.leaves_skipped_spatial_per_op",
              Ratio(static_cast<double>(p.leaves_skipped), n), "count");
    const uint64_t hits =
        p.fragments_after.fragment_hits - p.fragments_before.fragment_hits;
    const uint64_t misses =
        p.fragments_after.misses - p.fragments_before.misses;
    SetMetric(&layer, "core.fragment_hit_ratio",
              Ratio(static_cast<double>(hits),
                    static_cast<double>(hits + misses)),
              "ratio");
    SetMetric(&layer, "core.fragment_evictions_per_op",
              Ratio(static_cast<double>(p.fragments_after.evictions -
                                        p.fragments_before.evictions),
                    n),
              "count");
    SetMetric(&layer, "core.fragment_budget_mb",
              store_options.fragment_cache_bytes / 1e6, "MB");
    SetMetric(&layer, "core.decoded_working_set_mb", working_set / 1e6, "MB");
    const TaskTimes& tt = p.task_times;
    SetMetric(&layer, "query.task_scan_ms",
              Ratio(tt.scan_ms, static_cast<double>(tt.tasks)), "ms");
    SetMetric(&layer, "analytics.kernel_ms_per_task",
              Ratio(tt.kernel_ms, static_cast<double>(tt.kernel_tasks)), "ms");
    SetMetric(&layer, "privacy.anonymize_ms",
              Ratio(tt.privacy_ms, static_cast<double>(tt.privacy_tasks)),
              "ms");
    const double sql_n = static_cast<double>(p.sql_split);
    SetMetric(&layer, "sql.parse_ms", Ratio(p.sql_parse_ms, sql_n), "ms");
    SetMetric(&layer, "sql.plan_ms", Ratio(p.sql_plan_ms, sql_n), "ms");
    SetMetric(&layer, "sql.exec_ms", Ratio(p.sql_exec_ms, sql_n), "ms");
    SetMetric(&layer, "sql.predicted_over_actual_bytes",
              Ratio(static_cast<double>(p.predicted_bytes),
                    static_cast<double>(p.actual_bytes)),
              "ratio");
    SetMetric(&layer, "sql.summary_plan_share",
              Ratio(static_cast<double>(p.sql_summary_plans), sql_n), "ratio");
    const double untraced = ms.ops_per_s;
    const double traced = Summarize(p, ops).ops_per_s;
    SetMetric(&layer, "trace.untraced_ops_per_s", untraced, "ops/s");
    SetMetric(&layer, "trace.traced_ops_per_s", traced, "ops/s");
    SetMetric(&layer, "trace.overhead_frac", Ratio(untraced, traced) - 1,
              "ratio");
    ReportSpans(tracer, options, &out);
  }
  out.notes.push_back("explore: store built with " + std::to_string(workers) +
                      " workers");
  return out;
}

}  // namespace perfbench
