#include "sql/planner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/spate_framework.h"
#include "sql/explain.h"
#include "sql/parser.h"
#include "telco/schema.h"

namespace spate {
namespace {

// Hand-crafted four-epoch store over three known cells so every plan choice
// is deterministic: "alpha" and "beta" carry traffic in different epochs
// (spatial skip has something to prove) and "gamma" exists in the inventory
// but never in the data (a box query that skips every leaf).
//
//   epoch 0: alpha x3, beta x2      epoch 2: beta x3
//   epoch 1: alpha x3               epoch 3: alpha x2, beta x2
constexpr int kEpochs = 4;
const char kWindow[] =
    "ts >= '201603140000' AND ts < '201603140200'";

Timestamp Base() { return ParseCompact("201603140000"); }

Record CellRow(const std::string& id, double x, double y) {
  // CellSchema: cell_id, antenna_id, x, y, tech, azimuth, range_m, region,
  // vendor, capacity.
  return {id,     "a1",     std::to_string(x), std::to_string(y), "LTE",
          "90",   "500",    "r1",              "vend",            "32"};
}

std::vector<Record> CellRows() {
  return {CellRow("alpha", 10, 10), CellRow("beta", 500, 500),
          CellRow("gamma", 900, 900)};
}

Record Cdr(Timestamp ts, const std::string& cell, int k) {
  Record row(kCdrNumAttributes);
  row[kCdrTs] = FormatCompact(ts);
  row[1] = "u" + cell + std::to_string(k);      // caller_id
  row[2] = "v" + cell + std::to_string(k);      // callee_id
  row[kCdrCellId] = cell;
  row[4] = "voice";                             // call_type
  row[5] = std::to_string(30 + 10 * k + (cell == "beta" ? 5 : 0));  // duration
  row[6] = std::to_string(100 * (k + 1));       // upflux
  row[7] = std::to_string(200 * (k + 1));       // downflux
  row[8] = "ok";                                // result
  row[9] = "imei" + std::to_string(k);          // imei
  return row;
}

Record Nms(Timestamp ts, const std::string& cell, int epoch) {
  // NmsSchema: ts, cell_id, drop_calls, call_attempts, avg_duration,
  // throughput, rssi, handover_fails.
  return {FormatCompact(ts),
          cell,
          std::to_string(epoch + 1),
          std::to_string(10 + epoch),
          "30.5",
          cell == "alpha" ? "110.25" : "90.5",
          cell == "alpha" ? "-90.5" : "-95.25",
          std::to_string(epoch)};
}

Snapshot Epoch(int i) {
  Snapshot snap;
  snap.epoch_start = Base() + i * kEpochSeconds;
  auto add_cdr = [&](const std::string& cell, int count) {
    for (int k = 0; k < count; ++k) {
      snap.cdr.push_back(Cdr(snap.epoch_start + 60 * (k + 1), cell, k));
    }
    snap.nms.push_back(Nms(snap.epoch_start + 120, cell, i));
  };
  if (i == 0 || i == 1 || i == 3) add_cdr("alpha", i == 3 ? 2 : 3);
  if (i == 0 || i == 2 || i == 3) add_cdr("beta", i == 2 ? 3 : 2);
  return snap;
}

std::unique_ptr<SpateFramework> MakeStore(LeafLayout layout) {
  SpateOptions options;
  options.leaf_layout = layout;
  auto store = std::make_unique<SpateFramework>(options, CellRows());
  for (int i = 0; i < kEpochs; ++i) {
    Status st = store->Ingest(Epoch(i));
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return store;
}

class SqlPlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    row_ = MakeStore(LeafLayout::kRow).release();
    col_ = MakeStore(LeafLayout::kColumnar).release();
  }

  static SpateFramework* row_;
  static SpateFramework* col_;
};

SpateFramework* SqlPlannerTest::row_ = nullptr;
SpateFramework* SqlPlannerTest::col_ = nullptr;

// Plans `sql`, checks the chosen access path, then checks the planner's
// core invariants: the planned result is bit-identical to the naive
// full-scan executor, and EXPLAIN's predicted decode is exact, hence also
// within the documented 2x bound.
void RunCase(SpateFramework& store, const std::string& sql,
             PlanScanKind want, QueryPlan* plan_out = nullptr) {
  SCOPED_TRACE(sql);
  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto plan = PlanSelect(store, *parsed);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->scan, want) << "chose " << PlanScanKindName(plan->scan);
  uint64_t actual = 0;
  auto planned = ExecutePlan(store, *plan, nullptr, &actual);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  auto naive = ExecuteSql(store, *parsed);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive->columns, planned->columns);
  EXPECT_EQ(naive->rows, planned->rows);
  if (plan->scan == PlanScanKind::kProjectedScan ||
      plan->scan == PlanScanKind::kRowScan) {
    EXPECT_EQ(plan->predicted_bytes, actual);
  } else {
    EXPECT_EQ(actual, 0u);
    EXPECT_EQ(plan->predicted_bytes, 0u);
  }
  if (actual > 0) {
    EXPECT_LE(plan->predicted_bytes, 2 * actual);
    EXPECT_LE(actual, 2 * plan->predicted_bytes);
  }
  if (plan_out != nullptr) *plan_out = *plan;
}

// The plan-choice matrix: predicate shape x leaf layout -> access path.
TEST_F(SqlPlannerTest, NarrowSelectPrefersProjectionOnColumnar) {
  const std::string sql =
      std::string("SELECT caller_id, duration FROM CDR WHERE ") + kWindow;
  // Row leaves decode fully either way: restriction cannot win, tie keeps
  // the plain scan. Columnar leaves decode 4 of 200 columns: projection wins.
  RunCase(*row_, sql, PlanScanKind::kRowScan);
  QueryPlan plan;
  RunCase(*col_, sql, PlanScanKind::kProjectedScan, &plan);
  EXPECT_LT(plan.cost_projected, plan.cost_row);
  EXPECT_EQ(plan.leaves, static_cast<size_t>(kEpochs));
  EXPECT_EQ(plan.leaves_skipped, 0u);
}

TEST_F(SqlPlannerTest, CellEqualityBecomesSpatialSkip) {
  const std::string sql =
      std::string("SELECT caller_id, duration FROM CDR WHERE ") + kWindow +
      " AND cell_id = 'beta'";
  // Epoch 1 holds only alpha traffic, so the degenerate box at beta's
  // coordinates proves one of the four leaves disjoint — enough to beat the
  // full scan even on row leaves.
  QueryPlan plan;
  RunCase(*row_, sql, PlanScanKind::kProjectedScan, &plan);
  EXPECT_EQ(plan.cell_restrict, "beta");
  EXPECT_EQ(plan.leaves, static_cast<size_t>(kEpochs));
  EXPECT_EQ(plan.leaves_skipped, 1u);
  RunCase(*col_, sql, PlanScanKind::kProjectedScan, &plan);
  EXPECT_EQ(plan.leaves_skipped, 1u);
}

TEST_F(SqlPlannerTest, BoxDisjointFromEveryLeafDecodesNothing) {
  const std::string sql =
      std::string("SELECT duration FROM CDR WHERE ") + kWindow +
      " AND cell_id = 'gamma'";
  // gamma is in the inventory but never in the data: every leaf is skipped,
  // predicted = actual = 0, and both engines agree on the empty result.
  for (SpateFramework* store : {row_, col_}) {
    QueryPlan plan;
    RunCase(*store, sql, PlanScanKind::kProjectedScan, &plan);
    EXPECT_EQ(plan.leaves_skipped, static_cast<size_t>(kEpochs));
    EXPECT_EQ(plan.predicted_bytes, 0u);
  }
}

TEST_F(SqlPlannerTest, SelectStarStillProjectsTableMaskOnColumnar) {
  const std::string sql = std::string("SELECT * FROM CDR WHERE ") + kWindow;
  // '*' needs every CDR column, but the NMS chunks of each columnar leaf
  // can still be masked out; on row leaves there is nothing to save.
  RunCase(*row_, sql, PlanScanKind::kRowScan);
  QueryPlan plan;
  RunCase(*col_, sql, PlanScanKind::kProjectedScan, &plan);
  EXPECT_LT(plan.cost_projected, plan.cost_row);
}

TEST_F(SqlPlannerTest, AlignedAggregateAnswersFromSummaries) {
  const std::string grouped =
      std::string("SELECT cell_id, COUNT(*), SUM(duration), MIN(duration), "
                  "MAX(upflux) FROM CDR WHERE ") +
      kWindow + " GROUP BY cell_id";
  const std::string ungrouped =
      std::string("SELECT AVG(duration), COUNT(*) FROM CDR WHERE ") + kWindow;
  const std::string nms_minmax =
      std::string("SELECT MIN(rssi), MAX(throughput) FROM NMS WHERE ") +
      kWindow;
  for (SpateFramework* store : {row_, col_}) {
    RunCase(*store, grouped, PlanScanKind::kSummaryAnswer);
    RunCase(*store, ungrouped, PlanScanKind::kSummaryAnswer);
    RunCase(*store, nms_minmax, PlanScanKind::kSummaryAnswer);
  }
}

TEST_F(SqlPlannerTest, SummaryIneligibleShapesFallBackToScans) {
  // DISTINCT needs the rows; SUM over a non-integer-fed metric would not be
  // bit-identical from summaries, so neither may use the highlight path.
  const std::string distinct =
      std::string("SELECT COUNT(DISTINCT caller_id) FROM CDR WHERE ") +
      kWindow;
  const std::string float_sum =
      std::string("SELECT SUM(throughput) FROM NMS WHERE ") + kWindow;
  RunCase(*row_, distinct, PlanScanKind::kRowScan);
  RunCase(*col_, distinct, PlanScanKind::kProjectedScan);
  RunCase(*row_, float_sum, PlanScanKind::kRowScan);
  RunCase(*col_, float_sum, PlanScanKind::kProjectedScan);
}

TEST_F(SqlPlannerTest, ContradictoryWindowIsAnEmptyScan) {
  const std::string sql =
      "SELECT duration FROM CDR WHERE ts >= '2017' AND ts < '2017'";
  RunCase(*row_, sql, PlanScanKind::kEmptyScan);
  RunCase(*col_, sql, PlanScanKind::kEmptyScan);
}

TEST_F(SqlPlannerTest, FromCellIsAnInventoryScan) {
  RunCase(*row_, "SELECT cell_id, region FROM CELL ORDER BY cell_id",
          PlanScanKind::kCellScan);
}

TEST_F(SqlPlannerTest, JoinedQueriesStayBitIdentical) {
  const std::string sql =
      std::string("SELECT CDR.cell_id, region, SUM(duration) FROM CDR JOIN "
                  "CELL ON CDR.cell_id = CELL.cell_id WHERE ") +
      kWindow + " GROUP BY CDR.cell_id ORDER BY CDR.cell_id";
  // Joins force full-width rows, so no projection — but planned execution
  // must still agree with the naive executor exactly.
  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (SpateFramework* store : {row_, col_}) {
    auto naive = ExecuteSql(*store, *parsed);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    auto planned = ExecutePlannedSql(*store, sql);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    EXPECT_EQ(naive->rows, planned->rows);
  }
}

TEST_F(SqlPlannerTest, ResultCacheServesTheSecondRun) {
  ResultCache cache;
  const std::string sql =
      std::string("SELECT caller_id, duration FROM CDR WHERE ") + kWindow;
  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok());

  auto first_plan = PlanSelect(*col_, *parsed, &cache);
  ASSERT_TRUE(first_plan.ok());
  EXPECT_EQ(first_plan->scan, PlanScanKind::kProjectedScan);
  uint64_t first_bytes = 0;
  auto first = ExecutePlan(*col_, *first_plan, &cache, &first_bytes);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first_bytes, 0u);

  auto second_plan = PlanSelect(*col_, *parsed, &cache);
  ASSERT_TRUE(second_plan.ok());
  EXPECT_EQ(second_plan->scan, PlanScanKind::kCacheServe);
  EXPECT_EQ(second_plan->predicted_bytes, 0u);
  uint64_t second_bytes = 0;
  auto second = ExecutePlan(*col_, *second_plan, &cache, &second_bytes);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second_bytes, 0u);
  EXPECT_EQ(first->columns, second->columns);
  EXPECT_EQ(first->rows, second->rows);
}

TEST_F(SqlPlannerTest, RowScanFeedsTheCacheToo) {
  ResultCache cache;
  const std::string sql = std::string("SELECT * FROM CDR WHERE ") + kWindow;
  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok());
  auto first_plan = PlanSelect(*row_, *parsed, &cache);
  ASSERT_TRUE(first_plan.ok());
  EXPECT_EQ(first_plan->scan, PlanScanKind::kRowScan);
  auto first = ExecutePlan(*row_, *first_plan, &cache, nullptr);
  ASSERT_TRUE(first.ok());
  auto second_plan = PlanSelect(*row_, *parsed, &cache);
  ASSERT_TRUE(second_plan.ok());
  EXPECT_EQ(second_plan->scan, PlanScanKind::kCacheServe);
  uint64_t bytes = 0;
  auto second = ExecutePlan(*row_, *second_plan, &cache, &bytes);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(bytes, 0u);
  EXPECT_EQ(first->rows, second->rows);
}

TEST_F(SqlPlannerTest, DecayedWindowFallsBackFromSummariesToScan) {
  auto store = MakeStore(LeafLayout::kColumnar);
  DecayPolicy policy;
  policy.full_resolution_seconds = 2 * kEpochSeconds;
  // Horizon = end-of-stream - 2 epochs: epochs 0 and 1 decay to summaries.
  EXPECT_EQ(store->RunDecay(policy, Base() + kEpochs * kEpochSeconds), 2u);

  const std::string sql =
      std::string("SELECT cell_id, COUNT(*), SUM(duration) FROM CDR WHERE ") +
      kWindow + " GROUP BY cell_id";
  auto parsed = ParseSql(sql);
  ASSERT_TRUE(parsed.ok());
  auto plan = PlanSelect(*store, *parsed);
  ASSERT_TRUE(plan.ok());
  // Summary-shaped, but the window is no longer fully resolved: the plan
  // must not pretend the highlight answer still covers the raw rows.
  EXPECT_TRUE(plan->summary_eligible);
  EXPECT_FALSE(plan->window_fully_resolved);
  EXPECT_EQ(plan->scan, PlanScanKind::kProjectedScan);
  EXPECT_EQ(plan->leaves, 2u);
  // Both engines see the same surviving leaves, so they still agree.
  auto naive = ExecuteSql(*store, *parsed);
  auto planned = ExecutePlan(*store, *plan);
  ASSERT_TRUE(naive.ok() && planned.ok());
  EXPECT_EQ(naive->rows, planned->rows);
}

// -- Prepared statements ----------------------------------------------------

TEST_F(SqlPlannerTest, PreparedStatementBindsAndMatchesLiterals) {
  auto prepared = PrepareStatement(
      "SELECT caller_id, duration FROM CDR WHERE cell_id = ? AND ts >= ? "
      "AND ts < ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->num_params, 3);
  auto bound =
      BindParams(*prepared, {"beta", "201603140000", "201603140200"});
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  auto plan = PlanSelect(*col_, *bound);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->scan, PlanScanKind::kProjectedScan);
  auto from_bound = ExecutePlan(*col_, *plan);
  ASSERT_TRUE(from_bound.ok());
  auto from_literals = ExecutePlannedSql(
      *col_, std::string("SELECT caller_id, duration FROM CDR WHERE "
                         "cell_id = 'beta' AND ") +
                 kWindow);
  ASSERT_TRUE(from_literals.ok());
  EXPECT_EQ(from_bound->rows, from_literals->rows);
}

TEST_F(SqlPlannerTest, PreparedStatementErrors) {
  auto prepared =
      PrepareStatement("SELECT duration FROM CDR WHERE cell_id = ?");
  ASSERT_TRUE(prepared.ok());
  EXPECT_EQ(prepared->num_params, 1);

  auto too_few = BindParams(*prepared, {});
  EXPECT_FALSE(too_few.ok());
  EXPECT_NE(too_few.status().ToString().find("parameter"), std::string::npos);

  // Executing with the placeholder still unbound must fail loudly, on both
  // the naive and the planned path.
  auto parsed = ParseSql("SELECT duration FROM CDR WHERE cell_id = ?");
  ASSERT_TRUE(parsed.ok());
  auto naive = ExecuteSql(*col_, *parsed);
  EXPECT_FALSE(naive.ok());
  EXPECT_NE(naive.status().ToString().find("unbound"), std::string::npos);
  auto planned = PlanSelect(*col_, *parsed);
  EXPECT_FALSE(planned.ok());
}

// -- Golden EXPLAIN snapshots -----------------------------------------------

std::string GoldenPath(const char* name) {
  return std::string(SPATE_SQL_GOLDEN_DIR "/") + name;
}

void CheckGolden(const char* name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("SPATE_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    out << actual;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — rerun with SPATE_UPDATE_GOLDENS=1 to create";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual)
      << "EXPLAIN output drifted from " << path
      << " — rerun with SPATE_UPDATE_GOLDENS=1 if the change is intended";
}

TEST_F(SqlPlannerTest, GoldenExplainProjectedScan) {
  auto explained = ExplainSql(
      *col_, std::string("EXPLAIN SELECT caller_id, duration FROM CDR "
                         "WHERE ") +
                 kWindow +
                 " AND cell_id = 'beta' ORDER BY duration DESC LIMIT 3");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  CheckGolden("explain_projected_scan.txt", explained->text);
}

TEST_F(SqlPlannerTest, GoldenExplainRowScan) {
  auto explained = ExplainSql(
      *row_, std::string("EXPLAIN SELECT * FROM CDR WHERE ") + kWindow);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  CheckGolden("explain_row_scan.txt", explained->text);
}

TEST_F(SqlPlannerTest, GoldenExplainSummaryAnswer) {
  auto explained = ExplainSql(
      *col_, std::string("EXPLAIN SELECT cell_id, COUNT(*), SUM(duration) "
                         "FROM CDR WHERE ") +
                 kWindow + " GROUP BY cell_id");
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  CheckGolden("explain_summary_answer.txt", explained->text);
}

TEST_F(SqlPlannerTest, GoldenExplainCacheServe) {
  ResultCache cache;
  const std::string sql =
      std::string("EXPLAIN SELECT upflux, downflux FROM CDR WHERE ") + kWindow;
  auto first = ExplainSql(*col_, sql, &cache);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = ExplainSql(*col_, sql, &cache);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  CheckGolden("explain_cache_serve.txt", second->text);
}

}  // namespace
}  // namespace spate
