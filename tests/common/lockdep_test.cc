#include "common/lockdep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "check/fsck.h"
#include "common/mutex.h"
#include "core/spate_framework.h"
#include "query/result_cache.h"
#include "telco/generator.h"

// TSan ships its own lock-order-inversion detector, so the tests that
// *deliberately* invert an order (or abort on self-deadlock) would fail a
// TSan run for the wrong reason; they skip themselves there. The clean-run
// and contention tests still execute under TSan, which is exactly where
// they earn their keep: they prove the instrumentation itself is race-free.
#if defined(__SANITIZE_THREAD__)
#define SPATE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPATE_TEST_TSAN 1
#endif
#endif
#ifndef SPATE_TEST_TSAN
#define SPATE_TEST_TSAN 0
#endif

namespace spate {
namespace {

bool HasEdge(const std::vector<std::pair<std::string, std::string>>& edges,
             const std::string& from, const std::string& to) {
  for (const auto& [f, t] : edges) {
    if (f == from && t == to) return true;
  }
  return false;
}

/// Every test starts from an empty order graph / violation list / stats.
/// (Registered site names survive the reset by design — live mutexes keep
/// their interned ids.)
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockdep::Enabled()) {
      GTEST_SKIP() << "lockdep compiled out (Release without "
                      "-DSPATE_LOCKDEP=ON)";
    }
    lockdep::ResetForTest();
  }
  void TearDown() override {
    if (lockdep::Enabled()) lockdep::ResetForTest();
  }
};

TEST_F(LockdepTest, NestedAcquisitionEstablishesAnOrderEdge) {
  Mutex a{"LockdepTest.A"};
  Mutex b{"LockdepTest.B"};
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  EXPECT_TRUE(lockdep::Report().clean());
  EXPECT_TRUE(HasEdge(lockdep::Edges(), "LockdepTest.A", "LockdepTest.B"));
  EXPECT_FALSE(HasEdge(lockdep::Edges(), "LockdepTest.B", "LockdepTest.A"));
}

// The tentpole acceptance test: two threads take the same pair of locks in
// opposite orders on a schedule that never actually deadlocks (the first
// thread is joined before the second starts). lockdep must still flag the
// inversion — deterministically, at acquire time, with the exact stable
// violation id — because the cycle exists in the *order graph* regardless
// of whether this run got unlucky enough to hang.
TEST_F(LockdepTest, OppositeOrderAcrossThreadsIsACycleViolation) {
#if SPATE_TEST_TSAN
  GTEST_SKIP() << "TSan's own inversion detector fires on this test";
#else
  Mutex a{"LockdepTest.A"};
  Mutex b{"LockdepTest.B"};

  std::thread first([&] {  // establishes A -> B
    a.Lock();
    b.Lock();
    b.Unlock();
    a.Unlock();
  });
  first.join();

  std::thread second([&] {  // B then A: closes the cycle, flagged here
    b.Lock();
    a.Lock();
    a.Unlock();
    b.Unlock();
  });
  second.join();

  const lockdep::LockdepReport report = lockdep::Report();
  ASSERT_TRUE(report.Detected(lockdep::kLockCycle)) << report.ToString();
  const auto violations = report.ViolationsFor(lockdep::kLockCycle);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0]->violation, "lock-cycle");
  EXPECT_EQ(violations[0]->object, "LockdepTest.B -> LockdepTest.A");
  EXPECT_NE(violations[0]->detail.find(
                "LockdepTest.A -> LockdepTest.B -> LockdepTest.A"),
            std::string::npos)
      << violations[0]->detail;

  // The cycle-closing edge stays out of the graph (it stays a DAG), and
  // re-running the inverted order does not re-report.
  EXPECT_FALSE(HasEdge(lockdep::Edges(), "LockdepTest.B", "LockdepTest.A"));
  b.Lock();
  a.Lock();
  a.Unlock();
  b.Unlock();
  EXPECT_EQ(lockdep::Report().ViolationsFor(lockdep::kLockCycle).size(), 1u);

  // An fsck run folds the finding in under the `lock-order` invariant.
  check::FsckReport fsck;
  check::AppendLockdep(&fsck);
  ASSERT_TRUE(fsck.Detected(check::kLockOrder));
  EXPECT_GT(fsck.lock_sites_checked, 0u);
  EXPECT_NE(fsck.ViolationsFor(check::kLockOrder)[0]->detail.find(
                "[lock-cycle]"),
            std::string::npos);
#endif
}

TEST_F(LockdepTest, LongerCycleThroughIntermediateRankIsDetected) {
#if SPATE_TEST_TSAN
  GTEST_SKIP() << "TSan's own inversion detector fires on this test";
#else
  Mutex a{"LockdepTest.A"};
  Mutex b{"LockdepTest.B"};
  Mutex c{"LockdepTest.C"};
  a.Lock();
  b.Lock();
  b.Unlock();
  a.Unlock();
  b.Lock();
  c.Lock();
  c.Unlock();
  b.Unlock();
  // C -> A closes A -> B -> C transitively, even though A and C were never
  // held together before.
  c.Lock();
  a.Lock();
  a.Unlock();
  c.Unlock();
  // Bind the report before taking violation pointers — they point into it.
  const lockdep::LockdepReport report = lockdep::Report();
  const auto violations = report.ViolationsFor(lockdep::kLockCycle);
  ASSERT_EQ(violations.size(), 1u) << report.ToString();
  EXPECT_EQ(violations[0]->object, "LockdepTest.C -> LockdepTest.A");
#endif
}

TEST_F(LockdepTest, TwoMutexesOfTheSameRankNestedIsASameRankViolation) {
#if SPATE_TEST_TSAN
  GTEST_SKIP() << "deliberate discipline violation; keep TSan runs quiet";
#else
  Mutex first{"LockdepTest.Peer"};
  Mutex second{"LockdepTest.Peer"};
  first.Lock();
  second.Lock();
  second.Unlock();
  first.Unlock();
  const lockdep::LockdepReport report = lockdep::Report();
  ASSERT_TRUE(report.Detected(lockdep::kLockSameRank)) << report.ToString();
  const auto violations = report.ViolationsFor(lockdep::kLockSameRank);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0]->violation, "lock-same-rank");
  EXPECT_EQ(violations[0]->object, "LockdepTest.Peer");
#endif
}

TEST_F(LockdepTest, UnnamedMutexesAreProfiledButAddNoOrderEdges) {
  Mutex named{"LockdepTest.Named"};
  Mutex unnamed;
  named.Lock();
  unnamed.Lock();
  unnamed.Unlock();
  named.Unlock();
  unnamed.Lock();
  named.Lock();
  named.Unlock();
  unnamed.Unlock();
  // Both orders were exercised; without a site there is no edge to invert.
  EXPECT_TRUE(lockdep::Report().clean());
  for (const auto& [from, to] : lockdep::Edges()) {
    EXPECT_NE(from, "<unnamed>");
    EXPECT_NE(to, "<unnamed>");
  }
  bool profiled = false;
  for (const lockdep::LockStats& s : lockdep::Stats()) {
    if (s.site == "<unnamed>") {
      profiled = true;
      EXPECT_GE(s.acquisitions, 2u);
    }
  }
  EXPECT_TRUE(profiled);
}

TEST_F(LockdepTest, ContentionIsChargedToTheBlockedSite) {
  Mutex mu{"LockdepTest.Contended"};
  std::atomic<bool> held{false};
  std::atomic<bool> attempting{false};
  std::thread holder([&] {
    mu.Lock();
    held.store(true);
    // Hold until the main thread is committed to blocking, plus a margin
    // that dwarfs the handful of instructions between its last store and
    // its try_lock.
    while (!attempting.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    mu.Unlock();
  });
  while (!held.load()) std::this_thread::yield();
  attempting.store(true);
  mu.Lock();
  mu.Unlock();
  holder.join();

  bool found = false;
  for (const lockdep::LockStats& s : lockdep::Stats()) {
    if (s.site != "LockdepTest.Contended") continue;
    found = true;
    EXPECT_EQ(s.acquisitions, 2u);
    EXPECT_GE(s.contended, 1u);
    EXPECT_GT(s.wait_seconds, 0.0);
    EXPECT_GT(s.hold_seconds, 0.0);
    EXPECT_GE(s.max_hold_seconds, 0.040);  // the holder slept 50 ms
  }
  EXPECT_TRUE(found);
  EXPECT_NE(lockdep::Dump().find("LockdepTest.Contended"),
            std::string::npos);
}

#if GTEST_HAS_DEATH_TEST
TEST_F(LockdepTest, ReacquiringAHeldMutexAbortsInsteadOfHanging) {
#if SPATE_TEST_TSAN
  GTEST_SKIP() << "death tests are unreliable under TSan";
#else
  Mutex mu{"LockdepTest.Self"};
  EXPECT_DEATH(
      {
        mu.Lock();
        mu.Lock();  // guaranteed hang without lockdep; abort with it
      },
      "self-deadlock");
  // The parent process never acquired; nothing held here.
#endif
}
#endif  // GTEST_HAS_DEATH_TEST

// The whole point of the discipline: a representative ingest + parallel
// query + failover + repair + fsck run over the real framework produces an
// empty lockdep report — and the fsck report it feeds carries no
// `lock-order` violations while confirming the pass looked at real sites.
TEST_F(LockdepTest, CleanFrameworkRunProducesAnEmptyReport) {
  TraceConfig config;
  config.days = 1;
  config.num_cells = 40;
  config.num_antennas = 12;
  config.num_users = 150;
  config.cdr_base_rate = 20;
  config.nms_per_cell = 1.0;
  TraceGenerator gen(config);

  SpateOptions options;
  options.dfs.block_size = 256 * 1024;
  options.parallelism.worker_count = 4;  // exercise pool + latch + DFS edges
  SpateFramework spate(options, gen.cells());
  for (Timestamp epoch : gen.EpochStarts()) {
    ASSERT_TRUE(spate.Ingest(gen.GenerateSnapshot(epoch)).ok());
  }

  // Exercise the ResultCache tier: a miss runs the framework and inserts,
  // the repeat is a hit.
  ResultCache cache;
  ExplorationQuery query;
  query.window_begin = config.start + 6 * 3600;
  query.window_end = config.start + 18 * 3600;
  ASSERT_FALSE(cache.Lookup(query, spate.cells()).has_value());
  auto result = spate.Execute(query);
  ASSERT_TRUE(result.ok());
  cache.Insert(query, *result, spate.last_scan_stats().bytes_decoded);
  ASSERT_TRUE(cache.Lookup(query, spate.cells()).has_value());

  // Failover: kill a datanode mid-life, scan through it, revive, repair.
  ASSERT_TRUE(spate.dfs().KillDatanode(0).ok());
  size_t scanned = 0;
  ASSERT_TRUE(spate
                  .ScanWindow(config.start, config.start + 86400,
                              [&](const Snapshot& s) { scanned += s.size(); })
                  .ok());
  EXPECT_GT(scanned, 0u);
  ASSERT_TRUE(spate.dfs().ReviveDatanode(0).ok());
  spate.dfs().RepairScan();

  const check::FsckReport fsck = spate.Fsck();
  EXPECT_FALSE(fsck.Detected(check::kLockOrder)) << fsck.ToString();
  EXPECT_GT(fsck.lock_sites_checked, 0u);

  const lockdep::LockdepReport report = lockdep::Report();
  EXPECT_TRUE(report.clean()) << report.ToString();

  // The always-exercised storage nesting showed up in the observed graph,
  // and its direction matches docs/LOCK_ORDER.md.
  EXPECT_TRUE(HasEdge(lockdep::Edges(), "Dfs.mu", "FaultInjector.mu"));
  EXPECT_FALSE(HasEdge(lockdep::Edges(), "FaultInjector.mu", "Dfs.mu"));
}

TEST(LockdepDisabledTest, QueryApiIsEmptyWhenCompiledOut) {
  if (lockdep::Enabled()) {
    GTEST_SKIP() << "this build is instrumented";
  }
  EXPECT_TRUE(lockdep::Report().clean());
  EXPECT_TRUE(lockdep::Stats().empty());
  EXPECT_TRUE(lockdep::Edges().empty());
  EXPECT_NE(lockdep::Dump().find("disabled"), std::string::npos);
  check::FsckReport report;
  check::AppendLockdep(&report);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.lock_sites_checked, 0u);
}

}  // namespace
}  // namespace spate
