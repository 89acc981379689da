#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <string>

#include "common/status.h"

namespace spate {
namespace {

// The registry API (Arm/Check/counters) is compiled in every build; only
// the SPATE_FAILPOINT site macros compile out in uninstrumented Release.
// These tests drive Check() directly, so they run everywhere; the walker
// test (failpoint_walk_test.cc) is the one that needs instrumented sites.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    failpoint::ResetCounters();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    failpoint::ResetCounters();
  }
};

TEST_F(FailpointTest, RegistryEnumeratesSortedUniqueIds) {
  const auto all = failpoint::AllFailpoints();
  ASSERT_GE(all.size(), 15u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_FALSE(all[i].id.empty());
    EXPECT_FALSE(all[i].description.empty());
    EXPECT_FALSE(all[i].armed);
    EXPECT_EQ(all[i].passages, 0u);
    EXPECT_EQ(all[i].trips, 0u);
    if (i > 0) {
      EXPECT_LT(all[i - 1].id, all[i].id) << "registry not sorted";
    }
  }
}

TEST_F(FailpointTest, UnknownIdsAreRejectedByArmDisarmGetButPassCheck) {
  failpoint::Trigger trigger;
  EXPECT_TRUE(failpoint::Arm("no.such.site", trigger).IsInvalidArgument());
  EXPECT_TRUE(failpoint::Disarm("no.such.site").IsInvalidArgument());
  EXPECT_FALSE(failpoint::Get("no.such.site").ok());
  // Check() tolerates unknown ids: the static gate (failscan) rejects
  // unregistered sites, the runtime must not crash on one.
  EXPECT_TRUE(failpoint::Check("no.such.site").ok());
}

TEST_F(FailpointTest, ArmRejectsOkCodeAndNegativeCountdown) {
  failpoint::Trigger ok_code;
  ok_code.code = StatusCode::kOk;
  EXPECT_TRUE(failpoint::Arm("dfs.read_block", ok_code).IsInvalidArgument());

  failpoint::Trigger negative;
  negative.nth = -1;
  EXPECT_TRUE(failpoint::Arm("dfs.read_block", negative).IsInvalidArgument());
}

TEST_F(FailpointTest, FailOnceTripsExactlyTheFirstPassage) {
  failpoint::Trigger trigger;
  trigger.code = StatusCode::kCorruption;
  trigger.nth = 1;
  ASSERT_TRUE(failpoint::Arm("dfs.read_block", trigger).ok());

  const Status tripped = failpoint::Check("dfs.read_block");
  EXPECT_TRUE(tripped.IsCorruption());
  EXPECT_NE(std::string(tripped.message()).find("dfs.read_block"),
            std::string::npos);
  EXPECT_NE(std::string(tripped.message()).find("Corruption"),
            std::string::npos);

  // Auto-disarmed: the next passage sails through.
  EXPECT_TRUE(failpoint::Check("dfs.read_block").ok());

  const auto info = failpoint::Get("dfs.read_block");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->passages, 2u);
  EXPECT_EQ(info->trips, 1u);
  EXPECT_FALSE(info->armed);
}

TEST_F(FailpointTest, NthModePassesUntilTheNthPassage) {
  failpoint::Trigger trigger;
  trigger.code = StatusCode::kUnavailable;
  trigger.nth = 3;
  ASSERT_TRUE(failpoint::Arm("dfs.write_file", trigger).ok());

  EXPECT_TRUE(failpoint::Check("dfs.write_file").ok());
  EXPECT_TRUE(failpoint::Check("dfs.write_file").ok());
  EXPECT_TRUE(failpoint::Check("dfs.write_file").IsUnavailable());
  EXPECT_TRUE(failpoint::Check("dfs.write_file").ok());  // auto-disarmed

  const auto info = failpoint::Get("dfs.write_file");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->passages, 4u);
  EXPECT_EQ(info->trips, 1u);
}

TEST_F(FailpointTest, AlwaysModeTripsEveryPassageUntilDisarm) {
  failpoint::Trigger trigger;
  trigger.code = StatusCode::kIOError;
  trigger.nth = 0;  // fail-always
  ASSERT_TRUE(failpoint::Arm("pool.submit", trigger).ok());

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(failpoint::Check("pool.submit").code(), StatusCode::kIOError)
        << i;
  }
  ASSERT_TRUE(failpoint::Disarm("pool.submit").ok());
  EXPECT_TRUE(failpoint::Check("pool.submit").ok());

  const auto info = failpoint::Get("pool.submit");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->passages, 5u);
  EXPECT_EQ(info->trips, 4u);
  EXPECT_FALSE(info->armed);
}

TEST_F(FailpointTest, RearmingResetsTheCountdownButNotTheCounters) {
  failpoint::Trigger trigger;
  trigger.nth = 2;
  ASSERT_TRUE(failpoint::Arm("core.ingest", trigger).ok());
  EXPECT_TRUE(failpoint::Check("core.ingest").ok());  // 1 of 2

  // Re-arm at nth=2: the earlier passage must not count toward the new
  // countdown.
  ASSERT_TRUE(failpoint::Arm("core.ingest", trigger).ok());
  EXPECT_TRUE(failpoint::Check("core.ingest").ok());
  EXPECT_FALSE(failpoint::Check("core.ingest").ok());

  const auto info = failpoint::Get("core.ingest");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->passages, 3u);  // lifetime counters survive re-arming
  EXPECT_EQ(info->trips, 1u);
}

TEST_F(FailpointTest, DisarmAllDisarmsEverything) {
  failpoint::Trigger trigger;
  trigger.nth = 0;
  ASSERT_TRUE(failpoint::Arm("dfs.read_block", trigger).ok());
  ASSERT_TRUE(failpoint::Arm("index.add_leaf", trigger).ok());
  failpoint::DisarmAll();
  EXPECT_TRUE(failpoint::Check("dfs.read_block").ok());
  EXPECT_TRUE(failpoint::Check("index.add_leaf").ok());
  for (const auto& info : failpoint::AllFailpoints()) {
    EXPECT_FALSE(info.armed) << info.id;
  }
}

TEST_F(FailpointTest, ResetCountersZeroesCountersWithoutDisarming) {
  failpoint::Trigger trigger;
  trigger.nth = 0;
  ASSERT_TRUE(failpoint::Arm("sql.collect_statistics", trigger).ok());
  EXPECT_FALSE(failpoint::Check("sql.collect_statistics").ok());

  failpoint::ResetCounters();
  auto info = failpoint::Get("sql.collect_statistics");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->passages, 0u);
  EXPECT_EQ(info->trips, 0u);
  EXPECT_TRUE(info->armed);  // still armed — reset touches counters only
  EXPECT_FALSE(failpoint::Check("sql.collect_statistics").ok());
}

Status GuardedOperation() {
  SPATE_FAILPOINT("dfs.read_block");
  return Status::OK();
}

Result<int> GuardedResultOperation() {
  SPATE_FAILPOINT("dfs.read_block");
  return 42;
}

TEST_F(FailpointTest, SiteMacroMatchesTheEnabledPredicate) {
  failpoint::Trigger trigger;
  trigger.code = StatusCode::kIOError;
  trigger.nth = 0;
  ASSERT_TRUE(failpoint::Arm("dfs.read_block", trigger).ok());
  if (failpoint::Enabled()) {
    EXPECT_EQ(GuardedOperation().code(), StatusCode::kIOError);
    const auto via_result = GuardedResultOperation();
    ASSERT_FALSE(via_result.ok());  // Result<T> converts the injected Status
    EXPECT_EQ(via_result.status().code(), StatusCode::kIOError);
  } else {
    // Compiled out: the armed site is invisible — no passage, no trip.
    EXPECT_TRUE(GuardedOperation().ok());
    EXPECT_EQ(GuardedResultOperation().value(), 42);
    const auto info = failpoint::Get("dfs.read_block");
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->passages, 0u);
  }
}

TEST_F(FailpointTest, InjectMacroOverridesALocalStatus) {
  failpoint::Trigger trigger;
  trigger.code = StatusCode::kUnavailable;
  trigger.nth = 0;
  ASSERT_TRUE(failpoint::Arm("index.load.leaf", trigger).ok());
  Status status = Status::OK();
  SPATE_FAILPOINT_INJECT("index.load.leaf", status);
  if (failpoint::Enabled()) {
    EXPECT_TRUE(status.IsUnavailable());
  } else {
    EXPECT_TRUE(status.ok());
  }
}

TEST_F(FailpointTest, HitMacroReportsBooleanTrips) {
  failpoint::Trigger trigger;
  trigger.nth = 1;
  ASSERT_TRUE(failpoint::Arm("pool.submit", trigger).ok());
  if (failpoint::Enabled()) {
    EXPECT_TRUE(SPATE_FAILPOINT_HIT("pool.submit"));
    EXPECT_FALSE(SPATE_FAILPOINT_HIT("pool.submit"));  // auto-disarmed
  } else {
    EXPECT_FALSE(SPATE_FAILPOINT_HIT("pool.submit"));
  }
}

}  // namespace
}  // namespace spate
