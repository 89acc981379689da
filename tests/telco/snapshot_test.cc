#include "telco/snapshot.h"

#include <gtest/gtest.h>

#include "telco/generator.h"
#include "telco/schema.h"

namespace spate {
namespace {

TEST(SnapshotTest, EmptyRoundTrip) {
  Snapshot snapshot;
  snapshot.epoch_start = 1453476600;
  const std::string text = SerializeSnapshot(snapshot);
  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshot(text, &parsed).ok());
  EXPECT_EQ(parsed.epoch_start, 1453476600);
  EXPECT_TRUE(parsed.cdr.empty());
  EXPECT_TRUE(parsed.nms.empty());
}

TEST(SnapshotTest, RoundTripPreservesRows) {
  Snapshot snapshot;
  snapshot.epoch_start = 1453476600;
  snapshot.cdr.push_back({"201601221530", "u1", "u2", "c1", "VOICE", "10"});
  snapshot.cdr.push_back({"201601221531", "u3", "", "c2", "DATA", ""});
  snapshot.nms.push_back({"201601221545", "c1", "3", "40"});

  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshot(SerializeSnapshot(snapshot), &parsed).ok());
  ASSERT_EQ(parsed.cdr.size(), 2u);
  ASSERT_EQ(parsed.nms.size(), 1u);
  EXPECT_EQ(parsed.cdr[0][1], "u1");
  EXPECT_EQ(parsed.cdr[1][2], "");  // empty field preserved
  EXPECT_EQ(parsed.cdr[1][5], "");  // trailing empty field preserved
  EXPECT_EQ(parsed.nms[0][3], "40");
  EXPECT_EQ(parsed.size(), 3u);
}

TEST(SnapshotTest, GeneratedSnapshotRoundTrips) {
  TraceConfig config;
  config.days = 1;
  TraceGenerator gen(config);
  const Snapshot original = gen.GenerateSnapshot(config.start + 9 * 3600);
  ASSERT_GT(original.size(), 0u);

  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshot(SerializeSnapshot(original), &parsed).ok());
  EXPECT_EQ(parsed.epoch_start, original.epoch_start);
  ASSERT_EQ(parsed.cdr.size(), original.cdr.size());
  ASSERT_EQ(parsed.nms.size(), original.nms.size());
  for (size_t i = 0; i < original.cdr.size(); ++i) {
    EXPECT_EQ(parsed.cdr[i], original.cdr[i]) << "row " << i;
  }
  for (size_t i = 0; i < original.nms.size(); ++i) {
    EXPECT_EQ(parsed.nms[i], original.nms[i]) << "row " << i;
  }
}

TEST(SnapshotTest, ParseRejectsMissingHeader) {
  Snapshot parsed;
  EXPECT_TRUE(ParseSnapshot(Slice("#CDR 0\n#NMS 0\n"), &parsed).IsCorruption());
  EXPECT_TRUE(ParseSnapshot(Slice(""), &parsed).IsCorruption());
}

TEST(SnapshotTest, ParseRejectsBadTimestamp) {
  Snapshot parsed;
  EXPECT_TRUE(
      ParseSnapshot(Slice("#SPATE-SNAPSHOT banana\n#CDR 0\n#NMS 0\n"), &parsed)
          .IsCorruption());
}

TEST(SnapshotTest, ParseRejectsTruncatedSection) {
  Snapshot parsed;
  EXPECT_TRUE(ParseSnapshot(Slice("#SPATE-SNAPSHOT 201601221530\n#CDR 2\n"
                                  "a,b,c\n"),
                            &parsed)
                  .IsCorruption());
}

TEST(SnapshotTest, ParseRejectsBadCount) {
  Snapshot parsed;
  EXPECT_TRUE(ParseSnapshot(Slice("#SPATE-SNAPSHOT 201601221530\n#CDR x\n"),
                            &parsed)
                  .IsCorruption());
}

TEST(SnapshotTest, ParseRejectsImplausibleRowCount) {
  // Row counts are untrusted: one no text could hold must come back as
  // Corruption, not as an allocation sized from the header.
  Snapshot parsed;
  EXPECT_TRUE(ParseSnapshot(Slice("#SPATE-SNAPSHOT 201601221530\n"
                                  "#CDR 400000000000\na,b\n"),
                            &parsed)
                  .IsCorruption());
  EXPECT_TRUE(ParseSnapshot(Slice("#SPATE-SNAPSHOT 201601221530\n#CDR 0\n"
                                  "#NMS 400000000000\n"),
                            &parsed)
                  .IsCorruption());
}

TEST(SnapshotTest, ParseRowKeepsEmptyFields) {
  // Fields split on every comma, keeping empty ones, and an empty line is
  // a row of one empty field.
  Snapshot parsed;
  ASSERT_TRUE(ParseSnapshot(Slice("#SPATE-SNAPSHOT 201601221530\n#CDR 3\n"
                                  "a,b,,c,\n\n,\n#NMS 0\n"),
                            &parsed)
                  .ok());
  ASSERT_EQ(parsed.cdr.size(), 3u);
  EXPECT_EQ(parsed.cdr[0], (Record{"a", "b", "", "c", ""}));
  EXPECT_EQ(parsed.cdr[1], (Record{""}));
  EXPECT_EQ(parsed.cdr[2], (Record{"", ""}));
}

TEST(CellSerializationTest, RoundTrip) {
  std::vector<Record> cells = {
      {"c0001", "a0001", "100.0", "200.0", "LTE", "0", "500", "R01",
       "VendorA", "100"},
      {"c0002", "a0001", "150.0", "250.0", "LTE", "120", "500", "R01",
       "VendorB", "100"},
  };
  std::vector<Record> parsed;
  ASSERT_TRUE(ParseCells(SerializeCells(cells), &parsed).ok());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0], cells[0]);
  EXPECT_EQ(parsed[1], cells[1]);
}

}  // namespace
}  // namespace spate
