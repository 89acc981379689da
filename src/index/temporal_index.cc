#include "index/temporal_index.h"

#include "common/check.h"
#include "common/failpoint.h"

namespace spate {

std::string_view IndexLevelName(IndexLevel level) {
  switch (level) {
    case IndexLevel::kEpoch:
      return "epoch";
    case IndexLevel::kDay:
      return "day";
    case IndexLevel::kMonth:
      return "month";
    case IndexLevel::kYear:
      return "year";
    case IndexLevel::kRoot:
      return "root";
  }
  return "?";
}

double HighlightThreshold(IndexLevel level) {
  switch (level) {
    case IndexLevel::kEpoch:
    case IndexLevel::kDay:
      return 0.05;
    case IndexLevel::kMonth:
      return 0.02;
    case IndexLevel::kYear:
    case IndexLevel::kRoot:
      return 0.01;
  }
  return 0.05;
}

Status TemporalIndex::AddLeaf(LeafNode leaf) {
  // Before any structural mutation: an injected insertion failure leaves
  // the index exactly as it was (callers clean up the stored blob).
  SPATE_FAILPOINT("index.add_leaf");
  if (leaf.epoch_start <= newest_epoch_) {
    return Status::InvalidArgument(
        "incremence requires strictly increasing epochs (got " +
        FormatCompact(leaf.epoch_start) + " after " +
        FormatCompact(newest_epoch_) + ")");
  }
  const Timestamp year_start = TruncateToYear(leaf.epoch_start);
  const Timestamp month_start = TruncateToMonth(leaf.epoch_start);
  const Timestamp day_start = TruncateToDay(leaf.epoch_start);

  // Rightmost-path descent, creating dummy nodes as periods roll over.
  if (years_.empty() || years_.back().year_start != year_start) {
    years_.push_back(YearNode{year_start, {}, {}});
  }
  YearNode& year = years_.back();
  if (year.months.empty() || year.months.back().month_start != month_start) {
    year.months.push_back(MonthNode{month_start, {}, {}});
  }
  MonthNode& month = year.months.back();
  if (month.days.empty() || month.days.back().day_start != day_start) {
    month.days.push_back(DayNode{day_start, {}, {}});
  }
  DayNode& day = month.days.back();

  // Highlights module: fold the leaf summary up the rightmost path. The
  // paper batches this at period boundaries; merging incrementally yields
  // the same cube with the cost amortized per snapshot.
  day.summary.Merge(leaf.summary);
  month.summary.Merge(leaf.summary);
  year.summary.Merge(leaf.summary);
  root_summary_.Merge(leaf.summary);

  if (first_epoch_ < 0) first_epoch_ = leaf.epoch_start;
  newest_epoch_ = leaf.epoch_start;
  resident_leaf_bytes_ += leaf.stored_bytes;
  ++num_leaves_;
  // Recovery may insert placeholders for leaves lost to storage faults:
  // already decayed, so windows touching them degrade to summaries.
  if (leaf.decayed) ++num_decayed_;
  day.leaves.push_back(std::move(leaf));
#ifndef NDEBUG
  // Post-insert shape hook: the O(1) slice of `ShapeProblems()` covering
  // the node just touched (the full walk is fsck-time only).
  const LeafNode& inserted = day.leaves.back();
  SPATE_DCHECK_EQ(inserted.epoch_start, newest_epoch_);
  SPATE_DCHECK_EQ(TruncateToEpoch(inserted.epoch_start),
                  inserted.epoch_start);
  SPATE_DCHECK_EQ(TruncateToDay(inserted.epoch_start), day.day_start);
  if (day.leaves.size() >= 2) {
    SPATE_DCHECK_LT(day.leaves[day.leaves.size() - 2].epoch_start,
                    inserted.epoch_start);
  }
  SPATE_DCHECK_LE(day.leaves.size(), static_cast<size_t>(kEpochsPerDay));
#endif
  return Status::OK();
}

Status TemporalIndex::AddSealedDay(Timestamp day_start, NodeSummary summary) {
  if (day_start != TruncateToDay(day_start)) {
    return Status::InvalidArgument("sealed day must start at midnight");
  }
  if (day_start <= newest_epoch_) {
    return Status::InvalidArgument(
        "sealed day would land before the newest leaf");
  }
  const Timestamp year_start = TruncateToYear(day_start);
  const Timestamp month_start = TruncateToMonth(day_start);
  if (years_.empty() || years_.back().year_start != year_start) {
    years_.push_back(YearNode{year_start, {}, {}});
  }
  YearNode& year = years_.back();
  if (year.months.empty() || year.months.back().month_start != month_start) {
    year.months.push_back(MonthNode{month_start, {}, {}});
  }
  MonthNode& month = year.months.back();
  month.days.push_back(DayNode{day_start, {}, {}, /*sealed=*/true});
  DayNode& day = month.days.back();
  day.summary.Merge(summary);
  month.summary.Merge(summary);
  year.summary.Merge(summary);
  root_summary_.Merge(summary);
  // The whole day is decayed: nothing newer than its last epoch may be a
  // sealed day or an earlier leaf.
  newest_epoch_ = day_start + 86400 - kEpochSeconds;
  if (first_epoch_ < 0) first_epoch_ = day_start;
  if (decayed_until_ < day_start + 86400) decayed_until_ = day_start + 86400;
  return Status::OK();
}

CoveringNode TemporalIndex::FindCovering(Timestamp begin,
                                         Timestamp end) const {
  CoveringNode result;
  result.level = IndexLevel::kRoot;
  result.start = 0;
  result.summary = &root_summary_;
  if (begin >= end) return result;
  const Timestamp last = end - 1;

  if (TruncateToYear(begin) != TruncateToYear(last)) return result;
  for (const YearNode& year : years_) {
    if (year.year_start != TruncateToYear(begin)) continue;
    result.level = IndexLevel::kYear;
    result.start = year.year_start;
    result.summary = &year.summary;
    if (TruncateToMonth(begin) != TruncateToMonth(last)) return result;
    for (const MonthNode& month : year.months) {
      if (month.month_start != TruncateToMonth(begin)) continue;
      result.level = IndexLevel::kMonth;
      result.start = month.month_start;
      result.summary = &month.summary;
      if (TruncateToDay(begin) != TruncateToDay(last)) return result;
      for (const DayNode& day : month.days) {
        if (day.day_start == TruncateToDay(begin)) {
          result.level = IndexLevel::kDay;
          result.start = day.day_start;
          result.summary = &day.summary;
          return result;
        }
      }
      return result;
    }
    return result;
  }
  return result;
}

std::vector<const LeafNode*> TemporalIndex::LeavesInWindow(
    Timestamp begin, Timestamp end) const {
  std::vector<const LeafNode*> out;
  for (const YearNode& year : years_) {
    for (const MonthNode& month : year.months) {
      for (const DayNode& day : month.days) {
        if (day.day_start + 86400 <= begin || day.day_start >= end) continue;
        for (const LeafNode& leaf : day.leaves) {
          if (leaf.epoch_start + kEpochSeconds <= begin ||
              leaf.epoch_start >= end || leaf.decayed) {
            continue;
          }
          out.push_back(&leaf);
        }
      }
    }
  }
  return out;
}

NodeSummary TemporalIndex::SummarizeWindow(Timestamp begin,
                                           Timestamp end) const {
  NodeSummary out;
  for (const YearNode& year : years_) {
    for (const MonthNode& month : year.months) {
      // Whole month covered: use its roll-up directly. This also keeps
      // aggregates correct for months whose day nodes were pruned by the
      // second decay stage.
      const Timestamp month_end = FromCivil([&] {
        CivilTime ct = ToCivil(month.month_start);
        ct.month += 1;
        return ct;
      }());
      if (month.month_start >= begin && month_end <= end) {
        out.Merge(month.summary);
        continue;
      }
      for (const DayNode& day : month.days) {
        if (day.day_start + 86400 <= begin || day.day_start >= end) continue;
        if (day.day_start >= begin && day.day_start + 86400 <= end) {
          out.Merge(day.summary);  // whole day covered: use the roll-up
          continue;
        }
        for (const LeafNode& leaf : day.leaves) {
          if (leaf.epoch_start + kEpochSeconds <= begin ||
              leaf.epoch_start >= end) {
            continue;
          }
          out.Merge(leaf.summary);
        }
      }
    }
  }
  return out;
}

bool TemporalIndex::WindowFullyResolved(Timestamp begin, Timestamp end) const {
  // Anything overlapping the decayed prefix of the stream (including day
  // nodes pruned entirely by the second decay stage) lost full resolution.
  if (first_epoch_ >= 0 && begin < decayed_until_ && end > first_epoch_) {
    return false;
  }
  for (const YearNode& year : years_) {
    for (const MonthNode& month : year.months) {
      for (const DayNode& day : month.days) {
        if (day.day_start + 86400 <= begin || day.day_start >= end) continue;
        if (day.sealed) return false;
        for (const LeafNode& leaf : day.leaves) {
          if (leaf.epoch_start + kEpochSeconds <= begin ||
              leaf.epoch_start >= end) {
            continue;
          }
          if (leaf.decayed) return false;
        }
      }
    }
  }
  return true;
}

size_t TemporalIndex::Decay(const DecayPolicy& policy, Timestamp now,
                            const std::function<void(const LeafNode&)>& evict,
                            const std::function<void(const DayNode&)>& evict_day) {
  const Timestamp horizon = now - policy.full_resolution_seconds;
  size_t evicted = 0;
  // Stage 1 — Evict Oldest Individuals: walk leaves in time order, stop at
  // the horizon.
  bool done = false;
  for (YearNode& year : years_) {
    for (MonthNode& month : year.months) {
      for (DayNode& day : month.days) {
        for (LeafNode& leaf : day.leaves) {
          if (leaf.epoch_start + kEpochSeconds > horizon) {
            done = true;
            break;
          }
          if (decayed_until_ < leaf.epoch_start + kEpochSeconds) {
            decayed_until_ = leaf.epoch_start + kEpochSeconds;
          }
          if (leaf.decayed) continue;
          if (evict) evict(leaf);
          leaf.decayed = true;
          resident_leaf_bytes_ -= leaf.stored_bytes;
          leaf.stored_bytes = 0;
          ++num_decayed_;
          ++evicted;
        }
        if (done) break;
      }
      if (done) break;
    }
    if (done) break;
  }

  // Stage 2 — progressive loss of detail: prune whole day nodes past the
  // day-resolution horizon. Their summaries were already folded into the
  // month/year/root roll-ups at insertion time, so aggregate exploration
  // degrades to month resolution rather than disappearing.
  const Timestamp day_horizon =
      std::min(horizon - 86400,
               now - std::max(policy.day_resolution_seconds,
                              policy.full_resolution_seconds + 86400));
  for (YearNode& year : years_) {
    for (MonthNode& month : year.months) {
      while (!month.days.empty()) {
        DayNode& day = month.days.front();
        if (day.day_start + 86400 > day_horizon) break;
        // Only prune fully-decayed days (guaranteed by the horizon clamp,
        // but kept as a hard invariant).
        bool all_decayed = true;
        for (const LeafNode& leaf : day.leaves) all_decayed &= leaf.decayed;
        if (!all_decayed) break;
        if (evict_day) evict_day(day);
        if (decayed_until_ < day.day_start + 86400) {
          decayed_until_ = day.day_start + 86400;
        }
        ++num_pruned_days_;
        month.days.erase(month.days.begin());
      }
    }
  }
  return evicted;
}

std::vector<std::string> TemporalIndex::ShapeProblems() const {
  std::vector<std::string> problems;
  auto flag = [&problems](std::string message) {
    problems.push_back(std::move(message));
  };

  // Walk-derived replicas of the incremental counters.
  size_t walked_leaves = 0;
  size_t walked_decayed = 0;
  uint64_t walked_resident_bytes = 0;
  Timestamp walked_first = -1;
  Timestamp walked_newest = -1;
  // The global clock of the walk: every leaf epoch and sealed-day period
  // must start strictly after everything before it (the monotone-epochs /
  // open-rightmost-spine invariant — out-of-order nodes could only have
  // been inserted off the rightmost path).
  Timestamp last_seen = -1;

  Timestamp prev_year = -1;
  for (const YearNode& year : years_) {
    const std::string year_tag = "year " + FormatCompact(year.year_start);
    if (year.year_start != TruncateToYear(year.year_start)) {
      flag(year_tag + ": start not on a year boundary");
    }
    if (year.year_start <= prev_year) {
      flag(year_tag + ": out of order after " + FormatCompact(prev_year));
    }
    prev_year = year.year_start;
    if (year.months.size() > 12) {
      flag(year_tag + ": " + std::to_string(year.months.size()) + " months");
    }
    Timestamp prev_month = -1;
    for (const MonthNode& month : year.months) {
      const std::string month_tag =
          "month " + FormatCompact(month.month_start);
      if (month.month_start != TruncateToMonth(month.month_start)) {
        flag(month_tag + ": start not on a month boundary");
      }
      if (TruncateToYear(month.month_start) != year.year_start) {
        flag(month_tag + ": filed under the wrong " + year_tag);
      }
      if (month.month_start <= prev_month) {
        flag(month_tag + ": out of order after " + FormatCompact(prev_month));
      }
      prev_month = month.month_start;
      if (month.days.size() > 31) {
        flag(month_tag + ": " + std::to_string(month.days.size()) + " days");
      }
      Timestamp prev_day = -1;
      for (const DayNode& day : month.days) {
        const std::string day_tag = "day " + FormatCompact(day.day_start);
        if (day.day_start != TruncateToDay(day.day_start)) {
          flag(day_tag + ": start not on a day boundary");
        }
        if (TruncateToMonth(day.day_start) != month.month_start) {
          flag(day_tag + ": filed under the wrong " + month_tag);
        }
        if (day.day_start <= prev_day) {
          flag(day_tag + ": out of order after " + FormatCompact(prev_day));
        }
        prev_day = day.day_start;
        if (day.leaves.size() > static_cast<size_t>(kEpochsPerDay)) {
          flag(day_tag + ": " + std::to_string(day.leaves.size()) +
               " leaves");
        }
        if (day.sealed) {
          if (!day.leaves.empty()) {
            flag(day_tag + ": sealed but holds " +
                 std::to_string(day.leaves.size()) + " leaves");
          }
          if (day.day_start <= last_seen) {
            flag(day_tag + ": sealed day overlaps earlier nodes");
          }
          last_seen = day.day_start + 86400 - kEpochSeconds;
          if (walked_first < 0) walked_first = day.day_start;
          walked_newest = last_seen;
          continue;
        }
        for (const LeafNode& leaf : day.leaves) {
          const std::string leaf_tag =
              "leaf " + FormatCompact(leaf.epoch_start);
          if (leaf.epoch_start != TruncateToEpoch(leaf.epoch_start)) {
            flag(leaf_tag + ": start not on an epoch boundary");
          }
          if (TruncateToDay(leaf.epoch_start) != day.day_start) {
            flag(leaf_tag + ": filed under the wrong " + day_tag);
          }
          if (leaf.epoch_start <= last_seen) {
            flag(leaf_tag + ": out of order after " +
                 FormatCompact(last_seen));
          }
          last_seen = leaf.epoch_start;
          if (walked_first < 0) walked_first = leaf.epoch_start;
          walked_newest = leaf.epoch_start;
          ++walked_leaves;
          if (leaf.decayed) {
            ++walked_decayed;
            if (leaf.stored_bytes != 0) {
              flag(leaf_tag + ": decayed but still accounts " +
                   std::to_string(leaf.stored_bytes) + " stored bytes");
            }
          } else {
            walked_resident_bytes += leaf.stored_bytes;
          }
        }
      }
    }
  }

  // Counter agreement. Day-pruning (decay stage 2) removes nodes without
  // rewriting the historical leaf counters or `first_epoch_`, so those
  // checks relax to inequalities once any day was pruned.
  if (num_pruned_days_ == 0) {
    if (walked_leaves != num_leaves_) {
      flag("num_leaves() says " + std::to_string(num_leaves_) +
           " but the tree holds " + std::to_string(walked_leaves));
    }
    if (walked_decayed != num_decayed_) {
      flag("num_decayed() says " + std::to_string(num_decayed_) +
           " but the tree holds " + std::to_string(walked_decayed));
    }
    if (walked_first != first_epoch_) {
      flag("first_epoch() says " + FormatCompact(first_epoch_) +
           " but the oldest node starts " + FormatCompact(walked_first));
    }
  } else {
    if (walked_leaves > num_leaves_) {
      flag("tree holds more leaves than num_leaves() ever counted");
    }
    if (first_epoch_ >= 0 && walked_first >= 0 &&
        walked_first < first_epoch_) {
      flag("a node predates first_epoch()");
    }
  }
  if (walked_resident_bytes != resident_leaf_bytes_) {
    flag("resident_leaf_bytes() says " +
         std::to_string(resident_leaf_bytes_) + " but live leaves hold " +
         std::to_string(walked_resident_bytes));
  }
  if (walked_newest != newest_epoch_) {
    flag("newest_epoch() says " + FormatCompact(newest_epoch_) +
         " but the rightmost node ends " + FormatCompact(walked_newest));
  }
  return problems;
}

}  // namespace spate
