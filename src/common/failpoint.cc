#include "common/failpoint.h"

#include <algorithm>
#include <atomic>
#include <string>

namespace spate {
namespace failpoint {
namespace {

/// One registered site: immutable identity plus lock-free trigger state.
/// `remaining` encodes the armed mode: 0 = disarmed, -1 = fail-always,
/// n > 0 = countdown (the site trips when its decrement reaches zero, then
/// stays disarmed). All counters are relaxed — they are diagnostics, not
/// synchronization; the injected Status itself flows through the ordinary
/// return path of the instrumented function.
struct Site {
  std::string_view id;
  std::string_view description;
  /// 0 = disarmed, -1 = fail-always, n > 0 = countdown to the trip.
  std::atomic<int64_t> remaining;
  /// StatusCode to inject; meaningful only while armed (Arm stores it).
  std::atomic<int> code;
  std::atomic<uint64_t> passages;
  std::atomic<uint64_t> trips;
};

/// The registry: every SPATE_FAILPOINT site in src/, in id order (Find
/// binary-searches). tools/failscan.py cross-checks this table against the
/// macro sites in the sources and the reviewed manifest docs/FAILPOINTS.md —
/// adding a site means adding it in all three places or CI fails.
Site g_sites[] = {
    {"compress.chunked.decompress",
     "chunked-container decode entry (ChunkedDecompress)", {}, {}, {}, {}},
    {"compress.columnar.open",
     "columnar 0xCD container open (ColumnarReader::Open)", {}, {}, {}, {}},
    {"compress.envelope.open",
     "codec envelope parse on every decode (GetEnvelope)", {}, {}, {}, {}},
    {"core.ingest",
     "SpateFramework::Ingest snapshot admission", {}, {}, {}, {}},
    {"dfs.delete_file",
     "DFS file deletion (decay eviction path)", {}, {}, {}, {}},
    {"dfs.read_block",
     "DFS per-block replica read with failover", {}, {}, {}, {}},
    {"dfs.replicate",
     "RepairScan re-replication of one block", {}, {}, {}, {}},
    {"dfs.write_file",
     "DFS file write (leaf, summary, meta)", {}, {}, {}, {}},
    {"index.add_leaf",
     "temporal-index leaf insertion (ingest + recovery)", {}, {}, {}, {}},
    {"index.load.day_summary",
     "recovery load of one persisted day summary", {}, {}, {}, {}},
    {"index.load.leaf",
     "recovery load of one resident leaf blob", {}, {}, {}, {}},
    {"pool.submit",
     "bounded thread-pool admission (TrySubmit)", {}, {}, {}, {}},
    {"query.scan_scheduler.pass",
     "shared-pass launch boundary (ScanScheduler::RunPass)", {}, {}, {}, {}},
    {"serve.admission.admit",
     "per-tenant admission decision (AdmissionQueue)", {}, {}, {}, {}},
    {"serve.shard.dispatch",
     "scatter dispatch onto one shard's queue", {}, {}, {}, {}},
    {"sql.collect_statistics",
     "planner statistics collection over the window", {}, {}, {}, {}},
};

constexpr size_t kNumSites = sizeof(g_sites) / sizeof(g_sites[0]);

Site* Find(std::string_view id) {
  Site* begin = g_sites;
  Site* end = g_sites + kNumSites;
  Site* it = std::lower_bound(
      begin, end, id, [](const Site& site, std::string_view key) {
        return site.id < key;
      });
  if (it == end || it->id != id) return nullptr;
  return it;
}

FailpointInfo InfoOf(const Site& site) {
  FailpointInfo info;
  info.id = site.id;
  info.description = site.description;
  info.passages = site.passages.load(std::memory_order_relaxed);
  info.trips = site.trips.load(std::memory_order_relaxed);
  info.armed = site.remaining.load(std::memory_order_relaxed) != 0;
  return info;
}

}  // namespace

Status Check(std::string_view id) {
  Site* site = Find(id);
  if (site == nullptr) return Status::OK();
  site->passages.fetch_add(1, std::memory_order_relaxed);
  int64_t remaining = site->remaining.load(std::memory_order_relaxed);
  bool trip = false;
  while (remaining != 0 && !trip) {
    if (remaining < 0) {
      trip = true;  // fail-always: no state to race on
    } else if (site->remaining.compare_exchange_weak(
                   remaining, remaining - 1, std::memory_order_relaxed)) {
      // Countdown: exactly one passage observes the 1 -> 0 transition, so a
      // fail-once site trips exactly once even under concurrent passages.
      trip = remaining == 1;
      if (!trip) return Status::OK();
    }
  }
  if (!trip) return Status::OK();
  site->trips.fetch_add(1, std::memory_order_relaxed);
  const StatusCode code =
      static_cast<StatusCode>(site->code.load(std::memory_order_relaxed));
  return Status(code, "failpoint " + std::string(id) + ": injected " +
                          std::string(StatusCodeToString(code)));
}

Status Arm(std::string_view id, const Trigger& trigger) {
  Site* site = Find(id);
  if (site == nullptr) {
    return Status::InvalidArgument("failpoint: unknown id '" +
                                   std::string(id) + "'");
  }
  if (trigger.code == StatusCode::kOk) {
    return Status::InvalidArgument(
        "failpoint: cannot inject kOk at '" + std::string(id) + "'");
  }
  if (trigger.nth < 0) {
    return Status::InvalidArgument("failpoint: negative nth for '" +
                                   std::string(id) + "'");
  }
  site->code.store(static_cast<int>(trigger.code), std::memory_order_relaxed);
  site->remaining.store(trigger.nth == 0 ? -1 : trigger.nth,
                        std::memory_order_relaxed);
  return Status::OK();
}

Status Disarm(std::string_view id) {
  Site* site = Find(id);
  if (site == nullptr) {
    return Status::InvalidArgument("failpoint: unknown id '" +
                                   std::string(id) + "'");
  }
  site->remaining.store(0, std::memory_order_relaxed);
  return Status::OK();
}

void DisarmAll() {
  for (Site& site : g_sites) {
    site.remaining.store(0, std::memory_order_relaxed);
  }
}

void ResetCounters() {
  for (Site& site : g_sites) {
    site.passages.store(0, std::memory_order_relaxed);
    site.trips.store(0, std::memory_order_relaxed);
  }
}

std::vector<FailpointInfo> AllFailpoints() {
  std::vector<FailpointInfo> out;
  out.reserve(kNumSites);
  for (const Site& site : g_sites) out.push_back(InfoOf(site));
  return out;
}

Result<FailpointInfo> Get(std::string_view id) {
  Site* site = Find(id);
  if (site == nullptr) {
    return Status::InvalidArgument("failpoint: unknown id '" +
                                   std::string(id) + "'");
  }
  return InfoOf(*site);
}

}  // namespace failpoint
}  // namespace spate
