// Multi-host fleet orchestration tests (RESILIENCE.md "Fleet"): placement
// and admission, migration retry/abort behaviour under stream-drop
// windows, evacuation audit trails, SLO rebalancing, controller
// supervision, seeded two-run determinism of the campaign driver, and the
// create/destroy churn regressions that motivated image reclamation in
// BlkBack (a migration-heavy fleet is an image-churn machine). The
// workload test follows a guest's request loop across a move.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/base/audit_log.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"
#include "src/fault/fault.h"
#include "src/fleet/fleet.h"
#include "src/fleet/scenarios.h"
#include "src/fleet/workload.h"

namespace xoar {
namespace {

GuestSpec SmallGuest(const std::string& name, const std::string& tenant) {
  GuestSpec spec;
  spec.name = name;
  spec.memory_mb = 192;
  spec.vcpus = 1;
  spec.tenant = tenant;
  return spec;
}

// Boots a fleet, places `guests` small same-sized guests striped over
// `tenants` tenant labels, and settles every host so the split-driver
// handshakes are done before the test starts migrating things.
class FleetFixture {
 public:
  explicit FleetFixture(FleetConfig config) : fleet_(std::move(config)) {}

  Status Populate(int guests, int tenants, double net_bps = 40e6) {
    XOAR_RETURN_IF_ERROR(fleet_.Boot());
    for (int g = 0; g < guests; ++g) {
      StatusOr<FleetGuestId> id = fleet_.CreateGuest(
          SmallGuest(StrFormat("web-%d", g),
                     StrFormat("tenant-%d", g % std::max(1, tenants))),
          net_bps);
      XOAR_RETURN_IF_ERROR(id.status());
      ids_.push_back(*id);
    }
    for (int i = 0; i < fleet_.host_count(); ++i) {
      fleet_.host(i).Settle();
    }
    fleet_.SyncClocks();
    return Status::Ok();
  }

  Fleet& fleet() { return fleet_; }
  const std::vector<FleetGuestId>& ids() const { return ids_; }

 private:
  Fleet fleet_;
  std::vector<FleetGuestId> ids_;
};

// Arms a single wall-to-wall migration-stream-drop window on `host`'s
// injector, opening 1 ms from now.
void ArmDropWindow(Fleet& fleet, int host, SimDuration duration,
                   std::uint64_t seed) {
  FaultSpec spec;
  spec.type = FaultType::kMigrationStreamDrop;
  spec.at = fleet.Now() + 1 * kMillisecond;
  spec.duration = duration;
  spec.probability = 1.0;
  FaultPlan plan;
  plan.Add(spec);
  plan.set_seed(seed);
  fleet.injector(host)->Arm(plan);
}

// --- Placement & admission ---

TEST(FleetPlacementTest, AntiAffinitySpreadsTenantGuestsAcrossHosts) {
  FleetConfig config;
  config.hosts = 4;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(0, 1).ok());

  // One tenant, four guests, four hosts: anti-affinity must put each on a
  // distinct host before doubling up anywhere.
  std::set<int> hosts;
  for (int g = 0; g < 4; ++g) {
    StatusOr<FleetGuestId> id =
        fx.fleet().CreateGuest(SmallGuest(StrFormat("a-%d", g), "acme"), 1e6);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    hosts.insert(fx.fleet().guest(*id)->host);
  }
  EXPECT_EQ(hosts.size(), 4u);

  // A second round lands one more per host: never 3-vs-1.
  for (int g = 4; g < 8; ++g) {
    ASSERT_TRUE(
        fx.fleet()
            .CreateGuest(SmallGuest(StrFormat("a-%d", g), "acme"), 1e6)
            .ok());
  }
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(fx.fleet().GuestsOnHost(h).size(), 2u) << "host " << h;
  }
  EXPECT_EQ(fx.fleet().CheckInvariants().violations(), 0u);
}

TEST(FleetPlacementTest, AdmissionShedsGuestNoHostCanAbsorb) {
  FleetConfig config;
  config.hosts = 2;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(2, 2).ok());

  GuestSpec whale = SmallGuest("whale", "acme");
  whale.memory_mb = 64 * 1024;  // no 4 GB host can hold this
  StatusOr<FleetGuestId> shed = fx.fleet().CreateGuest(whale, 0);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(fx.fleet().guest_count(), 2);
  EXPECT_EQ(
      fx.fleet().metrics().GetCounter("fleet.admission.shed")->value(), 1u);
  EXPECT_EQ(fx.fleet().CheckInvariants().violations(), 0u);
}

// --- Migration orchestration ---

TEST(FleetMigrationTest, RetriesOutwaitStreamDropWindow) {
  FleetConfig config;
  config.hosts = 2;
  config.migration.dirty_rate_bytes_per_sec = 24e6;
  config.migration_backoff.initial_delay = 120 * kMillisecond;
  config.migration_backoff.max_delay = 1 * kSecond;
  config.migration_attempts = 6;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(1, 1).ok());

  const FleetGuestId guest = fx.ids()[0];
  const int src = fx.fleet().guest(guest)->host;
  const int dest = 1 - src;
  // The stream hook is polled at round boundaries, and round 1 of a 192 MB
  // guest over a ~112 MB/s stream takes ~1.8 s — the window has to cover
  // that first boundary to bite. 3 s does; the 120+240+480+960+1000 ms of
  // cumulative backoff then carries a later attempt clear of it.
  ArmDropWindow(fx.fleet(), src, 3 * kSecond, /*seed=*/7);

  StatusOr<Fleet::MigrateStats> stats = fx.fleet().MigrateGuest(guest, dest);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->moved);
  EXPECT_GE(stats->attempts, 2);
  EXPECT_GE(stats->stream_drop_aborts, 1);
  EXPECT_EQ(fx.fleet().guest(guest)->host, dest);
  EXPECT_GE(fx.fleet().TotalInjected(FaultType::kMigrationStreamDrop), 1u);
  EXPECT_EQ(fx.fleet().CheckInvariants().violations(), 0u);
}

TEST(FleetMigrationTest, ExhaustionLeavesGuestRunningOnSourceWithoutLeaks) {
  FleetConfig config;
  config.hosts = 2;
  config.migration.dirty_rate_bytes_per_sec = 24e6;
  config.migration_attempts = 3;  // 8+16 ms of backoff: stays in-window
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(1, 1).ok());

  const FleetGuestId guest = fx.ids()[0];
  const int src = fx.fleet().guest(guest)->host;
  const int dest = 1 - src;
  // A window no retry schedule can out-wait: every attempt must abort, and
  // every abort must tear the half-built destination domain down.
  ArmDropWindow(fx.fleet(), src, 60 * kSecond, /*seed=*/7);

  StatusOr<Fleet::MigrateStats> stats = fx.fleet().MigrateGuest(guest, dest);
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(fx.fleet().guest(guest)->host, src);
  EXPECT_GE(
      fx.fleet().metrics().GetCounter("fleet.migrations.failed")->value(), 1u);
  // The invariant checker reconciles fleet records against both hosts'
  // live-domain tables — a leaked destination shell would show up here.
  EXPECT_EQ(fx.fleet().CheckInvariants().violations(), 0u);
}

// --- Evacuation ---

TEST(FleetEvacuationTest, DrainsHostAndAuditsStartAndCompletion) {
  FleetConfig config;
  config.hosts = 3;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(6, 3).ok());

  const int victim = 1;
  const std::size_t before = fx.fleet().GuestsOnHost(victim).size();
  ASSERT_GE(before, 1u);

  Fleet::EvacuationStats stats = fx.fleet().EvacuateHost(victim);
  EXPECT_EQ(stats.moved, static_cast<int>(before));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_TRUE(fx.fleet().GuestsOnHost(victim).empty());

  bool started = false, completed = false;
  for (const AuditEvent& event : fx.fleet().audit().events()) {
    started |= event.kind == AuditEventKind::kEvacuationStarted;
    completed |= event.kind == AuditEventKind::kEvacuationCompleted;
  }
  EXPECT_TRUE(started);
  EXPECT_TRUE(completed);
  EXPECT_EQ(fx.fleet().audit().FirstCorruptedRecord(), -1);
  EXPECT_EQ(fx.fleet().CheckInvariants().violations(), 0u);
}

// The workload holds each guest's host simulator and frontends, and the
// fleet's resume after a move re-binds them. After an evacuation every
// request the guest sends must go through the destination host's
// backends, and the tick its loop left scheduled on the source must fire
// inert: a second live tick chain would double the request rate.
TEST(FleetWorkloadTest, EvacuatedGuestSendsOnlyThroughItsDestination) {
  FleetConfig config;
  config.hosts = 2;
  config.migration.dirty_rate_bytes_per_sec = 24e6;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(1, 1).ok());
  Fleet& fleet = fx.fleet();
  FleetWorkload workload(&fleet);
  fleet.set_quiescer(&workload);
  const FleetGuestId guest = fx.ids()[0];
  ASSERT_TRUE(workload.Attach(guest).ok());

  const SimDuration window = 200 * kMillisecond;
  fleet.AdvanceAll(window);
  const std::uint64_t issued_before_move = workload.issued();
  ASSERT_GT(issued_before_move, 0u);
  const FleetGuestRecord before = *fleet.guest(guest);
  NetBack* src_net = fleet.host(before.host).netback_of(before.domain);
  BlkBack* src_blk = fleet.host(before.host).blkback_of(before.domain);
  ASSERT_NE(src_net, nullptr);
  ASSERT_NE(src_blk, nullptr);
  ASSERT_GT(src_net->frames_forwarded(), 0u);

  const Fleet::EvacuationStats stats = fleet.EvacuateHost(before.host);
  ASSERT_EQ(stats.moved, 1);
  const FleetGuestRecord after = *fleet.guest(guest);
  ASSERT_NE(after.host, before.host);
  NetBack* dest_net = fleet.host(after.host).netback_of(after.domain);
  BlkBack* dest_blk = fleet.host(after.host).blkback_of(after.domain);
  ASSERT_NE(dest_net, nullptr);
  ASSERT_NE(dest_blk, nullptr);
  const std::uint64_t src_frames = src_net->frames_forwarded();
  const std::uint64_t src_requests = src_blk->requests_served();
  const std::uint64_t dest_frames = dest_net->frames_forwarded();
  const std::uint64_t dest_requests = dest_blk->requests_served();
  const std::uint64_t issued = workload.issued();
  const std::uint64_t ok = workload.ok();

  fleet.AdvanceAll(window);
  workload.Detach(guest);
  fleet.AdvanceAll(window);  // the last requests complete
  const std::uint64_t issued_after_move = workload.issued() - issued;
  EXPECT_GT(issued_after_move, 0u);
  // Same window, same tick period: at most the one block write more.
  EXPECT_LE(issued_after_move, issued_before_move + 1);
  EXPECT_EQ(workload.ok() - ok, issued_after_move);
  EXPECT_EQ(workload.total_pending(), 0);
  EXPECT_EQ(src_net->frames_forwarded(), src_frames);
  EXPECT_EQ(src_blk->requests_served(), src_requests);
  EXPECT_EQ((dest_net->frames_forwarded() - dest_frames) +
                (dest_blk->requests_served() - dest_requests),
            issued_after_move);
  EXPECT_EQ(fleet.CheckInvariants().violations(), 0u);
}

// A migration quiesces and resumes the guest's loop. A guest detached
// before the move must stay detached: resume restarts only a loop that was
// running when the quiesce stopped it.
TEST(FleetWorkloadTest, DetachedGuestStaysStoppedAcrossMigration) {
  FleetConfig config;
  config.hosts = 2;
  config.migration.dirty_rate_bytes_per_sec = 24e6;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(1, 1).ok());
  Fleet& fleet = fx.fleet();
  FleetWorkload workload(&fleet);
  fleet.set_quiescer(&workload);
  const FleetGuestId guest = fx.ids()[0];
  ASSERT_TRUE(workload.Attach(guest).ok());
  fleet.AdvanceAll(100 * kMillisecond);
  workload.Detach(guest);
  fleet.AdvanceAll(100 * kMillisecond);  // the last requests complete
  const std::uint64_t issued = workload.issued();
  ASSERT_GT(issued, 0u);
  ASSERT_EQ(workload.total_pending(), 0);

  const int source = fleet.guest(guest)->host;
  StatusOr<Fleet::MigrateStats> moved =
      fleet.MigrateGuest(guest, 1 - source);
  ASSERT_TRUE(moved.ok()) << moved.status().ToString();
  ASSERT_NE(fleet.guest(guest)->host, source);
  fleet.AdvanceAll(100 * kMillisecond);
  EXPECT_EQ(workload.issued(), issued);
  EXPECT_EQ(workload.total_pending(), 0);
}

// --- Rebalancing ---

TEST(FleetRebalanceTest, SpikeRebalanceReducesLoadSpread) {
  FleetConfig config;
  config.hosts = 3;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(6, 3).ok());

  // Traffic spike: re-price every guest on host 2 to 6x demand.
  for (FleetGuestId id : fx.fleet().GuestsOnHost(2)) {
    ASSERT_TRUE(fx.fleet().SetNetDemand(id, 240e6).ok());
  }
  double max_before = 0, min_before = 1e9;
  for (int h = 0; h < fx.fleet().host_count(); ++h) {
    max_before = std::max(max_before, fx.fleet().HostLoadFraction(h));
    min_before = std::min(min_before, fx.fleet().HostLoadFraction(h));
  }
  const double spread_before = max_before - min_before;
  ASSERT_GT(spread_before, 0.18);

  const int moves = fx.fleet().Rebalance(0.18);
  EXPECT_GE(moves, 1);
  double max_after = 0, min_after = 1e9;
  for (int h = 0; h < fx.fleet().host_count(); ++h) {
    max_after = std::max(max_after, fx.fleet().HostLoadFraction(h));
    min_after = std::min(min_after, fx.fleet().HostLoadFraction(h));
  }
  EXPECT_LT(max_after - min_after, spread_before);
  EXPECT_EQ(fx.fleet().CheckInvariants().violations(), 0u);
}

// --- Controller supervision ---

TEST(FleetControllerTest, ControllerIsSupervisedByHostZeroWatchdog) {
  FleetConfig config;
  config.hosts = 2;
  FleetFixture fx(config);
  ASSERT_TRUE(fx.Populate(0, 1).ok());

  EXPECT_TRUE(fx.fleet().controller_supervised());
  Fleet::InvariantReport report = fx.fleet().CheckInvariants();
  EXPECT_EQ(report.controller_failures, 0u);
  EXPECT_EQ(
      fx.fleet().metrics().GetGauge("fleet.controller.supervised")->value(),
      1.0);
}

// --- Determinism (satellite: two-run byte-identical campaign export) ---

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FleetDeterminismTest, EvacuationCampaignExportIsByteIdentical) {
  FleetScenarioOptions options;
  options.seed = 7;
  options.hosts = 4;
  options.tenants = 4;
  options.guests_per_host = 2;
  options.victim_host = 1;
  options.campaign_faults = 6;
  options.campaign_migration_drops = 2;
  options.campaign_seconds = 2.0;
  options.run_wave = false;
  options.run_storm_wave = false;
  options.run_rebalance = false;

  // Per-process filenames in the test temp dir: the plain and ASan builds
  // of this test run under one parallel ctest.
  const std::string prefix = StrFormat("%s/fleet_det_%d",
                                       testing::TempDir().c_str(),
                                       static_cast<int>(::getpid()));
  options.metrics_out = prefix + "_a.json";
  StatusOr<FleetScenarioSummary> a = RunFleetCampaign(options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  options.metrics_out = prefix + "_b.json";
  StatusOr<FleetScenarioSummary> b = RunFleetCampaign(options);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  EXPECT_EQ(a->violations, 0u);
  EXPECT_EQ(b->violations, 0u);
  EXPECT_EQ(a->evac_moved, b->evac_moved);
  EXPECT_EQ(a->requests_issued, b->requests_issued);
  EXPECT_EQ(a->p99_ms, b->p99_ms);

  const std::string bytes_a = ReadWholeFile(prefix + "_a.json");
  const std::string bytes_b = ReadWholeFile(prefix + "_b.json");
  std::remove((prefix + "_a.json").c_str());
  std::remove((prefix + "_b.json").c_str());
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
}

// --- Image-churn regressions (the BlkBack reclamation this fleet forced) ---

TEST(FleetChurnTest, CreateDestroyChurnNeverFillsTheDisk) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  // 30 cycles x 15 GB default images is ~450 GB of cumulative image
  // traffic against a 320 GB disk: without DeleteImage on the destroy
  // path (the pre-fleet bump allocator), this fails around iteration 21
  // with RESOURCE_EXHAUSTED — exactly how migration churn killed hosts.
  for (int i = 0; i < 30; ++i) {
    StatusOr<DomainId> guest =
        platform.CreateGuest(SmallGuest(StrFormat("churn-%d", i), ""));
    ASSERT_TRUE(guest.ok()) << "iteration " << i << ": "
                            << guest.status().ToString();
    ASSERT_TRUE(platform.DestroyGuest(*guest).ok()) << "iteration " << i;
  }
}

TEST(FleetChurnTest, FailedCreateUnwindsWithoutLeakingADomainShell) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());

  GuestSpec big = SmallGuest("big-a", "");
  big.disk_image_mb = 140 * 1024;  // two fit on the 320 GB disk; three don't
  StatusOr<DomainId> a = platform.CreateGuest(big);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  big.name = "big-b";
  StatusOr<DomainId> b = platform.CreateGuest(big);
  ASSERT_TRUE(b.ok()) << b.status().ToString();

  const std::size_t live = platform.hv().LiveDomainCount();
  big.name = "big-c";
  StatusOr<DomainId> c = platform.CreateGuest(big);
  ASSERT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  // The BuildVm'd shell (and its image, VIF, and XenStore connection) must
  // be unwound, not leaked: a fleet retries the create elsewhere, and a
  // leaked 192 MB shell per retry is how a destination host ran itself
  // out of memory.
  EXPECT_EQ(platform.hv().LiveDomainCount(), live);

  // Freeing one image makes the same create succeed — extents are
  // genuinely reclaimed, not just error-counted.
  ASSERT_TRUE(platform.DestroyGuest(*a).ok());
  StatusOr<DomainId> retry = platform.CreateGuest(big);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(FleetChurnTest, DeleteImageRefusesWhileVbdStillBound) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  StatusOr<DomainId> guest = platform.CreateGuest(SmallGuest("bound", ""));
  ASSERT_TRUE(guest.ok());

  BlkBack* blkback = platform.blkback_of(*guest);
  ASSERT_NE(blkback, nullptr);
  Status premature = blkback->DeleteImage(
      StrFormat("vm-%u-disk0", guest->value()));
  EXPECT_EQ(premature.code(), StatusCode::kFailedPrecondition);
  // The destroy path detaches the VBD first, then deletes — so the full
  // teardown still works.
  EXPECT_TRUE(platform.DestroyGuest(*guest).ok());
}

}  // namespace
}  // namespace xoar
