#include "src/fault/campaign.h"

#include <cstdlib>
#include <functional>

#include "src/base/strings.h"
#include "src/core/xoar_platform.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"
#include "src/drv/xenbus.h"
#include "src/obs/obs.h"

namespace xoar {
namespace {

// One service's probe ledger. Outage episodes are bracketed by the first
// failed completion and the next successful one; their spans feed the mean
// recovery time.
struct ProbeStats {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  bool down = false;
  SimTime down_since = 0;
  double recovery_ms_sum = 0;
  std::uint64_t recoveries = 0;

  void Complete(SimTime now, bool success) {
    if (success) {
      ++ok;
      if (down) {
        recovery_ms_sum += static_cast<double>(now - down_since) /
                           static_cast<double>(kMillisecond);
        ++recoveries;
        down = false;
      }
    } else {
      ++failed;
      if (!down) {
        down = true;
        down_since = now;
      }
    }
  }
};

struct Campaign {
  ProbeStats xs;
  ProbeStats blk;
  ProbeStats net;
  std::uint64_t host_failures = 0;
  std::uint64_t lost_probes = 0;  // issued but never completed
  std::uint64_t final_failures = 0;

  std::uint64_t issued() const {
    return xs.issued + blk.issued + net.issued;
  }
  std::uint64_t completed() const {
    return xs.ok + xs.failed + blk.ok + blk.failed + net.ok + net.failed;
  }
  std::uint64_t ok() const { return xs.ok + blk.ok + net.ok; }
  double availability() const {
    const std::uint64_t done = completed();
    return done == 0 ? 0.0
                     : static_cast<double>(ok()) / static_cast<double>(done);
  }
  double mean_recovery_ms() const {
    const std::uint64_t n = xs.recoveries + blk.recoveries + net.recoveries;
    return n == 0 ? 0.0
                  : (xs.recovery_ms_sum + blk.recovery_ms_sum +
                     net.recovery_ms_sum) /
                        static_cast<double>(n);
  }
};

}  // namespace

JournalMeta CampaignRunOptions::ToMeta() const {
  return {{"seed", StrFormat("%llu", static_cast<unsigned long long>(seed))},
          {"faults", StrFormat("%d", faults)},
          {"seconds", StrFormat("%.6f", seconds)},
          {"crashes", StrFormat("%d", crashes)},
          {"hangs", StrFormat("%d", hangs)},
          {"box_corrupts", StrFormat("%d", box_corrupts)}};
}

CampaignRunOptions CampaignRunOptions::FromMeta(const JournalMeta& meta) {
  CampaignRunOptions run;
  run.seed = std::strtoull(MetaValue(meta, "seed").c_str(), nullptr, 10);
  run.faults = std::atoi(MetaValue(meta, "faults").c_str());
  run.seconds = std::atof(MetaValue(meta, "seconds").c_str());
  run.crashes = std::atoi(MetaValue(meta, "crashes").c_str());
  run.hangs = std::atoi(MetaValue(meta, "hangs").c_str());
  run.box_corrupts = std::atoi(MetaValue(meta, "box_corrupts").c_str());
  return run;
}

StatusOr<CampaignSummary> RunProbeCampaign(const CampaignRunOptions& options) {
  XoarPlatform platform;
  if (options.sink != nullptr) {
    // Attach before Boot so the journal covers the boot phases too; the
    // tracer is a pure observer, so this cannot perturb the run.
    platform.obs().tracer().set_enabled(true);
    platform.obs().tracer().set_sink(options.sink);
  }
  if (!platform.Boot().ok()) {
    return InternalError("boot failed");
  }
  StatusOr<DomainId> guest = platform.CreateGuest(GuestSpec{.name = "probe"});
  if (!guest.ok()) {
    return InternalError("guest creation failed");
  }
  platform.Settle();
  NetFront* netfront = platform.netfront(*guest);
  BlkFront* blkfront = platform.blkfront(*guest);
  if (netfront == nullptr || blkfront == nullptr) {
    return InternalError("probe guest has no frontends");
  }

  Simulator& sim = platform.sim();
  const SimTime start = sim.Now();
  const SimTime end = start + FromSeconds(options.seconds);

  CampaignConfig config;
  config.seed = options.seed;
  config.fault_count = options.faults;
  config.start = start;
  config.end = end;
  config.crash_count = options.crashes;
  config.hang_count = options.hangs;
  config.box_corrupt_count = options.box_corrupts;
  FaultPlan plan = FaultPlan::Randomized(config);
  FaultInjector injector(&platform);
  injector.Arm(plan);

  Campaign campaign;
  const std::string xs_probe_path =
      FrontendDir(*guest, kVbdType) + "/state";

  // Probe every 11 ms: denser than the narrowest fault window (10 ms), so
  // no transient window can open and close unobserved.
  constexpr SimDuration kProbeInterval = 11 * kMillisecond;
  std::function<void()> tick = [&] {
    if (platform.hv().host_failed()) {
      ++campaign.host_failures;
    }
    // XenStore: synchronous read of a node the guest itself published.
    ++campaign.xs.issued;
    campaign.xs.Complete(sim.Now(),
                         platform.xenstore().Read(*guest, xs_probe_path).ok());
    // Block: 4 KiB write, offset walking a 1 MiB window of the image.
    ++campaign.blk.issued;
    blkfront->WriteBytes((campaign.blk.issued * 4096) % (1 * kMiB), 4096,
                         [&campaign, &sim](Status status) {
                           campaign.blk.Complete(sim.Now(), status.ok());
                         });
    // Network: one MTU-sized frame.
    ++campaign.net.issued;
    netfront->SendFrame(1500, [&campaign, &sim](Status status) {
                          campaign.net.Complete(sim.Now(), status.ok());
                        });
    if (sim.Now() + kProbeInterval < end) {
      sim.ScheduleAfter(kProbeInterval, tick);
    }
  };
  sim.ScheduleAfter(kProbeInterval, tick);
  sim.RunUntil(end);

  // Drain: let open windows close, microreboots finish, and every retry
  // ladder run to completion (worst chain: 2 s block deadlines x 8 retries).
  injector.Disarm();
  sim.RunFor(FromSeconds(20.0));
  campaign.lost_probes = campaign.issued() - campaign.completed();

  // Final health check: both frontends reconnected, one more probe of each
  // service succeeds.
  if (!netfront->connected() || !blkfront->connected()) {
    ++campaign.final_failures;
  }
  if (!platform.xenstore().Read(*guest, xs_probe_path).ok()) {
    ++campaign.final_failures;
  }
  bool final_blk_ok = false;
  bool final_net_ok = false;
  blkfront->WriteBytes(0, 4096,
                       [&](Status status) { final_blk_ok = status.ok(); });
  netfront->SendFrame(1500,
                      [&](Status status) { final_net_ok = status.ok(); });
  sim.RunFor(FromSeconds(20.0));
  if (!final_blk_ok) {
    ++campaign.final_failures;
  }
  if (!final_net_ok) {
    ++campaign.final_failures;
  }

  const std::uint64_t absorbed =
      blkfront->retry_recovered() + netfront->retry_recovered();
  const std::uint64_t microreboots =
      injector.injected_count(FaultType::kShardCrash);

  // Supervision invariants (4) and (5): the watchdog accounted for every
  // injected hang within its timeout, and fast-path validation rejected
  // every poisoned recovery box.
  const Watchdog& watchdog = *platform.watchdog();
  const std::uint64_t hangs_injected =
      injector.injected_count(FaultType::kShardHang);
  const std::uint64_t box_corrupts_injected =
      injector.injected_count(FaultType::kRecoveryBoxCorrupt);
  const std::uint64_t boxes_rejected =
      static_cast<std::uint64_t>(platform.restarts().TotalBoxesRejected());
  std::uint64_t supervision_failures = 0;
  const SimDuration hang_detection_max =
      watchdog.max_hang_detection_latency();
  if (watchdog.hangs_detected() + watchdog.hangs_absorbed() !=
      hangs_injected) {
    ++supervision_failures;
  }
  if (hang_detection_max > kHeartbeatTimeout) {
    ++supervision_failures;
  }
  if (boxes_rejected != box_corrupts_injected) {
    ++supervision_failures;
  }

  const std::uint64_t violations =
      campaign.host_failures + campaign.lost_probes +
      campaign.final_failures + supervision_failures;

  MetricRegistry& metrics = platform.obs().metrics();
  metrics.GetGauge("campaign.seed")
      ->Set(static_cast<double>(options.seed));
  metrics.GetGauge("campaign.availability")->Set(campaign.availability());
  metrics.GetGauge("campaign.probes_issued")
      ->Set(static_cast<double>(campaign.issued()));
  metrics.GetGauge("campaign.faults_injected")
      ->Set(static_cast<double>(injector.total_injected()));
  metrics.GetGauge("campaign.absorbed_by_retry")
      ->Set(static_cast<double>(absorbed));
  metrics.GetGauge("campaign.microreboots")
      ->Set(static_cast<double>(microreboots));
  metrics.GetGauge("campaign.mean_recovery_ms")
      ->Set(campaign.mean_recovery_ms());
  metrics.GetGauge("campaign.invariant_violations")
      ->Set(static_cast<double>(violations));
  metrics.GetGauge("campaign.hangs_injected")
      ->Set(static_cast<double>(hangs_injected));
  metrics.GetGauge("campaign.box_corrupts_injected")
      ->Set(static_cast<double>(box_corrupts_injected));
  metrics.GetGauge("campaign.boxes_rejected")
      ->Set(static_cast<double>(boxes_rejected));
  metrics.GetGauge("campaign.heartbeat_timeout_ms")
      ->Set(static_cast<double>(kHeartbeatTimeout) /
            static_cast<double>(kMillisecond));
  metrics.GetGauge("campaign.hang_detection_max_ms")
      ->Set(static_cast<double>(hang_detection_max) /
            static_cast<double>(kMillisecond));
  metrics.GetGauge("campaign.watchdog_hangs_detected")
      ->Set(static_cast<double>(watchdog.hangs_detected()));
  metrics.GetGauge("campaign.watchdog_hangs_absorbed")
      ->Set(static_cast<double>(watchdog.hangs_absorbed()));
  metrics.GetGauge("campaign.watchdog_deaths_detected")
      ->Set(static_cast<double>(watchdog.deaths_detected()));
  metrics.GetGauge("campaign.watchdog_auto_restarts")
      ->Set(static_cast<double>(watchdog.auto_restarts()));
  metrics.GetGauge("campaign.watchdog_quarantines")
      ->Set(static_cast<double>(watchdog.quarantines()));

  CampaignSummary summary;
  summary.plan = plan;
  summary.start = start;
  summary.probes_issued = campaign.issued();
  summary.availability = campaign.availability();
  summary.mean_recovery_ms = campaign.mean_recovery_ms();
  summary.faults_injected = injector.total_injected();
  summary.absorbed_by_retry = absorbed;
  summary.microreboots = microreboots;
  summary.crashes_skipped = injector.crashes_skipped();
  summary.hangs_injected = hangs_injected;
  summary.hangs_detected = watchdog.hangs_detected();
  summary.hangs_absorbed = watchdog.hangs_absorbed();
  summary.deaths_detected = watchdog.deaths_detected();
  summary.auto_restarts = watchdog.auto_restarts();
  summary.quarantines = watchdog.quarantines();
  summary.heartbeat_timeout = kHeartbeatTimeout;
  summary.hang_detection_max = hang_detection_max;
  summary.box_corrupts_injected = box_corrupts_injected;
  summary.boxes_rejected = boxes_rejected;
  summary.host_failures = campaign.host_failures;
  summary.lost_probes = campaign.lost_probes;
  summary.final_failures = campaign.final_failures;
  summary.supervision_failures = supervision_failures;
  summary.violations = violations;

  if (options.sink != nullptr) {
    platform.obs().tracer().set_sink(nullptr);
  }

  if (!options.metrics_out.empty()) {
    Status status =
        metrics.WriteJsonFile(options.metrics_out, "fault_campaign");
    if (!status.ok()) {
      return status;
    }
  }
  return summary;
}

}  // namespace xoar
