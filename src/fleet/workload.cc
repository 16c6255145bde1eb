#include "src/fleet/workload.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"

namespace xoar {
namespace {

constexpr SimDuration kTick = 9 * kMillisecond;  // off-phase with fault windows
// Block write every Nth tick. The disk model charges ~13 ms per
// non-sequential 4 KiB write (~76 IOPS per host), so the per-guest block
// rate must leave headroom even when migrations concentrate a dozen guests
// on one host: 111 ticks/s / 24 ≈ 4.6 IOPS per guest.
constexpr int kBlkEvery = 24;
constexpr std::uint32_t kFrameBytes = 1500;
// Pre-migration quiesce: advance the fleet in these slices until the
// guest's in-flight requests drain, for at most kDrainSlicesMax slices.
constexpr SimDuration kDrainSlice = 64 * kMillisecond;
constexpr int kDrainSlicesMax = 32;

}  // namespace

// --- HistWindow -------------------------------------------------------------

void HistWindow::Reset(const Histogram* hist) {
  hist_ = hist;
  Mark();
}

void HistWindow::Mark() {
  if (hist_ == nullptr) {
    base_.clear();
    base_count_ = 0;
    return;
  }
  base_ = hist_->bucket_counts();
  base_count_ = hist_->count();
}

std::uint64_t HistWindow::count() const {
  return hist_ == nullptr ? 0 : hist_->count() - base_count_;
}

double HistWindow::Percentile(double p) const {
  if (hist_ == nullptr) {
    return 0;
  }
  const std::vector<std::uint64_t>& now = hist_->bucket_counts();
  const std::vector<double>& bounds = hist_->bounds();
  const std::uint64_t total = count();
  if (total == 0 || now.size() != base_.size()) {
    return 0;
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < now.size(); ++i) {
    const std::uint64_t delta = now[i] - base_[i];
    cumulative += delta;
    if (static_cast<double>(cumulative) >= target) {
      if (i >= bounds.size()) {
        return bounds.empty() ? 0 : bounds.back();  // overflow bucket
      }
      const double hi = bounds[i];
      const double lo = i == 0 ? 0 : bounds[i - 1];
      const double before = static_cast<double>(cumulative - delta);
      const double in_bucket = static_cast<double>(delta);
      const double frac =
          in_bucket == 0 ? 1.0 : (target - before) / in_bucket;
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds.empty() ? 0 : bounds.back();
}

// --- FleetWorkload ----------------------------------------------------------

std::vector<double> FleetWorkload::LatencyBoundsMs() {
  return Histogram::ExponentialBounds(0.25, 2.0, 16);  // 0.25ms .. ~8.2s
}

FleetWorkload::FleetWorkload(Fleet* fleet) : fleet_(fleet) {
  MetricRegistry& metrics = fleet_->metrics();
  latency_ = metrics.GetHistogram("fleet.workload.latency_ms",
                                  LatencyBoundsMs());
  m_issued_ = metrics.GetCounter("fleet.workload.requests.issued");
  m_ok_ = metrics.GetCounter("fleet.workload.requests.ok");
  m_failed_ = metrics.GetCounter("fleet.workload.requests.failed");
}

Status FleetWorkload::Attach(FleetGuestId guest) {
  const FleetGuestRecord* record = fleet_->guest(guest);
  if (record == nullptr) {
    return NotFoundError("unknown fleet guest");
  }
  if (!record->spec.with_net) {
    return FailedPreconditionError("workload guest needs a net frontend");
  }
  auto [it, inserted] = loops_.emplace(guest, GuestLoop{});
  GuestLoop& loop = it->second;
  if (inserted) {
    // Per-tenant latency series share bounds so they stay comparable.
    Histogram*& hist = tenant_hists_[record->spec.tenant];
    if (hist == nullptr) {
      hist = fleet_->metrics().GetHistogram(
          "fleet.workload.latency_ms.tenant." + record->spec.tenant,
          LatencyBoundsMs());
    }
    loop.tenant_hist = hist;
    // Deterministic stagger: spreads loop phases so a thousand guests do
    // not all hit their backends on the same instant.
    loop.stagger = (guest % 7) * kMillisecond;
  }
  Bind(loop, *record);
  loop.running = true;
  ++loop.epoch;
  ScheduleTick(loop, kTick + loop.stagger);
  return Status::Ok();
}

void FleetWorkload::Detach(FleetGuestId guest) {
  auto it = loops_.find(guest);
  if (it == loops_.end()) {
    return;
  }
  it->second.running = false;
  ++it->second.epoch;  // kill any tick already scheduled
}

Status FleetWorkload::QuiesceGuest(FleetGuestId guest) {
  auto it = loops_.find(guest);
  if (it == loops_.end()) {
    return Status::Ok();  // no loop, nothing in flight
  }
  GuestLoop& loop = it->second;
  ++loop.epoch;  // stops the loop; `running` still says whether to resume
  for (int i = 0; i < kDrainSlicesMax && loop.pending > 0; ++i) {
    fleet_->AdvanceAll(kDrainSlice);
  }
  if (loop.pending > 0) {
    return AbortedError(StrFormat(
        "guest %u still has %d in-flight requests after the drain bound",
        guest, loop.pending));
  }
  return Status::Ok();
}

void FleetWorkload::ResumeGuest(FleetGuestId guest) {
  auto it = loops_.find(guest);
  const FleetGuestRecord* record = fleet_->guest(guest);
  if (it == loops_.end() || record == nullptr) {
    return;
  }
  GuestLoop& loop = it->second;
  // Moved or not, the guest now runs where its record says: the old
  // host's frontends are gone after a move, and an aborted attempt
  // re-binds the same handles. A detached loop stays stopped.
  Bind(loop, *record);
  if (!loop.running) {
    return;
  }
  ++loop.epoch;
  ScheduleTick(loop, kTick + loop.stagger);
}

void FleetWorkload::SetDemandMultiplier(FleetGuestId guest,
                                        double multiplier) {
  auto it = loops_.find(guest);
  if (it != loops_.end() && multiplier > 0) {
    it->second.multiplier = multiplier;
  }
}

int FleetWorkload::total_pending() const {
  int pending = 0;
  for (const auto& [id, loop] : loops_) {
    pending += loop.pending;
  }
  return pending;
}

double FleetWorkload::TenantP99Ratio() const {
  double max_p99 = 0;
  double min_p99 = 0;
  int tenants = 0;
  for (const auto& [tenant, hist] : tenant_hists_) {
    if (hist->count() == 0) {
      continue;
    }
    const double p99 = hist->Percentile(0.99);
    if (tenants == 0 || p99 > max_p99) {
      max_p99 = p99;
    }
    if (tenants == 0 || p99 < min_p99) {
      min_p99 = p99;
    }
    ++tenants;
  }
  if (tenants < 2 || min_p99 <= 0) {
    return 0;
  }
  return max_p99 / min_p99;
}

void FleetWorkload::Bind(GuestLoop& loop, const FleetGuestRecord& record) {
  XoarPlatform& host = fleet_->host(record.host);
  loop.sim = &host.sim();
  loop.netfront = host.netfront(record.domain);
  loop.blkfront = host.blkfront(record.domain);
}

void FleetWorkload::ScheduleTick(GuestLoop& loop, SimDuration delay) {
  const std::uint64_t epoch = loop.epoch;
  // The tick lives on the guest's *current* host simulator; a migration
  // bumps the epoch, so a tick left behind on the old host fires inert.
  loop.sim->ScheduleAfter(delay,
                          [this, &loop, epoch] { Tick(loop, epoch); });
}

void FleetWorkload::Tick(GuestLoop& loop, std::uint64_t epoch) {
  if (!loop.running || loop.epoch != epoch) {
    return;  // stale tick from before a quiesce/migration
  }
  ++loop.ticks;
  if (loop.netfront != nullptr) {
    loop.netfront->SendFrame(kFrameBytes, NewRequest(loop));
  }
  // A traffic spike multiplies the tick rate; stretch the block period by
  // the same factor so the spike is a *network* spike — the disk's ~76
  // IOPS budget is a hard host-wide ceiling the workload must respect.
  const int blk_period = std::max(
      1, static_cast<int>(static_cast<double>(kBlkEvery) * loop.multiplier +
                          0.5));
  if (loop.ticks % blk_period == 0 && loop.blkfront != nullptr) {
    loop.blkfront->WriteBytes((loop.ticks * 4096) % (1 * kMiB), 4096,
                              NewRequest(loop));
  }

  const SimDuration interval = std::max<SimDuration>(
      kMillisecond, static_cast<SimDuration>(
                        static_cast<double>(kTick) / loop.multiplier));
  ScheduleTick(loop, interval);
}

std::function<void(Status)> FleetWorkload::NewRequest(GuestLoop& loop) {
  ++issued_;
  m_issued_->Increment();
  ++loop.pending;
  const Simulator* sim = loop.sim;
  const SimTime issued_at = sim->Now();
  return [this, &loop, sim, issued_at](Status status) {
    Complete(loop, *sim, issued_at, status);
  };
}

void FleetWorkload::Complete(GuestLoop& loop, const Simulator& sim,
                             SimTime issued_at, Status status) {
  if (loop.pending > 0) {
    --loop.pending;
  }
  const double latency_ms = static_cast<double>(sim.Now() - issued_at) /
                            static_cast<double>(kMillisecond);
  latency_->Observe(latency_ms);
  loop.tenant_hist->Observe(latency_ms);
  if (status.ok()) {
    ++ok_;
    m_ok_->Increment();
  } else {
    ++failed_;
    m_failed_->Increment();
  }
}

}  // namespace xoar
