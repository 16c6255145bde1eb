// Fleet-wide guest workload: the Apache/wget-style request loops from the
// paper's §5 evaluation, generalised to N hosts. Every attached guest runs
// a staggered tick loop on its *current* host's simulator, issuing
// MTU-sized frames through its NetFront (and periodic 4 KiB block writes
// through its BlkFront), and the completion latency of every request is
// observed into fleet-level histograms — one global, one per tenant — so
// scenarios can report per-wave p99/p999 and cross-tenant interference.
//
// The workload is also the fleet's MigrationQuiescer: before a guest is
// live-migrated its loop is stopped (an epoch bump invalidates any tick
// already scheduled on the old host's simulator) and its in-flight
// requests are drained by advancing the whole fleet in slices; after the
// move the loop resumes on the destination host's simulator. That protocol
// is what makes "tear down the source mid-stream" safe: no completion
// callback ever dangles across a migration.
//
// Each loop holds its guest's host simulator and frontends instead of
// looking them up per tick. Attach binds them and ResumeGuest re-binds
// them, moved or not; resume is the only point at which a guest's host or
// domain changes. So a FleetWorkload must be the fleet's quiescer
// (directly or through a forwarding wrapper): a loop the fleet never
// resumes keeps the source host's frontends after they are destroyed.
#ifndef XOAR_SRC_FLEET_WORKLOAD_H_
#define XOAR_SRC_FLEET_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/fleet/fleet.h"
#include "src/obs/metrics.h"

namespace xoar {

// Delta-percentile view over a live histogram: Mark() snapshots the bucket
// counts, Percentile(p) answers over only the observations made since.
// Scenarios use one per upgrade-wave step so the health gate judges the
// step's own latency, not the whole run's history.
class HistWindow {
 public:
  explicit HistWindow(const Histogram* hist) { Reset(hist); }
  void Reset(const Histogram* hist);
  void Mark();
  std::uint64_t count() const;
  // Same linear-interpolation estimate as Histogram::Percentile, applied
  // to the since-Mark bucket deltas. 0 when nothing was observed.
  double Percentile(double p) const;

 private:
  const Histogram* hist_ = nullptr;
  std::vector<std::uint64_t> base_;
  std::uint64_t base_count_ = 0;
};

class FleetWorkload : public MigrationQuiescer {
 public:
  explicit FleetWorkload(Fleet* fleet);

  // Starts the request loop for a fleet guest (spec must have a net
  // frontend). Ticks are staggered per guest so loops never phase-lock.
  Status Attach(FleetGuestId guest);
  // Stops the loop. In-flight completions for a detached guest are still
  // counted (latency observed) but no new requests are issued.
  void Detach(FleetGuestId guest);

  // MigrationQuiescer: stop the loop, drain in-flight requests by
  // advancing the fleet (for a bounded number of slices), ABORTED if
  // they do not drain. Resume restarts the loop on the current host if it
  // was running when quiesced; a detached guest stays detached.
  Status QuiesceGuest(FleetGuestId guest) override;
  void ResumeGuest(FleetGuestId guest) override;

  // Scales a guest's issue rate (traffic spike: >1 means proportionally
  // shorter tick interval). Takes effect from the next tick.
  void SetDemandMultiplier(FleetGuestId guest, double multiplier);

  std::uint64_t issued() const { return issued_; }
  std::uint64_t ok() const { return ok_; }
  std::uint64_t failed() const { return failed_; }
  int total_pending() const;

  Histogram* latency_hist() { return latency_; }
  // Cross-tenant interference: max over tenants of p99 divided by min over
  // tenants of p99 (tenants with no observations skipped; 0 if fewer than
  // two tenants have data). 1.0 means perfectly fair.
  double TenantP99Ratio() const;

  // Latency-bucket bounds shared by every workload histogram: 0.25 ms to
  // ~8 s in x2 steps, in milliseconds.
  static std::vector<double> LatencyBoundsMs();

 private:
  // Scheduled ticks and completions hold a GuestLoop by address: loops_
  // never erases, and map nodes never move.
  struct GuestLoop {
    Histogram* tenant_hist = nullptr;  // the latency series of its tenant
    // The guest's current host simulator and frontends. Bound by Attach and
    // re-bound by ResumeGuest, the only point at which a guest's host or
    // domain can have changed, so a tick never searches the fleet or the
    // host's toolstack for them.
    Simulator* sim = nullptr;
    NetFront* netfront = nullptr;
    BlkFront* blkfront = nullptr;
    bool running = false;     // attached and not detached
    std::uint64_t epoch = 0;  // bumped on quiesce/resume/detach
    std::uint64_t ticks = 0;
    int pending = 0;
    double multiplier = 1.0;
    SimDuration stagger = 0;
  };

  void Bind(GuestLoop& loop, const FleetGuestRecord& record);
  void ScheduleTick(GuestLoop& loop, SimDuration delay);
  void Tick(GuestLoop& loop, std::uint64_t epoch);
  // Counts a new request and returns its completion callback, which reads
  // the latency on the clock of the host that sent the request.
  std::function<void(Status)> NewRequest(GuestLoop& loop);
  void Complete(GuestLoop& loop, const Simulator& sim, SimTime issued_at,
                Status status);

  Fleet* fleet_;
  std::map<FleetGuestId, GuestLoop> loops_;
  std::uint64_t issued_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
  Histogram* latency_;
  std::map<std::string, Histogram*> tenant_hists_;
  Counter* m_issued_;
  Counter* m_ok_;
  Counter* m_failed_;
};

}  // namespace xoar

#endif  // XOAR_SRC_FLEET_WORKLOAD_H_
