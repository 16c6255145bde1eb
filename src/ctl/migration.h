// Live migration (pre-copy), one of the enterprise features the paper
// insists disaggregation must preserve (§1, §2.1.1, §2.3.1: NoHype's loss
// of interposition "is necessary for live migration...").
//
// Classic pre-copy: iteratively ship the guest's memory over the network
// while it keeps running and dirtying pages; when the remaining dirty set
// is small enough (or the round budget is exhausted), pause the guest,
// copy the residue, and resume on the destination. On Xoar the transfer
// runs through the migration client's NetBack path and the destination
// Builder instantiates the incoming VM — the same privilege rules as any
// other build.
//
// Abort safety: the destination shell is built *before* pre-copy starts
// (it has to exist to receive pages), and every abort path — stream
// failure, deadline, guest paused mid-pre-copy, non-convergence under a
// downtime bound — explicitly tears that shell down again, so a failed
// migration never leaks a half-built domain on the destination. A
// destination-side rejection still fails before any source-side work (the
// Remus-style safety rule: the source stays intact until the destination
// copy is complete).
#ifndef XOAR_SRC_CTL_MIGRATION_H_
#define XOAR_SRC_CTL_MIGRATION_H_

#include <cstdint>
#include <functional>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/ctl/platform.h"

namespace xoar {

struct MigrationParams {
  // How fast the running guest dirties memory during pre-copy.
  double dirty_rate_bytes_per_sec = 50.0 * 1e6;
  int max_precopy_rounds = 30;

  // Total migration time budget, checked at round boundaries and before
  // committing to stop-and-copy. 0 = unlimited. On breach the migration
  // aborts with DEADLINE_EXCEEDED and the destination shell is destroyed.
  SimDuration deadline = 0;
  // Downtime SLO: refuse to stop-and-copy a residue whose projected
  // downtime exceeds this. 0 = unlimited (classic behaviour: fall back to
  // stop-and-copy of whatever remains when rounds run out).
  SimDuration max_downtime = 0;
  // Stream-health hook, consulted once per pre-copy round (1-based) and
  // once more before the stop-and-copy residue. Returning true means the
  // stream broke: the migration aborts with UNAVAILABLE and the
  // destination shell is destroyed. The fleet wires this to the source
  // host's FaultInjector kMigrationStreamDrop windows.
  std::function<bool(int round)> stream_fault;
};

struct MigrationResult {
  int precopy_rounds = 0;
  std::uint64_t bytes_transferred = 0;
  SimDuration total_time = 0;
  SimDuration downtime = 0;  // guest paused during stop-and-copy
  DomainId destination_guest;
  bool converged = false;  // residue fell below threshold before the cap
};

// Migrates `guest` from `source` to `destination`. Builds the receiving
// shell on the destination, advances the source platform's clock through
// the pre-copy phase, pauses and destroys the source instance on success.
// On any mid-migration abort the destination shell is torn down and the
// source guest is left in whatever state it reached (running, or paused if
// the abort happened after the stop-and-copy pause). Fails without side
// effects if the destination cannot host the guest.
StatusOr<MigrationResult> LiveMigrate(Platform* source, DomainId guest,
                                      Platform* destination,
                                      const MigrationParams& params = {});

}  // namespace xoar

#endif  // XOAR_SRC_CTL_MIGRATION_H_
