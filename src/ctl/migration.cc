#include "src/ctl/migration.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace xoar {

namespace {

// Migration-stream rate: the link, less stream framing and page metadata.
// The source's network path bounds it when the guest has one.
constexpr double kLinkBps = 1e9;
constexpr double kProtocolEfficiency = 0.9;
// Stop-and-copy once the residue drops below this.
constexpr std::uint64_t kStopCopyThresholdBytes = 1 * kMiB;
// Fixed switch-over cost (device reattach, ARP, resume).
constexpr SimDuration kSwitchoverOverhead = FromMilliseconds(30);

// Abort helper: tear the receiving shell back down so a failed migration
// never leaks a half-built domain on the destination. Teardown failure is
// itself an invariant breach, so it overrides the original error.
Status AbortMigration(Platform* destination, DomainId dest_guest,
                      Status cause) {
  Status teardown = destination->DestroyGuest(dest_guest);
  if (!teardown.ok()) {
    return InternalError(StrFormat(
        "migration abort leaked dom%u on %s: %s (original error: %s)",
        dest_guest.value(), std::string(destination->name()).c_str(),
        teardown.ToString().c_str(), cause.ToString().c_str()));
  }
  XLOG(kDebug) << "[migrate] aborted, destination dom"
               << dest_guest.value() << " torn down: " << cause;
  return cause;
}

}  // namespace

StatusOr<MigrationResult> LiveMigrate(Platform* source, DomainId guest,
                                      Platform* destination,
                                      const MigrationParams& params) {
  const GuestSpec* spec = source->guest_spec(guest);
  if (spec == nullptr) {
    return NotFoundError(
        StrFormat("dom%u is not a guest on the source host", guest.value()));
  }
  const Domain* dom = source->hv().domain(guest);
  if (dom == nullptr || dom->state() != DomainState::kRunning) {
    return FailedPreconditionError("only running guests can live-migrate");
  }
  // The stream cannot exceed the source's network data path when the guest
  // shares it with the migration client.
  double stream_bps = kLinkBps * kProtocolEfficiency;
  const double guest_net = source->EffectiveNetRateBps(guest);
  if (guest_net > 0) {
    stream_bps = std::min(stream_bps, guest_net * kProtocolEfficiency);
  }
  const double stream_bytes_per_sec = stream_bps / 8.0;

  MigrationResult result;
  const SimTime started_at = source->sim().Now();
  const auto past_deadline = [&](SimDuration extra) {
    return params.deadline > 0 &&
           (source->sim().Now() - started_at) + extra > params.deadline;
  };

  // Build the receiving shell up front — pre-copy needs somewhere to land
  // pages, and a destination that cannot host the guest should fail before
  // any source-side work (the Remus-style safety rule in reverse: no
  // source work until the destination has committed resources).
  GuestSpec dest_spec = *spec;
  StatusOr<DomainId> dest_guest = destination->CreateGuest(dest_spec);
  if (!dest_guest.ok()) {
    return FailedPreconditionError(
        StrFormat("destination rejected the guest: %s",
                  dest_guest.status().ToString().c_str()));
  }
  result.destination_guest = *dest_guest;

  // --- Pre-copy: ship memory while the guest keeps running. ---
  std::uint64_t to_send = dom->memory_bytes();
  while (true) {
    ++result.precopy_rounds;
    if (params.stream_fault && params.stream_fault(result.precopy_rounds)) {
      return AbortMigration(
          destination, *dest_guest,
          UnavailableError(StrFormat("migration stream dropped in round %d",
                                     result.precopy_rounds)));
    }
    const double round_seconds =
        static_cast<double>(to_send) / stream_bytes_per_sec;
    if (past_deadline(FromSeconds(round_seconds))) {
      return AbortMigration(
          destination, *dest_guest,
          AbortedError(StrFormat(
              "migration deadline hit after %d pre-copy rounds",
              result.precopy_rounds - 1)));
    }
    result.bytes_transferred += to_send;
    source->sim().RunFor(FromSeconds(round_seconds));
    // The source guest must still be running: a guest paused (or killed)
    // mid-pre-copy stops dirtying pages but also stops being migratable —
    // the dirty-bitmap protocol assumes a live producer.
    dom = source->hv().domain(guest);
    if (dom == nullptr || dom->state() != DomainState::kRunning) {
      return AbortMigration(
          destination, *dest_guest,
          FailedPreconditionError(StrFormat(
              "source guest left the running state in pre-copy round %d",
              result.precopy_rounds)));
    }
    // While this round was in flight, the guest dirtied more pages (capped
    // at its whole memory).
    const std::uint64_t dirtied = std::min<std::uint64_t>(
        dom->memory_bytes(),
        static_cast<std::uint64_t>(params.dirty_rate_bytes_per_sec *
                                   round_seconds));
    to_send = dirtied;
    if (to_send <= kStopCopyThresholdBytes) {
      result.converged = true;
      break;
    }
    if (result.precopy_rounds >= params.max_precopy_rounds) {
      // Dirty rate beats the link: fall back to stop-and-copy of whatever
      // remains (subject to the downtime bound below).
      break;
    }
  }

  // --- Stop-and-copy: pause, ship the residue, switch over. ---
  if (params.stream_fault && params.stream_fault(result.precopy_rounds + 1)) {
    return AbortMigration(
        destination, *dest_guest,
        UnavailableError("migration stream dropped at stop-and-copy"));
  }
  const double residue_seconds =
      static_cast<double>(to_send) / stream_bytes_per_sec;
  const SimDuration projected_downtime =
      FromSeconds(residue_seconds) + kSwitchoverOverhead;
  if (!result.converged && params.max_downtime > 0 &&
      projected_downtime > params.max_downtime) {
    return AbortMigration(
        destination, *dest_guest,
        AbortedError(StrFormat(
            "did not converge: stop-and-copy downtime %lldms exceeds the "
            "%lldms bound",
            static_cast<long long>(ToMilliseconds(projected_downtime)),
            static_cast<long long>(ToMilliseconds(params.max_downtime)))));
  }
  if (past_deadline(projected_downtime)) {
    return AbortMigration(
        destination, *dest_guest,
        AbortedError("migration deadline hit at stop-and-copy"));
  }
  result.bytes_transferred += to_send;
  result.downtime = projected_downtime;
  source->sim().RunFor(result.downtime);

  XOAR_RETURN_IF_ERROR(source->DestroyGuest(guest));
  result.total_time = source->sim().Now() - started_at;
  XLOG(kDebug) << "[migrate] dom" << guest.value() << " -> "
               << destination->name() << " dom" << dest_guest->value()
               << " in " << ToSeconds(result.total_time) << "s (downtime "
               << ToMilliseconds(result.downtime) << "ms)";
  return result;
}

}  // namespace xoar
