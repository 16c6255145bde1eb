// Secure audit log (§3.2.2).
//
// Xoar records the lifecycle of every VM together with the shards linked to
// it in an off-host, append-only log. The explicit shard relationships make
// the two forensic queries the paper motivates mechanical:
//   1. after a shard compromise, enumerate every guest that relied on the
//      compromised shard at any point during the compromise window;
//   2. after a vulnerability disclosure, enumerate every guest serviced by
//      a vulnerable release of a component.
// Append-only tamper evidence is modeled with a hash chain over the
// serialized records (see src/base/hash_chain.h).
#ifndef XOAR_SRC_BASE_AUDIT_LOG_H_
#define XOAR_SRC_BASE_AUDIT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/hash_chain.h"
#include "src/base/ids.h"
#include "src/base/units.h"

namespace xoar {

enum class AuditEventKind : std::uint8_t {
  kVmCreated,
  kVmDestroyed,
  kShardLinked,     // subject guest <- object shard
  kShardRestarted,  // object shard microrebooted
  kShardUpgraded,   // object shard replaced with a new release
  kCompromise,      // detection marker, for forensics exercises
  kHypervisor,      // raw hypervisor audit event (free text)
  // Supervision decisions (the watchdog's automatic actions); detail
  // carries the component name and a cause= tag (missed-heartbeat,
  // dead-domain, corrupt-box).
  kWatchdogRestart,      // watchdog-initiated automatic microreboot
  kShardQuarantined,     // restart budget exhausted; degraded mode entered
  kRecoveryBoxRejected,  // corrupt recovery box discarded, slow path taken
  // Privileged control-plane operations (ANALYSIS.md audit rule): the
  // shards below hold dangerous permits, so each use is logged.
  kVmBuilt,      // Builder constructed a guest (subject guest <- object builder)
  kPciAssigned,  // PCIBack delegated a device (subject guest <- object pciback)
  // Fleet orchestration (src/fleet): host-level operations the operator
  // must be able to reconstruct after the fact. `subject` is a domain on
  // the affected host when one applies; detail carries host=<name> plus
  // operation-specific tags (guests=, wave=, reason=).
  kEvacuationStarted,    // fleet began draining every guest off a host
  kEvacuationCompleted,  // evacuation finished (detail: moved=/failed=)
  kUpgradeWaveStep,      // one host's microreboot-upgrade step in a wave
};

std::string_view AuditEventKindName(AuditEventKind kind);

struct AuditEvent {
  SimTime time = 0;
  AuditEventKind kind = AuditEventKind::kHypervisor;
  DomainId subject;  // usually a guest
  DomainId object{};  // usually a shard
  std::string detail;

  std::string Serialize() const;
};

class AuditLog {
 public:
  void Record(AuditEvent event);
  void RecordHypervisor(SimTime time, const std::string& detail);

  const std::vector<AuditEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  // Index of the first record that fails hash-chain verification, or -1 if
  // the log is intact.
  long FirstCorruptedRecord() const;

  // Query 1: guests linked to `shard` at any instant overlapping
  // [window_start, window_end] (a destroyed guest stops being exposed).
  std::vector<DomainId> GuestsExposedToShard(DomainId shard,
                                             SimTime window_start,
                                             SimTime window_end) const;

  // Query 2: guests serviced by `shard` while it ran release `release`
  // (releases recorded via kShardUpgraded detail strings).
  std::vector<DomainId> GuestsServicedByRelease(
      DomainId shard, const std::string& release) const;

  // Test hook: deliberately corrupt a stored record to demonstrate that
  // verification catches it.
  void TamperForTest(std::size_t index, const std::string& new_detail);

 private:
  std::vector<AuditEvent> events_;
  HashChain chain_;
};

}  // namespace xoar

#endif  // XOAR_SRC_BASE_AUDIT_LOG_H_
