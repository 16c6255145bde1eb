#include "src/core/snapshot.h"

#include "src/base/hash_chain.h"
#include "src/base/strings.h"

namespace xoar {
namespace {

// Cost model for a rollback: fixed overhead plus a per-byte copy charge
// (the CoW page restore).
constexpr SimDuration kRollbackFixed = 2 * kMillisecond;
constexpr double kRollbackNsPerByte = 0.25;  // ~4 GB/s page-copy bandwidth

}  // namespace

std::uint64_t RecoveryBox::EntryChecksum(const std::string& key,
                                         const std::string& value) {
  // Chain key into value so a value swapped between two keys also fails
  // validation, not just a mutated value.
  return HashBytes(value, HashBytes(key));
}

void RecoveryBox::Put(const std::string& key, std::string value) {
  Entry& entry = entries_[key];
  entry.value = std::move(value);
  entry.checksum = EntryChecksum(key, entry.value);
}

StatusOr<std::string> RecoveryBox::Get(const std::string& key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError("no such recovery-box entry: " + key);
  }
  if (EntryChecksum(key, it->second.value) != it->second.checksum) {
    return InternalError("recovery-box entry failed checksum: " + key);
  }
  return it->second.value;
}

Status RecoveryBox::Validate() const {
  for (const auto& [key, entry] : entries_) {
    if (EntryChecksum(key, entry.value) != entry.checksum) {
      return InternalError("recovery-box entry failed checksum: " + key);
    }
  }
  return Status::Ok();
}

Status RecoveryBox::CorruptForTest(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return NotFoundError("no such recovery-box entry: " + key);
  }
  if (it->second.value.empty()) {
    return FailedPreconditionError("cannot corrupt empty value: " + key);
  }
  it->second.value[0] ^= 0x01;
  return Status::Ok();
}

Status SnapshotManager::TakeSnapshot(DomainId domain,
                                     Snapshottable* component) {
  if (component == nullptr) {
    return InvalidArgumentError("null component");
  }
  if (snapshots_.count(domain) > 0) {
    // §3.3: the snapshot is taken exactly once, at the ready-to-serve
    // point; re-snapshotting a served component would capture tainted
    // state.
    return AlreadyExistsError(
        StrFormat("dom%u already has a snapshot", domain.value()));
  }
  snapshots_.emplace(domain, Snapshot{component, component->SaveState()});
  return Status::Ok();
}

StatusOr<SimDuration> SnapshotManager::Rollback(DomainId domain) {
  auto it = snapshots_.find(domain);
  if (it == snapshots_.end()) {
    return FailedPreconditionError(
        StrFormat("dom%u has no snapshot to roll back to", domain.value()));
  }
  it->second.component->RestoreState(it->second.image);
  ++rollbacks_;
  const SimDuration cost =
      kRollbackFixed +
      static_cast<SimDuration>(kRollbackNsPerByte *
                               static_cast<double>(it->second.image.size()));
  return cost;
}

}  // namespace xoar
