// Snapshot/rollback with recovery boxes (§3.3, Fig 3.2).
//
// A restartable shard snapshots itself once, after boot and initialization
// but before serving requests over any external interface. A rollback
// (triggered by the restart policy) restores that image; the paper uses
// hypervisor copy-on-write tracking, which we model as an explicit state
// copy with a size-proportional cost. State that must survive — open
// connection descriptors, system-wide configuration — goes into the
// component's *recovery box* [Baker & Sullivan], a memory region excluded
// from rollback; components re-validate and re-adopt it right after a
// rollback completes.
#ifndef XOAR_SRC_CORE_SNAPSHOT_H_
#define XOAR_SRC_CORE_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"

namespace xoar {

// A component whose mutable state can be captured and restored.
class Snapshottable {
 public:
  virtual ~Snapshottable() = default;
  virtual std::string SaveState() const = 0;
  virtual void RestoreState(const std::string& state) = 0;
};

// Rollback-surviving key-value region. The box survives rollbacks, which
// makes it the one input a freshly rolled-back component adopts without
// having produced it — so it is treated as untrusted: every entry carries
// a checksum written at Put() time, and consumers (the RestartEngine's
// fast path) call Validate() before resuming from it. A corrupt box is
// discarded, never resumed from.
class RecoveryBox {
 public:
  void Put(const std::string& key, std::string value);

  // Fails INTERNAL if the entry's checksum no longer matches its value.
  StatusOr<std::string> Get(const std::string& key) const;

  bool Contains(const std::string& key) const {
    return entries_.count(key) > 0;
  }
  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    keys.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      keys.push_back(key);
    }
    return keys;
  }
  void Erase(const std::string& key) { entries_.erase(key); }
  void Clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (const auto& [key, entry] : entries_) {
      total += key.size() + entry.value.size();
    }
    return total;
  }

  // Integrity check over every entry; fails INTERNAL naming the first
  // corrupt key. OK for an empty box (nothing to distrust).
  Status Validate() const;

  // Flips one bit of the named entry's stored value without refreshing its
  // checksum — the in-memory corruption the `recovery_box_corrupt` fault
  // models. Self-inverse: a second call restores the original value.
  Status CorruptForTest(const std::string& key);

 private:
  struct Entry {
    std::string value;
    std::uint64_t checksum = 0;
  };

  static std::uint64_t EntryChecksum(const std::string& key,
                                     const std::string& value);

  std::map<std::string, Entry> entries_;
};

class SnapshotManager {
 public:
  // Cost model for a rollback: fixed overhead plus a per-byte copy charge
  // (the CoW page restore). Exposed so the microreboot ablation bench can
  // sweep state sizes.
  struct CostModel {
    SimDuration fixed = 2 * kMillisecond;
    double ns_per_byte = 0.25;  // ~4 GB/s page-copy bandwidth
  };

  // vm_snapshot(): captures the component's post-init image.
  Status TakeSnapshot(DomainId domain, Snapshottable* component);

  // Restores the snapshot image; the recovery box is left untouched.
  // Returns the modeled rollback duration.
  StatusOr<SimDuration> Rollback(DomainId domain);

  RecoveryBox& recovery_box(DomainId domain) { return boxes_[domain]; }

  std::uint64_t rollbacks() const { return rollbacks_; }
  CostModel& cost_model() { return cost_model_; }

 private:
  struct Snapshot {
    Snapshottable* component;
    std::string image;
  };

  std::map<DomainId, Snapshot> snapshots_;
  std::map<DomainId, RecoveryBox> boxes_;
  CostModel cost_model_;
  std::uint64_t rollbacks_ = 0;
};

}  // namespace xoar

#endif  // XOAR_SRC_CORE_SNAPSHOT_H_
