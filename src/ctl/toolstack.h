// The management toolstack (§4.6, §5.6), built on a libxl-like layer.
//
// A Toolstack creates guests by passing parameters to the Builder; it never
// touches guest memory itself. It may only attach guests to shards that
// have been *delegated* to it, and it enforces the §3.2.1 constraint-group
// policy: a shard is shared only among guests carrying the same constraint
// tag — if no compliant shard exists, guest creation fails rather than
// forcing unwanted sharing. Per-toolstack resource quotas support the
// private-cloud partitioning scenario (§3.4.2).
#ifndef XOAR_SRC_CTL_TOOLSTACK_H_
#define XOAR_SRC_CTL_TOOLSTACK_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/ctl/builder.h"
#include "src/ctl/device_emulator.h"
#include "src/ctl/platform.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"
#include "src/hv/hypervisor.h"

namespace xoar {

class Toolstack {
 public:
  struct GuestRecord {
    DomainId id;
    GuestSpec spec;
    NetBack* netback = nullptr;
    BlkBack* blkback = nullptr;
    std::unique_ptr<NetFront> netfront;
    std::unique_ptr<BlkFront> blkfront;
    DomainId qemu_domain;
    std::unique_ptr<DeviceEmulator> emulator;
  };

  // Guests are grouped into per-tenant slices (GuestSpec::tenant,
  // SCALING.md): bookkeeping for one tenant never scans another tenant's
  // guests, and host-wide aggregates (guest count, memory in use) are
  // maintained incrementally so quota checks stay O(1) at cloud density.
  struct TenantSlice {
    std::map<DomainId, GuestRecord> guests;
    std::uint64_t memory_in_use_mb = 0;
  };

  // `obs` receives the `toolstack.slice.*` gauges.
  Toolstack(Hypervisor* hv, XenStoreService* xs, Simulator* sim, DomainId self,
            Builder* builder, Obs* obs);

  DomainId self() const { return self_; }

  // Registers delegated driver domains this toolstack may hand to guests.
  void AddNetBack(NetBack* netback) { netbacks_.push_back(netback); }
  void AddBlkBack(BlkBack* blkback) { blkbacks_.push_back(blkback); }

  // Per-toolstack guest-memory quota in MiB (0 = unlimited), enforced for
  // the private-cloud resource-partitioning scenario.
  void set_memory_quota_mb(std::uint64_t quota) { memory_quota_mb_ = quota; }

  // When true (Xoar), the toolstack registers each guest<->shard link with
  // the hypervisor (AuthorizeShardUse) before IVC setup can succeed.
  void set_authorize_shard_use(bool v) { authorize_shard_use_ = v; }

  StatusOr<DomainId> CreateGuest(const GuestSpec& spec);
  Status DestroyGuest(DomainId guest);
  Status PauseGuest(DomainId guest);
  Status UnpauseGuest(DomainId guest);

  // Indexed lookup: tenant via guest_tenant_, record inside its slice.
  GuestRecord* guest(DomainId id);
  std::vector<DomainId> Guests() const;
  // O(1): maintained incrementally on create/destroy, never recomputed by
  // scanning guests.
  std::uint64_t guest_memory_in_use_mb() const { return memory_in_use_mb_; }
  std::size_t guest_count() const { return guest_count_; }

  // --- Tenant slices ---
  const TenantSlice* slice(const std::string& tenant) const;
  std::size_t slice_count() const { return slices_.size(); }
  std::vector<std::string> Tenants() const;

 private:
  // Constraint-group selection (§3.2.1): a shard qualifies if every guest
  // already attached to it carries the same tag.
  template <typename BackendT>
  StatusOr<BackendT*> PickBackend(const std::vector<BackendT*>& candidates,
                                  const std::string& tag,
                                  const char* kind) const;
  bool ShardTagCompatible(DomainId shard, const std::string& tag) const;

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  Builder* builder_;
  Obs* obs_;
  Gauge* m_slice_count_;   // toolstack.slice.count
  Gauge* m_slice_guests_;  // toolstack.slice.guests
  Gauge* m_slice_mem_;     // toolstack.slice.mem_mb
  std::vector<NetBack*> netbacks_;
  std::vector<BlkBack*> blkbacks_;
  // Per-tenant slices plus a DomainId-keyed index into them.
  std::map<std::string, TenantSlice> slices_;
  std::map<DomainId, std::string> guest_tenant_;
  std::uint64_t memory_in_use_mb_ = 0;
  std::size_t guest_count_ = 0;
  // shard domain -> constraint tags of guests attached through us
  std::map<DomainId, std::map<std::string, int>> shard_tags_;
  std::uint64_t memory_quota_mb_ = 0;
  bool authorize_shard_use_ = false;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_TOOLSTACK_H_
