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
#include <string>
#include <vector>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/ctl/builder.h"
#include "src/ctl/platform.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"
#include "src/hv/hypervisor.h"

namespace xoar {

class Toolstack {
 public:
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

  // The record of a guest this toolstack created; null for any other.
  GuestRecord* guest(DomainId id);
  // O(1): maintained incrementally on create/destroy, never recomputed by
  // scanning guests.
  std::uint64_t guest_memory_in_use_mb() const { return memory_in_use_mb_; }

 private:
  // Constraint-group selection (§3.2.1): a shard qualifies if every guest
  // already attached to it carries the same tag.
  template <typename BackendT>
  StatusOr<BackendT*> PickBackend(const std::vector<BackendT*>& candidates,
                                  const std::string& tag,
                                  const char* kind) const;
  bool ShardTagCompatible(DomainId shard, const std::string& tag) const;
  // Undoes whatever of `record` a create got through, in one order: the
  // guest's XenStore connection with its watches and transactions, the
  // shards' devices with their constraint tags and directories, the disk
  // image, the emulator, then the domain and its directory. Shared by
  // DestroyGuest and a create that fails part way.
  Status Teardown(DomainId guest, const GuestRecord& record);
  // Destroys `dom` and, once XenStore serves the request, removes its
  // /local/domain/<id>, where this toolstack holds write access.
  Status DestroyDomain(DomainId dom);

  Hypervisor* hv_;
  XenStoreService* xs_;
  Simulator* sim_;
  DomainId self_;
  Builder* builder_;
  Obs* obs_;
  Gauge* m_slice_count_;   // toolstack.slice.count: tenants with a guest
  Gauge* m_slice_guests_;  // toolstack.slice.guests
  Gauge* m_slice_mem_;     // toolstack.slice.mem_mb
  std::vector<NetBack*> netbacks_;
  std::vector<BlkBack*> blkbacks_;
  std::map<DomainId, GuestRecord> guests_;
  std::map<std::string, std::size_t> tenant_guests_;  // tenant -> its guests
  std::uint64_t memory_in_use_mb_ = 0;
  // shard domain -> constraint tags of guests attached through us
  std::map<DomainId, std::map<std::string, int>> shard_tags_;
  std::uint64_t memory_quota_mb_ = 0;
  bool authorize_shard_use_ = false;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_TOOLSTACK_H_
