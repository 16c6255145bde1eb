// Common platform interface.
//
// Both platform assemblies — the stock-Xen MonolithicPlatform (everything in
// Dom0) and the disaggregated XoarPlatform (src/core) — implement this
// interface, so every experiment, example, and test runs unmodified on
// either. The interface also carries the I/O-stream bookkeeping behind the
// performance-isolation effect of Fig 6.2: a monolithic control VM slows
// down when its network and disk services are busy simultaneously; isolated
// driver domains do not.
#ifndef XOAR_SRC_CTL_PLATFORM_H_
#define XOAR_SRC_CTL_PLATFORM_H_

#include <memory>
#include <string>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"
#include "src/drv/blk.h"
#include "src/drv/net.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"

namespace xoar {

// Control-plane services whose hosting domain the security analysis needs
// to resolve (stock Xen: all of them live in Dom0).
enum class ServiceKind {
  kDeviceEmulator,
  kNetBack,
  kBlkBack,
  kToolstack,
  kXenStore,
  kConsole,
};

struct GuestSpec {
  std::string name = "guest";
  std::uint64_t memory_mb = 1024;
  int vcpus = 2;
  // §3.2.1 constraint tag: shards are shared only among guests with the
  // same tag. Empty = the default (unconstrained) group.
  std::string constraint_tag;
  // Cloud-density tenant label (SCALING.md): guests with the same tenant
  // land in the same per-tenant Toolstack slice, which keeps bookkeeping
  // and accounting O(slice) rather than O(host). Empty = default tenant.
  std::string tenant;
  bool with_net = true;
  bool with_disk = true;
  std::uint64_t disk_image_mb = 15 * 1024;  // the paper's 15 GB virtual disk
  bool hvm = false;  // needs a device-emulation (QEMU) instance
  std::string image = "guest-linux";
  bool allow_bootloader = false;
};

class Platform {
 public:
  enum class IoKind { kNet, kDisk };

  virtual ~Platform() = default;

  virtual std::string_view name() const = 0;

  // Powers on the machine and brings up the control plane. Advances the
  // simulated clock through the boot sequence.
  virtual Status Boot() = 0;

  virtual StatusOr<DomainId> CreateGuest(const GuestSpec& spec) = 0;
  virtual Status DestroyGuest(DomainId guest) = 0;

  // Data-path access for a guest's workloads.
  virtual NetFront* netfront(DomainId guest) = 0;
  virtual BlkFront* blkfront(DomainId guest) = 0;
  virtual NetBack* netback_of(DomainId guest) = 0;
  virtual BlkBack* blkback_of(DomainId guest) = 0;

  // The domain hosting the given service for `guest` (Dom0 for everything
  // on the stock platform; the shard or QemuVM on Xoar).
  virtual DomainId ServiceDomainOf(ServiceKind kind, DomainId guest) = 0;

  // The spec the guest was created from (nullptr if unknown). Used by live
  // migration to rebuild the guest on the destination host.
  virtual const GuestSpec* guest_spec(DomainId guest) = 0;

  // Effective bulk rates (bits/second for net, bytes/second for disk) for
  // flow-level workloads, including any co-location interference.
  virtual double EffectiveNetRateBps(DomainId guest) = 0;
  virtual double EffectiveDiskRateBps(DomainId guest) = 0;

  Simulator& sim() { return sim_; }
  // Per-platform observability: metrics registry + event tracer stamped by
  // this platform's simulated clock. Enable tracing with
  // `obs().tracer().set_enabled(true)` before Boot() to capture the §5.2
  // boot phases (see OBSERVABILITY.md).
  Obs& obs() { return obs_; }
  const Obs& obs() const { return obs_; }
  Hypervisor& hv() { return *hv_; }
  XenStoreService& xenstore() { return *xs_; }

  // Boot milestones (Table 6.2).
  SimTime console_ready_at() const { return console_ready_at_; }
  SimTime network_ready_at() const { return network_ready_at_; }

  // Lets queued watch events / ring handshakes complete.
  void Settle(SimDuration duration = 200 * kMillisecond) {
    sim_.RunFor(duration);
  }

  // --- I/O stream accounting (drives the interference model) ---

  class IoStreamToken {
   public:
    IoStreamToken() = default;
    IoStreamToken(Platform* platform, IoKind kind)
        : platform_(platform), kind_(kind) {}
    IoStreamToken(IoStreamToken&& other) noexcept
        : platform_(other.platform_), kind_(other.kind_) {
      other.platform_ = nullptr;
    }
    IoStreamToken& operator=(IoStreamToken&& other) noexcept {
      Release();
      platform_ = other.platform_;
      kind_ = other.kind_;
      other.platform_ = nullptr;
      return *this;
    }
    IoStreamToken(const IoStreamToken&) = delete;
    IoStreamToken& operator=(const IoStreamToken&) = delete;
    ~IoStreamToken() { Release(); }

    void Release() {
      if (platform_ != nullptr) {
        platform_->EndIoStream(kind_);
        platform_ = nullptr;
      }
    }

   private:
    Platform* platform_ = nullptr;
    IoKind kind_ = IoKind::kNet;
  };

  [[nodiscard]] IoStreamToken BeginIoStream(IoKind kind) {
    (kind == IoKind::kNet ? net_streams_ : disk_streams_) += 1;
    OnIoStreamsChanged();
    return IoStreamToken(this, kind);
  }

  int net_streams() const { return net_streams_; }
  int disk_streams() const { return disk_streams_; }

 protected:
  Platform() { obs_.tracer().set_sim(&sim_); }

  void EndIoStream(IoKind kind) {
    (kind == IoKind::kNet ? net_streams_ : disk_streams_) -= 1;
    OnIoStreamsChanged();
  }

  // Platforms react to concurrency changes (interference model).
  virtual void OnIoStreamsChanged() {}

  Simulator sim_;
  Obs obs_;
  std::unique_ptr<Hypervisor> hv_;
  std::unique_ptr<XenStoreService> xs_;
  SimTime console_ready_at_ = 0;
  SimTime network_ready_at_ = 0;
  int net_streams_ = 0;
  int disk_streams_ = 0;

  friend class IoStreamToken;
};

}  // namespace xoar

#endif  // XOAR_SRC_CTL_PLATFORM_H_
