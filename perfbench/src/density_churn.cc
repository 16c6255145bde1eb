// density_churn: one host with 16 XenStore-State shards fills to a standing
// population of small guests, then churns: destroy the oldest guest, create
// a new one, one at a time. One caller, depth 1. The load runs in the
// control plane (Toolstack/Builder), XenStore and the BlkBack image
// allocator; the sim kernel barely runs. Seeded disk sizes (4 or 8 MB)
// fragment the disk, so first-fit reuse after DeleteImage is exercised.
//
// DestroyGuest leaves the guest's /local/domain/<id> directory and both
// backend entries in XenStore. The benchmark removes them after each destroy,
// as a toolstack's `xenstore-rm` would, so the population -- and the cost
// of every request that walks it -- stays constant through the run; the
// nodes removed per destroy are reported as xs_nodes_left_per_destroy.
#include <deque>
#include <memory>

#include "perfbench/src/workload.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"

namespace perfbench {
namespace {

using xoar::DomainId;
using xoar::Status;
using xoar::StatusOr;

constexpr int kPopulation = 2000;
constexpr int kShards = 16;
constexpr int kTenants = 64;
constexpr std::uint64_t kGuestMb = 16;
constexpr int kProbeRepeats = 31;

class DensityChurn : public Workload {
 public:
  explicit DensityChurn(Tracer* tracer) : Workload(tracer) {}

  Status Setup(std::uint64_t seed, Probes* probes) override {
    rng_.Seed(seed);
    xoar::XoarPlatform::Config config;
    config.machine_memory_gb =
        8 + (static_cast<std::uint64_t>(kPopulation) * kGuestMb * 2) / 1024;
    config.xenstore_state_shards = kShards;
    config.console_manager_enabled = false;
    platform_ = std::make_unique<xoar::XoarPlatform>(config);
    XOAR_RETURN_IF_ERROR(platform_->Boot());
    scans_at_boot_ = platform_->hv().domain_table_scans();
    live_at_boot_ = platform_->hv().LiveDomainCount();
    for (int i = 1; i <= kPopulation; ++i) {
      XOAR_RETURN_IF_ERROR(CreateOne().status());
      if (probes != nullptr && i == kPopulation / 2) {
        RunProbes(&probes->image_half_us, &probes->read_half_us);
      }
    }
    if (probes != nullptr) {
      RunProbes(&probes->image_full_us, &probes->read_full_us);
    }
    nodes_after_fill_ = platform_->xenstore().store().NodeCount();
    return Status::Ok();
  }

  void Round(std::uint64_t round) override {
    const DomainId victim = live_.front();
    live_.pop_front();
    const DomainId netback = platform_->netback_of(victim)->self();
    const DomainId blkback = platform_->blkback_of(victim)->self();
    {
      Span span(tracer_, "ctl.DestroyGuest", Layer::kCtl, round);
      const Nanos start = NowNs();
      const Status destroyed = platform_->DestroyGuest(victim);
      tally_.aux_ns.Add(NowNs() - start);
      Note(destroyed);
    }
    {
      Span span(tracer_, "xs.RemoveLeftovers", Layer::kXs, round);
      RemoveLeftovers(victim, netback, blkback);
    }
    Span span(tracer_, "ctl.CreateGuest", Layer::kCtl, round);
    const Nanos start = NowNs();
    const StatusOr<DomainId> created = CreateOne();
    tally_.op_ns.Add(NowNs() - start);
    Note(created.status());
    if (created.ok()) {
      ++tally_.ops;
      ++tally_.creates;
    }
  }

  std::uint64_t checkpoint_rounds() const override { return 300; }

  WorkCounters Counters() override {
    WorkCounters counters;
    AddHostCounters(platform_->sim(), platform_->hv(), platform_->xenstore(),
                    platform_->obs(), &counters);
    return counters;
  }

  std::size_t PendingEvents() override {
    return platform_->sim().PendingEvents();
  }

  std::uint64_t StateDigest() override {
    Fnv64 digest;
    digest.Add(platform_->sim().Now());
    digest.Add(created_ids_.value());
    digest.Add(platform_->xenstore().store().NodeCount());
    AddAudit(platform_->audit(), &digest);
    return digest.value();
  }

  void Finish(std::vector<std::string>* failures) override {
    const std::uint64_t scans =
        platform_->hv().domain_table_scans() - scans_at_boot_;
    if (scans != 0) {
      failures->push_back(xoar::StrFormat(
          "%llu domain-table scans on the create/destroy path",
          static_cast<unsigned long long>(scans)));
    }
    const std::size_t live =
        platform_->hv().LiveDomainCount() - live_at_boot_;
    if (live != static_cast<std::size_t>(kPopulation) ||
        live_.size() != static_cast<std::size_t>(kPopulation)) {
      failures->push_back(xoar::StrFormat(
          "standing population is %zu domains (%zu tracked), want %d", live,
          live_.size(), kPopulation));
    }
    const std::size_t nodes = platform_->xenstore().store().NodeCount();
    if (nodes != nodes_after_fill_) {
      failures->push_back(xoar::StrFormat(
          "XenStore holds %zu nodes after churn, %zu after the fill", nodes,
          nodes_after_fill_));
    }
    if (tally_.failed != 0) {
      failures->push_back(xoar::StrFormat(
          "%llu create/destroy calls failed",
          static_cast<unsigned long long>(tally_.failed)));
    }
  }

  std::vector<Metric> Figures(double loop_s) override {
    return {
        {"create_per_s", static_cast<double>(tally_.creates) / loop_s, "1/s"},
        {"create_p50_ms", tally_.op_ns.PercentileNs(0.50) / 1e6, "ms"},
        {"create_p99_ms", tally_.op_ns.PercentileNs(0.99) / 1e6, "ms"},
        {"destroy_p50_ms", tally_.aux_ns.PercentileNs(0.50) / 1e6, "ms"},
        {"xs_nodes_left_per_destroy",
         static_cast<double>(leftover_nodes_) /
             static_cast<double>(tally_.creates),
         "count"},
    };
  }

 private:
  StatusOr<DomainId> CreateOne() {
    // Seeded tenant and disk size; every guest is small (VDI-style), so
    // memory is never the binding constraint.
    xoar::GuestSpec spec;
    spec.name = xoar::StrFormat("vdi-%d", next_name_++);
    spec.memory_mb = kGuestMb;
    spec.vcpus = 1;
    spec.tenant = xoar::StrFormat("tenant-%d",
                                  static_cast<int>(rng_.NextBelow(kTenants)));
    spec.disk_image_mb = rng_.NextBool(0.5) ? 4 : 8;
    StatusOr<DomainId> guest = platform_->CreateGuest(spec);
    if (guest.ok()) {
      live_.push_back(*guest);
      created_ids_.Add(guest->value());
    }
    return guest;
  }

  void RemoveLeftovers(DomainId guest, DomainId netback, DomainId blkback) {
    xoar::XsShardedStore& store = platform_->xenstore().store();
    const DomainId manager =
        platform_->shard_domain(xoar::ShardClass::kXenStoreLogic);
    const std::size_t before = store.NodeCount();
    for (const std::string& path :
         {xoar::StrFormat("/local/domain/%u", guest.value()),
          xoar::StrFormat("/local/domain/%u/backend/vif/%u", netback.value(),
                          guest.value()),
          xoar::StrFormat("/local/domain/%u/backend/vbd/%u", blkback.value(),
                          guest.value())}) {
      (void)store.Remove(manager, path);  // NOT_FOUND once destroy cleans up
    }
    leftover_nodes_ += before - store.NodeCount();
  }

  // Median host time of a BlkBack image create+delete and of a XenStore
  // read by the newest guest. Both leave the system as they found it.
  void RunProbes(double* image_us, double* read_us) {
    xoar::BlkBack& blkback = platform_->blkback();
    const DomainId reader = live_.back();
    const std::string path =
        xoar::StrFormat("/local/domain/%u/name", reader.value());
    std::vector<double> image;
    std::vector<double> read;
    for (int i = 0; i < kProbeRepeats; ++i) {
      Nanos start = NowNs();
      (void)blkback.CreateImage("perfbench-probe", 4 * xoar::kMiB);
      (void)blkback.DeleteImage("perfbench-probe");
      image.push_back(ToMicros(NowNs() - start));
      start = NowNs();
      (void)platform_->xenstore().Read(reader, path);
      read.push_back(ToMicros(NowNs() - start));
    }
    *image_us = Percentile(image, 0.5);
    *read_us = Percentile(read, 0.5);
  }

  xoar::Rng rng_{0};
  std::unique_ptr<xoar::XoarPlatform> platform_;
  std::deque<DomainId> live_;  // oldest first
  Fnv64 created_ids_;
  int next_name_ = 0;
  std::uint64_t scans_at_boot_ = 0;
  std::size_t live_at_boot_ = 0;
  std::size_t nodes_after_fill_ = 0;
  std::uint64_t leftover_nodes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDensityChurn(Tracer* tracer) {
  return std::make_unique<DensityChurn>(tracer);
}

}  // namespace perfbench
