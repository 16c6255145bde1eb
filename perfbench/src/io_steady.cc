// io_steady: one host with 32 guests, each keeping a fixed number of
// requests outstanding (a closed loop per stream): one sequential and one
// random 4 KiB block stream through BlkFront (reads and writes mixed by the
// seed), two MTU frames out through NetFront::SendFrame, and two frames in
// through NetBack::InjectRx. A Round advances the simulator 10 ms. The load
// runs in the sim kernel, the hypervisor (grants, event channels, rings)
// and the split drivers; XenStore and the control plane are idle after the
// handshakes, so control-plane density fixes should leave it unchanged.
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
using xoar::SimTime;
using xoar::Status;

constexpr int kGuests = 32;
constexpr std::uint64_t kImageMb = 256;
constexpr std::uint64_t kIoBytes = 4096;
constexpr std::uint32_t kFrameBytes = 1500;
constexpr int kTxDepth = 2;
constexpr int kRxDepth = 2;
// Per-guest pause between an rx frame's delivery and the next injection:
// keeps inbound traffic near the NIC's outbound frame rate.
constexpr xoar::SimDuration kRxGap = 400 * xoar::kMicrosecond;
constexpr xoar::SimDuration kRoundSpan = 10 * xoar::kMillisecond;

class IoSteady : public Workload {
 public:
  explicit IoSteady(Tracer* tracer) : Workload(tracer) {}

  Status Setup(std::uint64_t seed, Probes*) override {
    rng_.Seed(seed);
    platform_ = std::make_unique<xoar::XoarPlatform>();
    XOAR_RETURN_IF_ERROR(platform_->Boot());
    for (int i = 0; i < kGuests; ++i) {
      xoar::GuestSpec spec;
      spec.name = xoar::StrFormat("io-%d", i);
      spec.memory_mb = 64;
      spec.vcpus = 1;
      spec.tenant = xoar::StrFormat("tenant-%d", i % 4);
      spec.disk_image_mb = kImageMb;
      XOAR_ASSIGN_OR_RETURN(DomainId id, platform_->CreateGuest(spec));
      Guest guest;
      guest.id = id;
      guest.blk = platform_->blkfront(id);
      guest.net = platform_->netfront(id);
      guest.back = platform_->netback_of(id);
      guest.seq_offset = rng_.NextBelow(kImageMb * xoar::kMiB / kIoBytes) *
                         kIoBytes;
      if (guest.blk == nullptr || guest.net == nullptr ||
          guest.back == nullptr) {
        return xoar::InternalError("guest is missing a split driver");
      }
      guests_.push_back(std::move(guest));
      created_ids_.Add(id.value());
    }
    platform_->Settle(xoar::kSecond);
    for (int g = 0; g < kGuests; ++g) {
      guests_[g].net->set_rx_handler([this, g](std::uint32_t) { OnRx(g); });
      SubmitBlk(g, /*sequential=*/true);
      SubmitBlk(g, /*sequential=*/false);
      for (int d = 0; d < kTxDepth; ++d) {
        SubmitTx(g);
      }
      for (int d = 0; d < kRxDepth; ++d) {
        SubmitRx(g);
      }
    }
    return Status::Ok();
  }

  void Round(std::uint64_t round) override {
    Span span(tracer_, "sim.RunFor", Layer::kSim, round);
    platform_->sim().RunFor(kRoundSpan);
  }

  // 5 s of simulated time.
  std::uint64_t checkpoint_rounds() const override { return 500; }

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
    running_ = false;
    platform_->sim().RunFor(5 * xoar::kSecond);  // drain in-flight requests
    int outstanding = 0;
    std::uint64_t dropped = 0;
    for (const Guest& guest : guests_) {
      outstanding += guest.outstanding;
      dropped += guest.back->frames_dropped();
    }
    if (outstanding != 0 || submitted_ != tally_.attempted) {
      failures->push_back(xoar::StrFormat(
          "%llu requests submitted, %llu completed, %d still outstanding",
          static_cast<unsigned long long>(submitted_),
          static_cast<unsigned long long>(tally_.attempted), outstanding));
    }
    if (tally_.failed != 0 || dropped != 0) {
      failures->push_back(xoar::StrFormat(
          "%llu requests failed, %llu frames dropped",
          static_cast<unsigned long long>(tally_.failed),
          static_cast<unsigned long long>(dropped)));
    }
  }

  std::vector<Metric> Figures(double loop_s) override {
    return {{"io_per_s", static_cast<double>(tally_.ios) / loop_s, "1/s"}};
  }

 private:
  struct InFlight {
    SimTime sim;
    Nanos host;
  };
  struct Guest {
    DomainId id;
    xoar::BlkFront* blk = nullptr;
    xoar::NetFront* net = nullptr;
    xoar::NetBack* back = nullptr;
    std::uint64_t seq_offset = 0;
    std::deque<InFlight> rx_in_flight;  // frames injected, not yet delivered
    int outstanding = 0;
  };

  InFlight Begin(int g) {
    ++submitted_;
    ++guests_[g].outstanding;
    return InFlight{platform_->sim().Now(), NowNs()};
  }

  void Complete(int g, const InFlight& request, const Status& status) {
    --guests_[g].outstanding;
    tally_.op_ns.Add(NowNs() - request.host);
    tally_.io_sim_ns.Add(
        static_cast<Nanos>(platform_->sim().Now() - request.sim));
    Note(status);
    if (status.ok()) {
      ++tally_.ops;
      ++tally_.ios;
    }
  }

  void SubmitBlk(int g, bool sequential) {
    Guest& guest = guests_[g];
    constexpr std::uint64_t kImageBytes = kImageMb * xoar::kMiB;
    std::uint64_t offset;
    if (sequential) {
      offset = guest.seq_offset;
      guest.seq_offset = (guest.seq_offset + kIoBytes) % kImageBytes;
    } else {
      offset = rng_.NextBelow(kImageBytes / kIoBytes) * kIoBytes;
    }
    const bool write = rng_.NextBool(0.5);
    const InFlight request = Begin(g);
    Span span(tracer_,
              write ? "drv.BlkFront.WriteBytes" : "drv.BlkFront.ReadBytes",
              Layer::kDrv, next_op_++);
    auto done = [this, g, sequential, request](Status status) {
      Complete(g, request, status);
      if (running_) {
        SubmitBlk(g, sequential);
      }
    };
    if (write) {
      guest.blk->WriteBytes(offset, kIoBytes, std::move(done));
    } else {
      guest.blk->ReadBytes(offset, kIoBytes, std::move(done));
    }
  }

  void SubmitTx(int g) {
    const InFlight request = Begin(g);
    Span span(tracer_, "drv.NetFront.SendFrame", Layer::kDrv, next_op_++);
    guests_[g].net->SendFrame(kFrameBytes, [this, g, request](Status status) {
      Complete(g, request, status);
      if (running_) {
        SubmitTx(g);
      }
    });
  }

  void SubmitRx(int g) {
    Guest& guest = guests_[g];
    const InFlight request = Begin(g);
    bool accepted;
    {
      Span span(tracer_, "drv.NetBack.InjectRx", Layer::kDrv, next_op_++);
      accepted = guest.back->InjectRx(guest.id, kFrameBytes);
    }
    if (accepted) {
      guest.rx_in_flight.push_back(request);
    } else {
      Complete(g, request, xoar::UnavailableError("rx frame dropped"));
      ScheduleRx(g);
    }
  }

  void OnRx(int g) {
    Guest& guest = guests_[g];
    if (guest.rx_in_flight.empty()) {
      return;
    }
    const InFlight request = guest.rx_in_flight.front();
    guest.rx_in_flight.pop_front();
    Complete(g, request, Status::Ok());
    ScheduleRx(g);
  }

  void ScheduleRx(int g) {
    if (running_) {
      platform_->sim().ScheduleAfter(kRxGap, [this, g] {
        if (running_) {
          SubmitRx(g);
        }
      });
    }
  }

  xoar::Rng rng_{0};
  std::vector<Guest> guests_;
  Fnv64 created_ids_;
  bool running_ = true;
  std::uint64_t submitted_ = 0;
  std::uint64_t next_op_ = 0;
  // Declared last so it is destroyed first: its simulator holds callbacks
  // that point back into this object.
  std::unique_ptr<xoar::XoarPlatform> platform_;
};

}  // namespace

std::unique_ptr<Workload> MakeIoSteady(Tracer* tracer) {
  return std::make_unique<IoSteady>(tracer);
}

}  // namespace perfbench
