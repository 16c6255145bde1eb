#include "src/drv/blk.h"

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/drv/xenbus.h"

namespace xoar {

namespace {
// Largest single ring request, in sectors (matches blkif's 11-page segment
// limit closely enough: 64 sectors = 32 KiB).
constexpr std::uint32_t kMaxSectorsPerRequest = 64;
}  // namespace

// --- ExtentAllocator ---------------------------------------------------------

ExtentAllocator::ExtentAllocator(std::uint64_t begin, std::uint64_t end)
    : begin_(begin), end_(end) {
  if (begin < end) {
    runs_.emplace(begin, end - begin);
  }
}

std::optional<std::uint64_t> ExtentAllocator::Allocate(std::uint64_t bytes) {
  if (bytes == 0) {
    return begin_ <= end_ ? std::optional<std::uint64_t>(begin_)
                          : std::nullopt;
  }
  for (auto it = runs_.begin(); it != runs_.end(); ++it) {
    if (it->second < bytes) {
      continue;
    }
    const std::uint64_t offset = it->first;
    auto run = runs_.extract(it);
    if (run.mapped() > bytes) {
      run.key() += bytes;
      run.mapped() -= bytes;
      runs_.insert(std::move(run));
    }
    return offset;
  }
  return std::nullopt;
}

void ExtentAllocator::Free(std::uint64_t offset, std::uint64_t bytes) {
  if (bytes == 0) {
    return;
  }
  auto next = runs_.lower_bound(offset);
  if (next != runs_.end() && offset + bytes == next->first) {
    bytes += next->second;
    next = runs_.erase(next);
  }
  if (next != runs_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      prev->second += bytes;
      return;
    }
  }
  runs_.emplace_hint(next, offset, bytes);
}

// --- BlkBack -----------------------------------------------------------------

BlkBack::BlkBack(Hypervisor* hv, XenStoreService* xs, Simulator* sim,
                 DomainId self, DiskDevice* disk, Obs* obs)
    : hv_(hv),
      xs_(xs),
      sim_(sim),
      self_(self),
      disk_(disk),
      extents_(64 * kMiB, disk->geometry().capacity_bytes),
      obs_(Obs::OrGlobal(obs)),
      m_requests_(obs_->metrics().GetCounter("BlkBack.ring.requests")),
      m_bytes_(obs_->metrics().GetCounter("BlkBack.ring.bytes")),
      m_vbd_connects_(obs_->metrics().GetCounter("BlkBack.vbd.connects")) {}

Status BlkBack::Initialize() {
  XOAR_RETURN_IF_ERROR(xs_->Mkdir(self_, BackendRoot(self_, kVbdType)));
  available_ = true;
  obs_->tracer().Op(TraceCategory::kDriver, "blkback_init", self_.value());
  return Status::Ok();
}

Status BlkBack::CreateImage(const std::string& name, std::uint64_t bytes) {
  if (images_.count(name) > 0) {
    return AlreadyExistsError(StrFormat("image %s exists", name.c_str()));
  }
  std::optional<std::uint64_t> offset = extents_.Allocate(bytes);
  if (!offset.has_value()) {
    return ResourceExhaustedError("disk full");
  }
  images_.emplace(name, Image{*offset, bytes});
  return Status::Ok();
}

Status BlkBack::DeleteImage(const std::string& name) {
  auto it = images_.find(name);
  if (it == images_.end()) {
    return NotFoundError(StrFormat("no image %s", name.c_str()));
  }
  if (it->second.bound_vbds > 0) {
    return FailedPreconditionError(
        StrFormat("image %s still bound to %d VBD(s)", name.c_str(),
                  it->second.bound_vbds));
  }
  extents_.Free(it->second.offset, it->second.size);
  images_.erase(it);
  return Status::Ok();
}

StatusOr<std::uint64_t> BlkBack::ImageSize(const std::string& name) const {
  auto it = images_.find(name);
  if (it == images_.end()) {
    return NotFoundError(StrFormat("no image %s", name.c_str()));
  }
  return it->second.size;
}

Status BlkBack::BindImage(DomainId guest, const std::string& image) {
  auto img = images_.find(image);
  if (img == images_.end()) {
    return NotFoundError(StrFormat("no image %s", image.c_str()));
  }
  if (vbds_.count(guest) > 0) {
    return AlreadyExistsError(
        StrFormat("dom%u already has a VBD on this backend", guest.value()));
  }
  Vbd vbd;
  vbd.guest = guest;
  vbd.image = image;
  vbd.base_offset = img->second.offset;
  vbd.size_bytes = img->second.size;
  vbds_.emplace(guest, vbd);
  ++img->second.bound_vbds;

  // Advertise the backend half and let the guest read our state.
  const std::string back_dir = BackendDir(self_, guest, kVbdType);
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, back_dir + "/frontend-id",
                                  StrFormat("%u", guest.value())));
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, back_dir + "/state",
                 XenbusStateString(XenbusState::kInitWait)));
  XsNodePerms perms;
  perms.owner = self_;
  perms.acl[guest] = XsPerm::kRead;
  XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, back_dir + "/state", perms));

  // Watch the frontend's state node; fires immediately (covers the case the
  // frontend published first) and again on every state change.
  const std::string front_state = FrontendDir(guest, kVbdType) + "/state";
  return xs_->Watch(self_, front_state,
                    StrFormat("blkback-%u", guest.value()),
                    [this, guest](const XsWatchEvent&) {
                      OnFrontendStateChange(guest);
                    });
}

void BlkBack::OnFrontendStateChange(DomainId guest) {
  auto it = vbds_.find(guest);
  if (it == vbds_.end() || !available_) {
    return;
  }
  Vbd& vbd = it->second;
  StatusOr<std::string> state =
      xs_->Read(self_, FrontendDir(guest, kVbdType) + "/state");
  if (!state.ok()) {
    // A transiently unreadable frontend node (XenStore-Logic down, injected
    // timeout) would silently strand the handshake: the watch already fired
    // and nothing re-fires it. Retry on the backoff ladder.
    if (state.status().code() == StatusCode::kUnavailable) {
      ScheduleConnectRetry(guest);
    }
    return;
  }
  const XenbusState front_state = XenbusStateFromString(*state);
  if (front_state == XenbusState::kInitialised && !vbd.connected) {
    const Status status = ConnectVbd(vbd);
    if (status.ok()) {
      vbd.connect_backoff.Reset();
    } else if (status.code() == StatusCode::kUnavailable) {
      ScheduleConnectRetry(guest);
    } else {
      XLOG(kWarning) << "[blkback] VBD connect for dom" << guest.value()
                     << " failed permanently: " << status;
    }
  }
}

Status BlkBack::ConnectVbd(Vbd& vbd) {
  const std::string front_dir = FrontendDir(vbd.guest, kVbdType);
  XOAR_ASSIGN_OR_RETURN(std::string gref_str,
                        xs_->Read(self_, front_dir + "/ring-ref"));
  XOAR_ASSIGN_OR_RETURN(std::string port_str,
                        xs_->Read(self_, front_dir + "/event-channel"));
  const GrantRef gref(
      static_cast<std::uint32_t>(std::stoul(gref_str)));
  const EvtchnPort front_port(
      static_cast<std::uint32_t>(std::stoul(port_str)));

  XOAR_ASSIGN_OR_RETURN(MappedPage page,
                        hv_->MapGrant(self_, vbd.guest, gref));
  XOAR_ASSIGN_OR_RETURN(EvtchnPort port,
                        hv_->EvtchnBindInterdomain(self_, vbd.guest,
                                                   front_port));
  vbd.ring_gref = gref;
  vbd.ring_page = page.data;
  vbd.port = port;
  vbd.connected = true;
  const DomainId guest = vbd.guest;
  (void)hv_->EvtchnSetHandler(self_, vbd.port,
                              [this, guest] { ServiceRing(guest); });
  XOAR_RETURN_IF_ERROR(
      xs_->Write(self_, BackendDir(self_, guest, kVbdType) + "/state",
                 XenbusStateString(XenbusState::kConnected)));
  m_vbd_connects_->Increment();
  obs_->tracer().Op(TraceCategory::kDriver, "blkback_vbd_connect",
                    self_.value());
  XLOG(kDebug) << "[blkback] VBD connected for dom" << guest.value();
  // Drain anything the frontend pushed before we connected.
  ServiceRing(guest);
  return Status::Ok();
}

void BlkBack::ScheduleConnectRetry(DomainId guest) {
  auto it = vbds_.find(guest);
  if (it == vbds_.end() || it->second.retry_pending) {
    return;
  }
  Vbd& vbd = it->second;
  vbd.retry_pending = true;
  const SimDuration delay = vbd.connect_backoff.NextDelay();
  if (vbd.connect_backoff.Exhausted()) {
    XLOG(kWarning) << "[blkback] dom" << guest.value()
                   << " connect retries exhausted; continuing at max delay";
  }
  sim_->ScheduleAfter(delay, [this, guest] {
    auto vbd_it = vbds_.find(guest);
    if (vbd_it == vbds_.end()) {
      return;
    }
    vbd_it->second.retry_pending = false;
    if (!available_ || vbd_it->second.connected) {
      return;
    }
    OnFrontendStateChange(guest);
  });
}

void BlkBack::DisconnectVbd(Vbd& vbd) {
  if (!vbd.connected) {
    return;
  }
  vbd.connected = false;
  (void)hv_->UnmapGrant(self_, vbd.guest, vbd.ring_gref);
  (void)hv_->EvtchnClose(self_, vbd.port);
  vbd.ring_page = nullptr;
}

Status BlkBack::DetachVbd(DomainId guest) {
  auto it = vbds_.find(guest);
  if (it == vbds_.end()) {
    return NotFoundError(
        StrFormat("dom%u has no VBD on this backend", guest.value()));
  }
  DisconnectVbd(it->second);
  (void)xs_->Unwatch(self_, FrontendDir(guest, kVbdType) + "/state",
                     StrFormat("blkback-%u", guest.value()));
  // A bound image cannot be deleted, so its record is still there.
  --images_.at(it->second.image).bound_vbds;
  vbds_.erase(it);
  return Status::Ok();
}

void BlkBack::ServiceRing(DomainId guest) {
  auto it = vbds_.find(guest);
  if (it == vbds_.end() || !it->second.connected || !available_ ||
      it->second.drain_scheduled) {
    return;
  }
  // One drain event per kick, not one event per request: the demux overhead
  // is charged once and the drain below batches every request on the ring
  // (mirrors real netback/blkback, which process the whole ring per
  // interrupt and re-check before sleeping).
  Vbd& vbd = it->second;
  vbd.drain_scheduled = true;
  const SimDuration overhead = static_cast<SimDuration>(
      static_cast<double>(kBlkBackPerOpOverhead) * overhead_multiplier_);
  sim_->ScheduleAfter(overhead, [this, guest] { DrainRing(guest); });
}

void BlkBack::DrainRing(DomainId guest) {
  auto it = vbds_.find(guest);
  if (it == vbds_.end()) {
    return;
  }
  Vbd& vbd = it->second;
  vbd.drain_scheduled = false;
  if (!vbd.connected || !available_) {
    return;  // disconnected while the drain was in flight
  }
  BlkRing ring = BlkRing::Attach(vbd.ring_page);
  bool pushed_response = false;
  std::uint32_t budget = kBlkBackDrainBudget;
  while (budget > 0) {
    auto req = ring.PopRequest();
    if (!req) {
      break;
    }
    --budget;
    const BlkRingRequest request = *req;
    const std::uint64_t byte_offset =
        vbd.base_offset + request.sector * kSectorSize;
    const std::uint64_t byte_len =
        static_cast<std::uint64_t>(request.sector_count) * kSectorSize;
    std::int8_t status = 0;
    if (request.sector * kSectorSize + byte_len > vbd.size_bytes) {
      status = kBlkStatusFailed;  // out of range for this VBD
    } else if (io_fault_hook_ && io_fault_hook_(guest, request)) {
      status = kBlkStatusTransient;  // injected EIO; frontend retries
    }
    ++requests_served_;
    m_requests_->Increment();
    if (status != 0) {
      // Fail fast without touching the disk; one notification covers every
      // response pushed by this drain.
      ring.PushResponse(BlkRingResponse{request.id, status});
      pushed_response = true;
      continue;
    }
    bytes_moved_ += byte_len;
    m_bytes_->Increment(byte_len);
    // The disk serializes per-request service times internally (seek +
    // transfer, in submission order), so submitting the whole batch at
    // drain time preserves each request's completion offset.
    disk_->SubmitIo(byte_offset, static_cast<std::uint32_t>(byte_len),
                    request.is_write != 0, [this, guest, request] {
                      auto vbd_it = vbds_.find(guest);
                      if (vbd_it == vbds_.end() ||
                          !vbd_it->second.connected || !available_) {
                        return;  // completion lost; frontend retransmits
                      }
                      BlkRing r = BlkRing::Attach(vbd_it->second.ring_page);
                      if (r.PushResponse(BlkRingResponse{request.id, 0})) {
                        (void)hv_->EvtchnSend(self_, vbd_it->second.port);
                      }
                    });
  }
  if (pushed_response) {
    (void)hv_->EvtchnSend(self_, vbd.port);
  }
  // RING_FINAL_CHECK_FOR_REQUESTS: the frontend may have pushed more while
  // we drained (its kick was absorbed by drain_scheduled), or the budget
  // ran out. Either way the leftovers get their own drain event.
  if (ring.PendingRequests() > 0) {
    ServiceRing(guest);
  }
}

void BlkBack::Suspend() {
  obs_->tracer().Op(TraceCategory::kDriver, "blkback_suspend", self_.value());
  available_ = false;
  for (auto& [guest, vbd] : vbds_) {
    DisconnectVbd(vbd);
    (void)xs_->Write(self_, BackendDir(self_, guest, kVbdType) + "/state",
                     XenbusStateString(XenbusState::kClosing));
  }
}

void BlkBack::Resume() {
  obs_->tracer().Op(TraceCategory::kDriver, "blkback_resume", self_.value());
  available_ = true;
  // Re-advertise; frontends watching our state renegotiate from scratch. If
  // XenStore is itself down (concurrent Logic microreboot, injected
  // timeout), the write MUST be retried: this advertisement is the only
  // signal frontends get that the backend is back, so giving up would wedge
  // every VBD permanently. Unbounded retry at capped delay (RESILIENCE.md).
  bool transient_failure = false;
  for (auto& [guest, vbd] : vbds_) {
    const Status status =
        xs_->Write(self_, BackendDir(self_, guest, kVbdType) + "/state",
                   XenbusStateString(XenbusState::kInitWait));
    if (!status.ok() && status.code() == StatusCode::kUnavailable) {
      transient_failure = true;
    }
  }
  if (!transient_failure) {
    resume_backoff_.Reset();
    return;
  }
  if (resume_retry_pending_) {
    return;
  }
  resume_retry_pending_ = true;
  sim_->ScheduleAfter(resume_backoff_.NextDelay(), [this] {
    resume_retry_pending_ = false;
    if (available_) {
      Resume();
    }
  });
}

bool BlkBack::IsVbdConnected(DomainId guest) const {
  const Domain* self = hv_->domain(self_);
  if (self == nullptr || self->state() != DomainState::kRunning) {
    return false;
  }
  auto it = vbds_.find(guest);
  return it != vbds_.end() && it->second.connected && available_;
}

// --- BlkFront ----------------------------------------------------------------

BlkFront::BlkFront(Hypervisor* hv, XenStoreService* xs, Simulator* sim,
                   DomainId self, DomainId backend)
    : hv_(hv),
      xs_(xs),
      sim_(sim),
      self_(self),
      backend_(backend),
      m_retry_attempts_(
          hv->obs()->metrics().GetCounter("BlkFront.retry.attempts")),
      m_retry_recovered_(
          hv->obs()->metrics().GetCounter("BlkFront.retry.recovered")),
      m_retry_exhausted_(
          hv->obs()->metrics().GetCounter("BlkFront.retry.exhausted")),
      m_backoff_ms_(hv->obs()->metrics().GetHistogram(
          "BlkFront.retry.backoff_ms",
          Histogram::ExponentialBounds(1.0, 2.0, 10))) {
  xs_backoff_ = ExponentialBackoff(retry_.backoff);
}

BlkFront::~BlkFront() {
  // The guest died; scheduled timers and watch deliveries may still be in
  // the simulator's queue. Flip the guard so they no-op.
  *alive_ = false;
  for (auto& [id, io] : outstanding_) {
    if (io.timeout_event.valid()) {
      (void)sim_->Cancel(io.timeout_event);
    }
  }
}

void BlkFront::set_retry_config(const RetryConfig& config) {
  retry_ = config;
  xs_backoff_ = ExponentialBackoff(retry_.backoff);
}

Status BlkFront::Connect() {
  if (handshake_started_) {
    return AlreadyExistsError("frontend handshake already started");
  }
  handshake_started_ = true;
  // The ring lives in one page of guest memory, reused across reconnects.
  XOAR_ASSIGN_OR_RETURN(ring_pfn_, hv_->memory().AllocatePages(self_, 1));
  ring_page_ = hv_->memory().PageData(ring_pfn_);
  Republish();
  // Watch the backend state: reconnect when a microrebooted backend
  // re-advertises, mark connected when it reports Connected. Deliveries are
  // asynchronous, so guard against this frontend dying first.
  const std::string back_state =
      BackendDir(backend_, self_, kVbdType) + "/state";
  return xs_->Watch(self_, back_state, "blkfront",
                    [this, alive = alive_](const XsWatchEvent&) {
                      if (*alive) {
                        OnBackendStateChange();
                      }
                    });
}

void BlkFront::Republish() {
  const Status status = DoRepublish();
  if (status.ok()) {
    xs_backoff_.Reset();
    return;
  }
  if (status.code() == StatusCode::kUnavailable) {
    // XenStore (or the grant/evtchn path) transiently down mid-handshake.
    // Nothing re-fires this publish, so retry it ourselves.
    ScheduleXsRetry(/*republish=*/true);
    return;
  }
  XLOG(kWarning) << "[blkfront] republish failed permanently: " << status;
}

Status BlkFront::DoRepublish() {
  // Retire the previous generation's grant (ignore failure: the backend may
  // still hold a dangling mapping if it crashed rather than suspended).
  if (ring_gref_.valid()) {
    (void)hv_->EndGrantAccess(self_, ring_gref_);
    ring_gref_ = GrantRef::Invalid();
  }
  awaiting_connect_ = true;
  // Fresh grant + event channel for this connection generation.
  XOAR_ASSIGN_OR_RETURN(
      GrantRef gref,
      hv_->GrantAccess(self_, backend_, ring_pfn_, /*writable=*/true));
  XOAR_ASSIGN_OR_RETURN(EvtchnPort port,
                        hv_->EvtchnAllocUnbound(self_, backend_));
  ring_gref_ = gref;
  port_ = port;
  BlkRing::Create(ring_page_);  // reset indices for the new generation
  (void)hv_->EvtchnSetHandler(self_, port_, [this, alive = alive_] {
    if (*alive) {
      OnResponse();
    }
  });

  const std::string front_dir = FrontendDir(self_, kVbdType);
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/backend-id",
                                  StrFormat("%u", backend_.value())));
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/ring-ref",
                                  StrFormat("%u", ring_gref_.value())));
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/event-channel",
                                  StrFormat("%u", port_.value())));
  // Give the backend read access to our device directory.
  for (const char* leaf : {"/backend-id", "/ring-ref", "/event-channel"}) {
    XsNodePerms perms;
    perms.owner = self_;
    perms.acl[backend_] = XsPerm::kRead;
    XOAR_RETURN_IF_ERROR(xs_->SetPerms(self_, front_dir + leaf, perms));
  }
  XOAR_RETURN_IF_ERROR(xs_->Write(self_, front_dir + "/state",
                                  XenbusStateString(XenbusState::kInitialised)));
  XsNodePerms state_perms;
  state_perms.owner = self_;
  state_perms.acl[backend_] = XsPerm::kRead;
  return xs_->SetPerms(self_, front_dir + "/state", state_perms);
}

void BlkFront::ScheduleXsRetry(bool republish) {
  if (republish) {
    xs_retry_republish_ = true;
  }
  if (xs_retry_pending_) {
    return;
  }
  xs_retry_pending_ = true;
  const SimDuration delay = xs_backoff_.NextDelay();
  if (xs_backoff_.Exhausted()) {
    // Handshake retries must not give up: the backend's next advertisement
    // may never be readable if we stop looking (RESILIENCE.md). Stay at the
    // capped delay instead.
    XLOG(kWarning)
        << "[blkfront] XenStore retries exhausted; continuing at max delay";
  }
  sim_->ScheduleAfter(delay, [this, alive = alive_] {
    if (!*alive) {
      return;
    }
    xs_retry_pending_ = false;
    const bool republish_now = xs_retry_republish_;
    xs_retry_republish_ = false;
    if (republish_now) {
      Republish();
    } else {
      OnBackendStateChange();
    }
  });
}

void BlkFront::OnBackendStateChange() {
  StatusOr<std::string> state =
      xs_->Read(self_, BackendDir(backend_, self_, kVbdType) + "/state");
  if (!state.ok()) {
    // The watch told us the backend changed state but we could not read
    // which; dropping the event would desynchronise the handshake. Re-read
    // after backoff.
    if (state.status().code() == StatusCode::kUnavailable) {
      ScheduleXsRetry(/*republish=*/false);
    }
    return;
  }
  xs_backoff_.Reset();
  switch (XenbusStateFromString(*state)) {
    case XenbusState::kConnected: {
      if (connected_) {
        break;
      }
      connected_ = true;
      awaiting_connect_ = false;
      // Retransmit everything that was in flight when the backend went
      // down, then drain the queue. Response deadlines are re-armed when
      // the requests go back on the ring.
      if (!outstanding_.empty()) {
        std::vector<PendingIo> retry;
        retry.reserve(outstanding_.size());
        for (auto& [id, io] : outstanding_) {
          if (io.timeout_event.valid()) {
            (void)sim_->Cancel(io.timeout_event);
            io.timeout_event = EventId::Invalid();
          }
          retry.push_back(std::move(io));
        }
        outstanding_.clear();
        retransmits_ += retry.size();
        for (auto it = retry.rbegin(); it != retry.rend(); ++it) {
          queue_.push_front(std::move(*it));
        }
      }
      PumpQueue();
      break;
    }
    case XenbusState::kClosing:
      connected_ = false;
      break;
    case XenbusState::kInitWait:
      // Backend (re-)advertised. Republish unless our current generation is
      // already awaiting its Connected ack — the immediate watch fire at
      // registration would otherwise double-publish.
      if (connected_ || (handshake_started_ && !awaiting_connect_)) {
        connected_ = false;
        Republish();
      }
      break;
    default:
      break;
  }
}

void BlkFront::SubmitIo(std::uint64_t sector, std::uint32_t sector_count,
                        bool is_write, IoDone done) {
  while (sector_count > 0) {
    const std::uint32_t chunk = std::min(sector_count, kMaxSectorsPerRequest);
    PendingIo io;
    io.request = BlkRingRequest{next_id_++, sector, chunk,
                                static_cast<std::uint8_t>(is_write ? 1 : 0)};
    // Only the final chunk carries the completion callback.
    if (chunk == sector_count) {
      io.done = std::move(done);
    }
    queue_.push_back(std::move(io));
    sector += chunk;
    sector_count -= chunk;
  }
  PumpQueue();
}

void BlkFront::ReadBytes(std::uint64_t offset, std::uint64_t bytes,
                         IoDone done) {
  const std::uint64_t first = offset / kSectorSize;
  const std::uint64_t last = (offset + bytes + kSectorSize - 1) / kSectorSize;
  SubmitIo(first, static_cast<std::uint32_t>(last - first), /*is_write=*/false,
           std::move(done));
}

void BlkFront::WriteBytes(std::uint64_t offset, std::uint64_t bytes,
                         IoDone done) {
  const std::uint64_t first = offset / kSectorSize;
  const std::uint64_t last = (offset + bytes + kSectorSize - 1) / kSectorSize;
  SubmitIo(first, static_cast<std::uint32_t>(last - first), /*is_write=*/true,
           std::move(done));
}

void BlkFront::PumpQueue() {
  if (!connected_ || ring_page_ == nullptr) {
    return;
  }
  BlkRing ring = BlkRing::Attach(ring_page_);
  bool pushed = false;
  while (!queue_.empty() && !ring.FullRequests()) {
    PendingIo io = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t id = io.request.id;
    ring.PushRequest(io.request);
    // Arm the per-attempt response deadline. If the backend never answers
    // (dropped notification, lost completion), OnRequestTimeout retries.
    io.timeout_event = sim_->ScheduleAfter(
        retry_.request_timeout, [this, alive = alive_, id] {
          if (*alive) {
            OnRequestTimeout(id);
          }
        });
    outstanding_.emplace(id, std::move(io));
    pushed = true;
  }
  if (pushed) {
    (void)hv_->EvtchnSend(self_, port_);
  }
}

void BlkFront::OnResponse() {
  if (ring_page_ == nullptr) {
    return;
  }
  BlkRing ring = BlkRing::Attach(ring_page_);
  while (auto rsp = ring.PopResponse()) {
    auto it = outstanding_.find(rsp->id);
    if (it == outstanding_.end()) {
      continue;  // stale response from a previous connection generation
    }
    PendingIo io = std::move(it->second);
    outstanding_.erase(it);
    if (io.timeout_event.valid()) {
      (void)sim_->Cancel(io.timeout_event);
      io.timeout_event = EventId::Invalid();
    }
    if (rsp->status == kBlkStatusTransient) {
      RetryIo(std::move(io));
      continue;
    }
    ++completed_ios_;
    if (rsp->status == 0 && io.attempts > 0) {
      ++retry_recovered_;
      m_retry_recovered_->Increment();
    }
    if (io.done) {
      io.done(rsp->status == 0
                  ? Status::Ok()
                  : InternalError("block I/O failed at backend"));
    }
  }
  PumpQueue();
}

void BlkFront::OnRequestTimeout(std::uint64_t id) {
  auto it = outstanding_.find(id);
  if (it == outstanding_.end()) {
    return;  // response arrived just before the deadline fired
  }
  if (!connected_) {
    // The backend is down; the reconnect path owns these requests (it will
    // retransmit them and arm fresh deadlines). A timeout here is not an
    // error signal.
    it->second.timeout_event = EventId::Invalid();
    return;
  }
  PendingIo io = std::move(it->second);
  outstanding_.erase(it);
  io.timeout_event = EventId::Invalid();
  RetryIo(std::move(io));
}

void BlkFront::RetryIo(PendingIo io) {
  ++io.attempts;
  ++retry_attempts_;
  m_retry_attempts_->Increment();
  if (io.attempts > retry_.backoff.max_attempts) {
    ++retry_exhausted_;
    m_retry_exhausted_->Increment();
    XLOG(kWarning) << "[blkfront] request " << io.request.id
                   << " exhausted retries";
    if (io.done) {
      io.done(UnavailableError(
          StrFormat("block I/O failed after %d retries", io.attempts - 1)));
    }
    return;
  }
  const SimDuration delay = retry_.backoff.DelayForAttempt(io.attempts - 1);
  m_backoff_ms_->Observe(ToMilliseconds(delay));
  sim_->ScheduleAfter(delay, [this, alive = alive_,
                              io = std::move(io)]() mutable {
    if (!*alive) {
      return;
    }
    queue_.push_front(std::move(io));
    PumpQueue();
  });
}

}  // namespace xoar
