#include "src/drv/blk.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "src/base/strings.h"

namespace xoar {

namespace {
// Largest single ring request, in sectors (matches blkif's 11-page segment
// limit closely enough: 64 sectors = 32 KiB). The frontend chunks to it and
// the backend refuses anything larger.
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

BlkBack::BlkBack(Hypervisor* hv, XenStoreService* xs, DomainId self,
                 DiskDevice* disk)
    : disk_(disk),
      extents_(64 * kMiB, disk->geometry().capacity_bytes),
      m_requests_(hv->obs()->metrics().GetCounter("BlkBack.ring.requests")),
      m_bytes_(hv->obs()->metrics().GetCounter("BlkBack.ring.bytes")),
      xenbus_(kVbdDevice, hv, xs, self) {}

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
  // Serves one request off the VBD's ring: the status to answer with now,
  // or nullopt once it is on the disk (its completion answers it). A lambda
  // so that the core's drain, instantiated here, inlines it.
  auto serve = [this](XenbusBackend::Channel& channel,
                      const BlkRingRequest& request)
      -> std::optional<std::int8_t> {
    const Vbd& vbd = static_cast<const Vbd&>(channel);
    // Every field is guest-written, so the range check does no arithmetic
    // on them: a byte offset computed from a far-away sector could wrap
    // back into the image.
    const std::uint64_t image_sectors = vbd.image->size / kSectorSize;
    std::int8_t status = 0;
    if (request.sector_count > kMaxSectorsPerRequest ||
        request.sector_count > image_sectors ||
        request.sector > image_sectors - request.sector_count) {
      status = kBlkStatusFailed;  // malformed or out of range for this VBD
    } else if (io_fault_hook_ && io_fault_hook_(vbd.guest, request)) {
      status = kRingStatusTransient;  // injected EIO; frontend retries
    }
    ++requests_served_;
    m_requests_->Increment();
    if (status != 0) {
      return status;  // fail fast without touching the disk
    }
    const std::uint32_t byte_len = request.sector_count * kSectorSize;
    bytes_moved_ += byte_len;
    m_bytes_->Increment(byte_len);
    // The disk serializes per-request service times internally (seek +
    // transfer, in submission order), so submitting the whole batch at
    // drain time preserves each request's completion offset.
    disk_->SubmitIo(vbd.image->offset + request.sector * kSectorSize,
                    byte_len, request.is_write != 0,
                    [this, guest = vbd.guest, id = request.id] {
                      xenbus_.Respond<BlkRing>(guest, id, 0);
                    });
    return std::nullopt;
  };
  return xenbus_.Attach<BlkRing>(guest, std::make_unique<Vbd>(&img->second),
                                 serve);
}

// --- BlkFront ----------------------------------------------------------------

Status BlkFront::Connect() {
  return xenbus_.Connect([this] {
    xenbus_.CompleteResponses();
    xenbus_.Pump();
  });
}

void BlkFront::SubmitIo(std::uint64_t sector, std::uint32_t sector_count,
                        bool is_write, IoDone done) {
  while (sector_count > 0) {
    const std::uint32_t chunk = std::min(sector_count, kMaxSectorsPerRequest);
    // Only the final chunk carries the completion callback.
    xenbus_.Enqueue(BlkRingRequest{0, sector, chunk,
                                   static_cast<std::uint8_t>(is_write ? 1 : 0)},
                    chunk == sector_count ? std::move(done) : nullptr);
    sector += chunk;
    sector_count -= chunk;
  }
  xenbus_.Pump();
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

}  // namespace xoar
