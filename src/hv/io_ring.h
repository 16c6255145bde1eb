// Shared-memory I/O rings (§4.3), modeled on Xen's public/io/ring.h.
//
// A ring lives inside a single granted page: a small header of producer and
// consumer indices followed by fixed-size request and response arrays. The
// frontend and backend each construct an IoRing view over the *same* page
// bytes (obtained via grant mapping), so index updates are naturally visible
// to the peer — exactly the shared-page protocol real split drivers use.
// Notifications travel separately over an event channel.
#ifndef XOAR_SRC_HV_IO_RING_H_
#define XOAR_SRC_HV_IO_RING_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

#include "src/base/units.h"

namespace xoar {

namespace ring_detail {
struct RingHeader {
  std::uint32_t req_prod;
  std::uint32_t req_cons;
  std::uint32_t rsp_prod;
  std::uint32_t rsp_cons;
};
}  // namespace ring_detail

// View over a ring in `page` (kPageSize bytes). Req and Rsp must be
// trivially copyable PODs small enough that kEntries of each fit in a page.
template <typename Req, typename Rsp, std::size_t kEntriesParam = 32>
class IoRing {
 public:
  static constexpr std::size_t kEntries = kEntriesParam;
  using Request = Req;
  using Response = Rsp;

  static_assert(std::is_trivially_copyable_v<Req>);
  static_assert(std::is_trivially_copyable_v<Rsp>);
  static_assert(sizeof(ring_detail::RingHeader) +
                        kEntries * (sizeof(Req) + sizeof(Rsp)) <=
                    kPageSize,
                "ring layout does not fit in one page");

  // Wraps an existing ring without touching its indices (backend attach).
  static IoRing Attach(std::byte* page) { return IoRing(page); }

  // Zeroes the indices and wraps (frontend initialization).
  static IoRing Create(std::byte* page) {
    std::memset(page, 0, sizeof(ring_detail::RingHeader));
    return IoRing(page);
  }

  // --- Frontend side ---

  bool PushRequest(const Req& req) {
    if (FullRequests()) {
      return false;
    }
    RequestAt(header()->req_prod % kEntries) = req;
    ++header()->req_prod;
    return true;
  }

  std::optional<Rsp> PopResponse() {
    if (header()->rsp_cons == header()->rsp_prod) {
      return std::nullopt;
    }
    Rsp rsp = ResponseAt(header()->rsp_cons % kEntries);
    ++header()->rsp_cons;
    return rsp;
  }

  // --- Backend side ---

  std::optional<Req> PopRequest() {
    if (header()->req_cons == header()->req_prod) {
      return std::nullopt;
    }
    Req req = RequestAt(header()->req_cons % kEntries);
    ++header()->req_cons;
    return req;
  }

  bool PushResponse(const Rsp& rsp) {
    if (FullResponses()) {
      return false;
    }
    ResponseAt(header()->rsp_prod % kEntries) = rsp;
    ++header()->rsp_prod;
    return true;
  }

  // --- Introspection ---

  std::uint32_t PendingRequests() const {
    return header()->req_prod - header()->req_cons;
  }
  std::uint32_t PendingResponses() const {
    return header()->rsp_prod - header()->rsp_cons;
  }
  bool FullRequests() const { return PendingRequests() >= kEntries; }
  bool FullResponses() const { return PendingResponses() >= kEntries; }
  std::uint32_t FreeRequestSlots() const { return kEntries - PendingRequests(); }

 private:
  explicit IoRing(std::byte* page) : page_(page) {}

  ring_detail::RingHeader* header() {
    return reinterpret_cast<ring_detail::RingHeader*>(page_);
  }
  const ring_detail::RingHeader* header() const {
    return reinterpret_cast<const ring_detail::RingHeader*>(page_);
  }
  Req& RequestAt(std::size_t i) {
    return *reinterpret_cast<Req*>(page_ + sizeof(ring_detail::RingHeader) +
                                   i * sizeof(Req));
  }
  const Req& RequestAt(std::size_t i) const {
    return *reinterpret_cast<const Req*>(
        page_ + sizeof(ring_detail::RingHeader) + i * sizeof(Req));
  }
  Rsp& ResponseAt(std::size_t i) {
    return *reinterpret_cast<Rsp*>(page_ + sizeof(ring_detail::RingHeader) +
                                   kEntries * sizeof(Req) + i * sizeof(Rsp));
  }
  const Rsp& ResponseAt(std::size_t i) const {
    return *reinterpret_cast<const Rsp*>(page_ +
                                         sizeof(ring_detail::RingHeader) +
                                         kEntries * sizeof(Req) +
                                         i * sizeof(Rsp));
  }

  std::byte* page_;
};

}  // namespace xoar

#endif  // XOAR_SRC_HV_IO_RING_H_
