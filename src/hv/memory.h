// Machine memory model.
//
// The MemoryManager tracks ownership of 4 KiB page frames and hands out the
// backing bytes for pages that are actually touched (rings, XenStore wire
// buffers). Ownership is the basis of every memory access-control decision
// the hypervisor makes: foreign mapping and grant mapping both resolve
// through here.
//
// Ownership is recorded per allocation *extent*, not per page: a host packed
// with 10^4 guests holds tens of millions of frames, and a per-frame table
// is the single largest control-plane structure on the box. Each
// AllocatePages call produces one contiguous extent (frames are handed out
// monotonically and never reused), so ownership queries are an ordered-map
// range lookup and domain teardown walks the owner's extent list instead of
// every frame in the machine. Backing bytes stay per-page and lazy — only
// the handful of frames a domain actually touches (rings, wire buffers) are
// ever materialized.
#ifndef XOAR_SRC_HV_MEMORY_H_
#define XOAR_SRC_HV_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/base/units.h"

namespace xoar {

class MemoryManager {
 public:
  explicit MemoryManager(std::uint64_t total_bytes)
      : free_pages_(total_bytes / kPageSize) {}

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  // Allocates `count` contiguous frames owned by `owner`; returns the first
  // Pfn of the range.
  StatusOr<Pfn> AllocatePages(DomainId owner, std::uint64_t count);

  // Releases every frame owned by `owner` (domain destruction).
  std::uint64_t FreeDomainPages(DomainId owner);

  // Releases `count` frames starting at `first`, all of which must be
  // owned by `owner` (ballooning).
  Status FreeSpecificPages(DomainId owner, Pfn first, std::uint64_t count);

  // Owner of a frame; error if the frame was never allocated.
  StatusOr<DomainId> OwnerOf(Pfn pfn) const;

  bool IsOwnedBy(Pfn pfn, DomainId domain) const;

  // Backing bytes of a frame (allocated lazily, zero-filled). Returns nullptr
  // for unallocated frames. Access control is the hypervisor's job; this is
  // the "physical" memory itself.
  std::byte* PageData(Pfn pfn);

  std::uint64_t PagesOwnedBy(DomainId owner) const;
  std::uint64_t free_pages() const { return free_pages_; }

 private:
  struct Extent {
    std::uint64_t count;
    DomainId owner;
  };

  // Iterator to the extent containing `pfn`, or extents_.end().
  std::map<std::uint64_t, Extent>::const_iterator FindExtent(
      std::uint64_t pfn) const;

  // Drops the backing bytes for [first, first + count).
  void DropPageData(std::uint64_t first, std::uint64_t count);

  std::uint64_t free_pages_;
  std::uint64_t next_pfn_ = 0x1000;  // low frames reserved for the hypervisor

  // Keyed by first pfn of the extent; extents never overlap.
  std::map<std::uint64_t, Extent> extents_;
  // Extent start pfns per owner, so teardown is O(extents owned), not
  // O(extents in the machine).
  std::unordered_map<DomainId, std::set<std::uint64_t>> owner_extents_;
  std::unordered_map<DomainId, std::uint64_t> owned_count_;
  // Lazily materialized backing bytes, keyed by pfn. Ordered so a freed
  // extent's touched pages are erased with one range walk.
  std::map<std::uint64_t, std::unique_ptr<std::byte[]>> page_data_;
};

}  // namespace xoar

#endif  // XOAR_SRC_HV_MEMORY_H_
