#include "src/sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace xoar {

namespace {
// Size classes for out-of-line callback blocks. Anything larger (or with
// alignment stricter than max_align_t) falls through to plain new/delete.
constexpr std::size_t kOutlineClassBytes[4] = {64, 128, 256, 512};

constexpr std::size_t kHugeBytes = std::size_t{2} << 20;
constexpr std::uint8_t kBigAlignedNew = 0;
constexpr std::uint8_t kBigHugeMmap = 1;

// Marks a large long-lived allocation as a transparent-huge-page candidate
// before it is first touched, so the faults that commit it can map 2 MB
// pages where the kernel supports that. No-op off Linux or when no aligned
// 2 MB interior exists.
void AdviseHugePages(void* p, std::size_t bytes) {
#ifdef __linux__
  const std::uintptr_t addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t lo = (addr + kHugeBytes - 1) & ~(kHugeBytes - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kHugeBytes - 1);
  if (hi > lo) {
    madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)p;
  (void)bytes;
#endif
}

// Backing storage for the record slab and the heap array. Deep event
// windows chase pointers across tens of megabytes, so on 4 KB pages a sift
// or record access is a likely dTLB miss on top of the cache miss. Regions
// that are a multiple of the huge page size first try an explicit
// huge-page mapping — one TLB entry per 2 MB instead of 512 — and fall
// back to 64-byte-aligned operator new with the transparent-huge-page hint
// when no reserved huge pages are available. Huge pages are strictly an
// optimization; the fallback is always valid.
void* AllocBig(std::size_t bytes, std::uint8_t& method) {
#ifdef __linux__
  if (bytes % kHugeBytes == 0) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (p != MAP_FAILED) {
      method = kBigHugeMmap;
      return p;
    }
  }
#endif
  method = kBigAlignedNew;
  void* p = ::operator new(bytes, std::align_val_t(64));
  AdviseHugePages(p, bytes);
  return p;
}

void FreeBig(void* p, std::size_t bytes, std::uint8_t method) {
  if (p == nullptr) {
    return;
  }
#ifdef __linux__
  if (method == kBigHugeMmap) {
    munmap(p, bytes);
    return;
  }
#endif
  (void)bytes;
  ::operator delete(p, std::align_val_t(64));
}
}  // namespace

Simulator::~Simulator() {
  // Destroy callbacks still pending so captured resources (shared_ptrs,
  // buffers) are released, then drop the pooled out-of-line blocks and the
  // heap storage. Every pending event is in a non-empty lane, and every
  // non-empty lane is in the heap.
  for (std::size_t pos = kHeapPad; pos < heap_size_; ++pos) {
    for (std::uint32_t slot = lanes_[LaneOf(heap_[pos])].head; slot != kNil;
         slot = links_[slot].next) {
      ReleaseCallback(RecordAt(slot));
    }
  }
  FreeBig(heap_, heap_cap_ * sizeof(HeapEntry), heap_method_);
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    FreeBig(chunks_[i], kRecordsPerChunk * sizeof(Record), chunk_method_[i]);
  }
  for (void* head : outline_free_) {
    while (head != nullptr) {
      void* next = *static_cast<void**>(head);
      ::operator delete(head);
      head = next;
    }
  }
}

void Simulator::GrowHeap() {
  const std::size_t cap = heap_cap_ == 0 ? 1024 : heap_cap_ * 2;
  std::uint8_t method;
  auto* grown =
      static_cast<HeapEntry*>(AllocBig(cap * sizeof(HeapEntry), method));
  if (heap_ != nullptr) {
    std::copy(heap_ + kHeapPad, heap_ + heap_size_, grown + kHeapPad);
    FreeBig(heap_, heap_cap_ * sizeof(HeapEntry), heap_method_);
  }
  heap_ = grown;
  heap_cap_ = cap;
  heap_method_ = method;
}

std::uint32_t Simulator::AllocFreshSlot() {
  if (next_unused_slot_ == chunks_.size() * kRecordsPerChunk) {
    // Slot indices must stay below the link sentinels.
    if (next_unused_slot_ > kDetached - kRecordsPerChunk) {
      std::fprintf(stderr, "Simulator: > 2^32 concurrently pending events\n");
      std::abort();
    }
    constexpr std::size_t bytes = kRecordsPerChunk * sizeof(Record);
    std::uint8_t method;
    auto* chunk = static_cast<Record*>(AllocBig(bytes, method));
    chunks_.push_back(chunk);
    chunk_method_.push_back(method);
  }
  const std::uint32_t slot = next_unused_slot_++;
  links_.push_back(Link{{0, 0}, kDetached, kNil});
  // First use of this slot: construct the record in place. Reused slots
  // keep their Record alive across free/alloc cycles so the generation
  // counter persists (that is what invalidates stale EventIds).
  ::new (&RecordAt(slot)) Record();
  return slot;
}

std::uint32_t Simulator::AddLane(SimDuration delay) {
  // A full table is rebuilt: swept of its empty lanes if they are many,
  // else grown. Sweeping no earlier keeps every recurring delay mapped
  // while the table has room (see kMaxEmptyLanes).
  const std::size_t mapped = lanes_.size() - free_lanes_.size();
  if (2 * (mapped + 1) > lane_table_.size()) {
    RebuildLaneTable(empty_lanes_ > kMaxEmptyLanes &&
                     2 * std::size_t{empty_lanes_} > mapped);
  }
  std::uint32_t lane;
  if (!free_lanes_.empty()) {
    lane = free_lanes_.back();
    free_lanes_.pop_back();
  } else {
    if (lanes_.size() > kLaneMask) {
      std::fprintf(stderr, "Simulator: > 2^%u distinct pending delays\n",
                   kLaneBits);
      std::abort();
    }
    lane = static_cast<std::uint32_t>(lanes_.size());
    lanes_.emplace_back();
    lane_pos_.push_back(0);
  }
  lanes_[lane].delay = delay;
  // Counted empty until AllocRecord links its first event.
  ++empty_lanes_;
  InsertLane(lane);
  return lane;
}

void Simulator::InsertLane(std::uint32_t lane) {
  const std::size_t mask = lane_table_.size() - 1;
  std::size_t i = LaneHome(lanes_[lane].delay);
  while (lane_table_[i] != kNil) {
    i = (i + 1) & mask;
  }
  lane_table_[i] = lane;
}

void Simulator::RebuildLaneTable(bool drop_empty) {
  std::size_t mapped = lanes_.size() - free_lanes_.size();
  if (drop_empty) {
    mapped -= empty_lanes_;
    empty_lanes_ = 0;
  }
  std::size_t size = lane_table_.size();
  while (2 * (mapped + 1) > size) {
    size *= 2;
  }
  std::vector<std::uint32_t> old(size, kNil);
  old.swap(lane_table_);
  lane_shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const std::uint32_t lane : old) {
    if (lane == kNil) {
      continue;
    }
    if (drop_empty && lanes_[lane].head == kNil) {
      free_lanes_.push_back(lane);
    } else {
      InsertLane(lane);
    }
  }
}

void Simulator::DieSeqExhausted() {
  std::fprintf(stderr, "Simulator: event sequence space exhausted\n");
  std::abort();
}

void Simulator::FreeRecord(std::uint32_t slot) {
  Record& r = RecordAt(slot);
  ++r.generation;  // stale EventIds now mismatch
  r.manage = nullptr;
  r.flags_or_next_free = free_head_;
  free_head_ = slot;
}

void Simulator::ReleaseCallback(Record& r) {
  const std::uint32_t flags = r.flags_or_next_free;
  void* target = TargetOf(r);
  if ((flags & kNeedsDestroy) != 0) {
    r.manage(target, ManageOp::kDestroy);
  }
  const std::uint8_t cls = static_cast<std::uint8_t>(flags & 0xFFu);
  if (cls != kInlineClass) {
    FreeOutline(target, cls);
  }
}

void* Simulator::AllocOutline(std::size_t bytes, std::size_t align,
                              std::uint8_t& cls) {
  if (align <= alignof(std::max_align_t)) {
    for (std::uint8_t c = 0; c < 4; ++c) {
      if (bytes <= kOutlineClassBytes[c]) {
        cls = c;
        if (outline_free_[c] != nullptr) {
          void* block = outline_free_[c];
          outline_free_[c] = *static_cast<void**>(block);
          return block;
        }
        return ::operator new(kOutlineClassBytes[c]);
      }
    }
  }
  cls = kOversizeClass;
  if (align > alignof(std::max_align_t)) {
    return ::operator new(bytes, std::align_val_t(align));
  }
  return ::operator new(bytes);
}

void Simulator::FreeOutline(void* block, std::uint8_t cls) {
  if (cls < 4) {
    *static_cast<void**>(block) = outline_free_[cls];
    outline_free_[cls] = block;
    return;
  }
  // Oversize blocks are not pooled. Over-aligned blocks were allocated with
  // the aligned form, but plain delete is correct for both on the platforms
  // we build (Itanium ABI); use the unsized form to stay simple.
  ::operator delete(block);
}

// Physical index arithmetic for the padded layout (root at kHeapPad): the
// children of the node at index p are the 4-aligned group 4p-8 .. 4p-5, and
// the parent of the node at index c is (c + 8) / 4.

// Smallest entry in heap_[first, end). The full-group case is a pairwise
// tournament: the two first-round compares have no data dependency on each
// other, and every select compiles to conditional moves — no data-dependent
// branches on effectively random keys.
inline Simulator::MinChild Simulator::FindMinChild(std::size_t first,
                                                   std::size_t end) const {
  if (end - first == 4) {
    const HeapKey k0 = KeyOf(heap_[first]);
    const HeapKey k1 = KeyOf(heap_[first + 1]);
    const HeapKey k2 = KeyOf(heap_[first + 2]);
    const HeapKey k3 = KeyOf(heap_[first + 3]);
    const bool a = k1 < k0;
    const std::size_t ia = first + static_cast<std::size_t>(a);
    const HeapKey ka = a ? k1 : k0;
    const bool b = k3 < k2;
    const std::size_t ib = first + 2 + static_cast<std::size_t>(b);
    const HeapKey kb = b ? k3 : k2;
    const bool c = kb < ka;
    return MinChild{c ? ib : ia, c ? kb : ka};
  }
  std::size_t best = first;
  HeapKey best_key = KeyOf(heap_[first]);
  for (std::size_t child = first + 1; child < end; ++child) {
    const HeapKey child_key = KeyOf(heap_[child]);
    const bool lt = child_key < best_key;
    best = lt ? child : best;
    best_key = lt ? child_key : best_key;
  }
  return MinChild{best, best_key};
}

void Simulator::HeapSiftDown(std::size_t pos) {
  const HeapEntry entry = heap_[pos];
  const HeapKey key = KeyOf(entry);
  const std::size_t size = heap_size_;
  std::uint64_t moves = 0;
  for (;;) {
    const std::size_t first = (pos << 2) - 8;
    if (first >= size) {
      break;
    }
    const MinChild min = FindMinChild(first, std::min(first + 4, size));
    if (min.key >= key) {
      break;
    }
    heap_[pos] = heap_[min.idx];
    lane_pos_[LaneOf(heap_[pos])] = static_cast<std::uint32_t>(pos);
    pos = min.idx;
    ++moves;
  }
  heap_[pos] = entry;
  lane_pos_[LaneOf(entry)] = static_cast<std::uint32_t>(pos);
  heap_moves_ += moves;
}

void Simulator::HeapPopTop() {
  // Walk the hole from the root to the bottom always taking the min child —
  // no compares against a sinking key, so one less comparison per level and
  // no early-exit branch. The displaced tail entry lands on what is a leaf
  // of the shrunken array and rarely sifts up more than a level.
  const std::size_t last = heap_size_ - 1;
  std::size_t hole = kHeapPad;
  std::uint64_t moves = 0;
  for (;;) {
    const std::size_t first = (hole << 2) - 8;
    if (first >= last) {
      break;
    }
    // The walk's critical path is the chain of dependent line loads — which
    // child wins decides the next load address. But the grandchildren of
    // this group sit in four contiguous cache lines starting at
    // 4*first - 8 regardless of the winner, so pull all four now and the
    // next level's load is already in flight before the min resolves.
    // Prefetch is non-faulting, so running past the live heap is harmless.
    const std::size_t gfirst = (first << 2) - 8;
    __builtin_prefetch(&heap_[gfirst]);
    __builtin_prefetch(&heap_[gfirst + 4]);
    __builtin_prefetch(&heap_[gfirst + 8]);
    __builtin_prefetch(&heap_[gfirst + 12]);
    const MinChild min = FindMinChild(first, std::min(first + 4, last));
    heap_[hole] = heap_[min.idx];
    lane_pos_[LaneOf(heap_[hole])] = static_cast<std::uint32_t>(hole);
    hole = min.idx;
    ++moves;
  }
  heap_[hole] = heap_[last];
  --heap_size_;
  heap_moves_ += moves;
  if (hole < heap_size_) {
    ++heap_moves_;
    HeapSiftUp(hole);
  }
}

void Simulator::HeapRemoveAt(std::size_t pos) {
  const std::size_t last = heap_size_ - 1;
  if (pos == last) {
    --heap_size_;
    return;
  }
  heap_[pos] = heap_[last];
  --heap_size_;
  ++heap_moves_;
  // The relocated entry may need to move either direction; both sifts are
  // no-ops when it is already placed.
  const std::uint32_t moved = LaneOf(heap_[pos]);
  lane_pos_[moved] = static_cast<std::uint32_t>(pos);
  HeapSiftDown(pos);
  HeapSiftUp(lane_pos_[moved]);
}

void Simulator::Unlink(std::uint32_t slot) {
  Link& link = links_[slot];
  const std::uint32_t prev = link.prev;
  const std::uint32_t next = link.next;
  const std::uint32_t lane_index = LaneOf(link.key);
  Lane& lane = lanes_[lane_index];
  link.prev = kDetached;
  --pending_;
  if (prev == kNil && next == kNil) {
    // The lane's only event: the lane empties and leaves the heap.
    lane.head = kNil;
    lane.tail = kNil;
    ++empty_lanes_;
    const std::uint32_t pos = lane_pos_[lane_index];
    if (pos == kHeapPad) {
      HeapPopTop();
    } else {
      HeapRemoveAt(pos);
    }
    return;
  }
  if (next == kNil) {
    lane.tail = prev;
  } else {
    links_[next].prev = prev;
  }
  if (prev != kNil) {
    links_[prev].next = next;
    return;
  }
  // The head leaves: the lane's heap entry takes the next head's key, which
  // orders after it, so the entry can only sift down.
  lane.head = next;
  const std::uint32_t pos = lane_pos_[lane_index];
  heap_[pos] = links_[next].key;
  HeapSiftDown(pos);
}

bool Simulator::Cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id.value());
  const std::uint32_t generation =
      static_cast<std::uint32_t>(id.value() >> 32);
  if (!id.valid() || slot >= next_unused_slot_) {
    return false;
  }
  Record& r = RecordAt(slot);
  if (r.generation != generation || links_[slot].prev == kDetached) {
    return false;  // already fired, already cancelled, or firing right now
  }
  Unlink(slot);
  ReleaseCallback(r);
  FreeRecord(slot);
  return true;
}

bool Simulator::Step() {
  if (heap_size_ == kHeapPad) {
    return false;
  }
  const HeapEntry top = heap_[kHeapPad];
  const std::uint32_t slot = lanes_[LaneOf(top)].head;
  // Overlap the record fetch (a likely cache miss on a large slab) with the
  // unlink's sift work.
  __builtin_prefetch(&RecordAt(slot));
  // Detach the record before it runs: a Cancel of this id from inside the
  // callback returns false (the event is no longer pending), matching the
  // old kernel's erase-before-invoke behavior.
  Unlink(slot);
  Record& r = RecordAt(slot);
  now_ = top.when;
  ++executed_;
  // Invoke in place: records never move, so reentrant scheduling (which may
  // grow the slab) cannot invalidate the callback under its own feet.
  r.manage(TargetOf(r), ManageOp::kInvoke);
  ReleaseCallback(r);
  FreeRecord(slot);
  return true;
}

void Simulator::Run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!Step()) {
      return;
    }
  }
}

void Simulator::RunUntil(SimTime deadline) {
  while (heap_size_ > kHeapPad && heap_[kHeapPad].when <= deadline) {
    Step();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void PeriodicTimer::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  Arm();
}

void PeriodicTimer::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (pending_.valid()) {
    sim_->Cancel(pending_);
    pending_ = EventId::Invalid();
  }
}

void PeriodicTimer::Arm() {
  pending_ = sim_->ScheduleAfter(period_, [this] {
    if (!running_) {
      return;
    }
    // Re-arm first so on_fire_ may Stop() the timer.
    Arm();
    on_fire_();
  });
}

}  // namespace xoar
