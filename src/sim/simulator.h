// Discrete-event simulation kernel.
//
// The whole platform — hypervisor, shards, devices, guests — executes as
// callbacks scheduled on a single Simulator. Events at equal timestamps fire
// in scheduling order (FIFO tie-break), which keeps every run deterministic:
// the same sequence of Schedule* calls always produces the same execution
// order, so two runs with the same seed are identical byte for byte. Nothing
// in the kernel consults wall-clock time; anything time-dependent (fault
// windows, retry backoff, watchdogs) must be expressed as scheduled events,
// which is what makes campaigns in src/fault replayable (DESIGN.md §5c).
//
// Internals (DESIGN.md §5f): events live in a slab of stable, reusable
// records; the callback is stored inline in the record when its captures fit
// in kInlineCallbackBytes (the common case for every hot path in src/drv and
// src/hv) and in a size-classed free-list block otherwise, so the steady
// state allocates nothing. Ordering comes from per-delay FIFO lanes: an
// event joins the lane of its delay (when - Now() at schedule time), and
// because Now() never decreases each lane is already sorted by (when, seq).
// An indexed 4-ary min-heap orders only the lane heads, keyed on the head's
// (when, seq), so scheduling into a non-empty lane is a tail append with no
// heap work, and Step() re-sifts the root lane on its next head. Cancel()
// unlinks the event from its lane's intrusive list in O(1), releases the
// callback eagerly, and touches the heap only when it removed a lane's head
// — no tombstone set, no hash-table lookups on the fire/cancel paths. The
// FIFO tie-break is carried entirely by the monotonically assigned `seq`, so
// execution order is byte-identical to the previous priority_queue kernel
// (enforced by the golden digest and differential tests in
// tests/sim_test.cc against src/sim/legacy_simulator.h).
//
// Single-threaded by construction: callbacks run to completion one at a
// time, so simulation code needs no locking, but a callback that blocks
// blocks the world.
#ifndef XOAR_SRC_SIM_SIMULATOR_H_
#define XOAR_SRC_SIM_SIMULATOR_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/ids.h"
#include "src/base/units.h"

namespace xoar {

// Captures up to this many bytes are stored inline in the event record
// (small-buffer optimization). 48 bytes covers a std::function plus
// padding, or six pointer-sized captures — every scheduling site in the
// split drivers and the hypervisor fits.
constexpr std::size_t kInlineCallbackBytes = 48;

class Simulator {
 public:
  // Retained as the named callback type for components that store one
  // (PeriodicTimer, watchdog policies). Schedule* itself is generic: passing
  // a lambda directly avoids the std::function wrapper entirely.
  using Callback = std::function<void()>;

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current simulated time. Advances only while events execute (or via
  // RunUntil's idle-advance); reading it never perturbs the run.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute time `when`. Scheduling in the past is
  // clamped to Now(). Returns a handle usable with Cancel(). A stale EventId
  // held after its event fired or was cancelled is safe to Cancel (it
  // returns false): handles encode a per-slot generation that changes when
  // the slot is reused, so collisions require ~2^32 reuses of one slot.
  template <typename F>
  EventId ScheduleAt(SimTime when, F&& fn) {
    if (when < now_) {
      when = now_;
    }
    Record& r = AllocRecord(when);
    using Fn = std::decay_t<F>;
    void* target;
    std::uint32_t flags;
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      target = r.inline_buf;
      flags = kInlineClass;
    } else {
      std::uint8_t cls;
      target = AllocOutline(sizeof(Fn), alignof(Fn), cls);
      // The record keeps no separate pointer field; the out-of-line block's
      // address lives in the first word of the (otherwise unused) buffer.
      *reinterpret_cast<void**>(r.inline_buf) = target;
      flags = cls;
    }
    if constexpr (!std::is_trivially_destructible_v<Fn>) {
      flags |= kNeedsDestroy;
    }
    ::new (target) Fn(std::forward<F>(fn));
    r.manage = [](void* p, ManageOp op) {
      if (op == ManageOp::kInvoke) {
        (*static_cast<Fn*>(p))();
      } else {
        static_cast<Fn*>(p)->~Fn();
      }
    };
    r.flags_or_next_free = flags;
    return EventId((static_cast<std::uint64_t>(r.generation) << 32) |
                   last_alloc_slot_);
  }

  // Schedules `fn` to run `delay` from now. A delay large enough to wrap the
  // 64-bit clock (sentinel "forever" deadlines) saturates at kSimTimeMax
  // instead of aliasing a past timestamp and firing immediately.
  template <typename F>
  EventId ScheduleAfter(SimDuration delay, F&& fn) {
    SimTime when = now_ + delay;
    if (when < now_) {
      when = kSimTimeMax;
    }
    return ScheduleAt(when, std::forward<F>(fn));
  }

  // Cancels a pending event: unlinks it from its lane and destroys the
  // callback (releasing captured resources) immediately. Returns false if it
  // already fired, was already cancelled, or is the event currently
  // executing — callers use the result to tell "I stopped it" from "it
  // already happened", e.g. when disarming request deadlines.
  bool Cancel(EventId id);

  // Runs a single event. Returns false if the queue is empty.
  bool Step();

  // Runs events until the queue drains or `max_events` is hit. Note that
  // retry loops with unbounded capped-delay backoff (RESILIENCE.md) keep
  // the queue non-empty while a component is down — prefer RunUntil/RunFor
  // when such loops may be active.
  void Run(std::uint64_t max_events = UINT64_MAX);

  // Runs all events with timestamp <= deadline, then advances the clock to
  // `deadline` (even if idle), mirroring real elapsed time.
  void RunUntil(SimTime deadline);

  // Runs for `duration` of simulated time from now (saturating at
  // kSimTimeMax, like ScheduleAfter).
  void RunFor(SimDuration duration) {
    const SimTime deadline = now_ + duration;
    RunUntil(deadline < now_ ? kSimTimeMax : deadline);
  }

  // Events scheduled but not yet fired or cancelled. Cancelled events leave
  // their lane immediately, so there is no tombstone arithmetic to go stale.
  std::size_t PendingEvents() const { return pending_; }
  // Total callbacks executed since construction (cancelled ones excluded).
  std::uint64_t EventsExecuted() const { return executed_; }
  // Heap entries moved by sifts since construction: the kernel's ordering
  // work counter. It grows with the number of distinct pending delays, not
  // with the number of pending events.
  std::uint64_t heap_moves() const { return heap_moves_; }

 private:
  // Link sentinels: kNil ends a lane's list (and marks an empty lane or an
  // unused lane-table entry); a slot whose Link::prev is kDetached is not
  // pending — it is free, or its callback is executing right now.
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kDetached = 0xFFFFFFFEu;
  // Low byte of Record::flags_or_next_free: the outline size class, or one
  // of these sentinels. kNeedsDestroy marks callbacks with non-trivial
  // destructors; trivially destructible ones skip the destroy call.
  static constexpr std::uint8_t kInlineClass = 0xFF;
  static constexpr std::uint8_t kOversizeClass = 0xFE;
  static constexpr std::uint32_t kNeedsDestroy = 0x100u;
  static constexpr std::uint32_t kNoFreeSlot = 0xFFFFFFFFu;
  // One chunk spans exactly one 2 MB huge page: chunks are madvised as
  // huge-page candidates before first touch, so deep-window workloads chase
  // records inside a handful of TLB entries instead of thousands of 4 KB
  // pages. Records are constructed lazily (first use of each fresh slot),
  // so a small simulation faults in only what it touches.
  static constexpr std::size_t kRecordsPerChunk = 32768;

  enum class ManageOp { kInvoke, kDestroy };

  // Heap nodes pack the tie-break seq and the lane index into one word so an
  // entry is 16 bytes: four children of a 4-ary node span at most two cache
  // lines, which is what makes deep sifts cheap. `seq` is unique (monotonic
  // per schedule), so comparing (when, seq_lane) lexicographically is
  // exactly the old (when, seq) FIFO order — the lane bits below it can
  // never decide a comparison. AllocRecord aborts before seq can overflow
  // its bits (~10^12 events), AddLane before the lane index can (~10^7
  // distinct pending delays).
  static constexpr std::uint32_t kLaneBits = 24;
  static constexpr std::uint64_t kLaneMask = (1u << kLaneBits) - 1;
  // Empty lanes stay mapped, so a delay that recurs finds its lane again.
  // They are dropped only when the table is full, more than this many are
  // empty and they are over half of the mapped lanes; the sweep then
  // leaves the table at most a quarter full, so each rebuild is paid for
  // by at least a quarter of the table's size in new lanes.
  static constexpr std::uint32_t kMaxEmptyLanes = 64;
  static constexpr std::size_t kInitialLaneTable = 16;

  // One slab slot, sized and aligned to exactly one cache line: a single
  // manage trampoline (invoke + destroy behind one pointer), the handle
  // generation, and a field that is the outline class + destroy flag while
  // the record is pending and the free-list link after it is released —
  // the two are never live at once. Records never move (chunked storage),
  // so the callback storage stays valid across reentrant scheduling from
  // callbacks.
  struct alignas(64) Record {
    void (*manage)(void*, ManageOp) = nullptr;
    std::uint32_t generation = 0;  // bumped on free; stale handles mismatch
    std::uint32_t flags_or_next_free = kNoFreeSlot;
    alignas(alignof(std::max_align_t)) std::byte
        inline_buf[kInlineCallbackBytes];
  };
  static_assert(sizeof(Record) == 64);
  // Chunks are released without running destructors (see ~Simulator); the
  // callback object a record may hold is destroyed via ReleaseCallback.
  static_assert(std::is_trivially_destructible_v<Record>);

  // Where the callback object lives: inline, or in the out-of-line block
  // whose address is stashed in the buffer's first word.
  static void* TargetOf(Record& r) {
    return (r.flags_or_next_free & 0xFFu) == kInlineClass
               ? static_cast<void*>(r.inline_buf)
               : *reinterpret_cast<void**>(r.inline_buf);
  }

  struct HeapEntry {
    SimTime when;
    std::uint64_t seq_lane;  // (seq << kLaneBits) | lane
  };

  // Per-slot row beside the slab (a Record is exactly one line of callback
  // storage): the event's own heap key, which becomes its lane's heap entry
  // when the event reaches the lane head, and its neighbours in the lane.
  struct Link {
    HeapEntry key;
    std::uint32_t prev;  // kNil at the lane head
    std::uint32_t next;  // kNil at the lane tail
  };

  // The pending events of one delay, oldest first. An empty lane is not in
  // the heap.
  struct Lane {
    SimDuration delay = 0;
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  // The heap array is 64-byte aligned and the root lives at index 3, so the
  // four children of the node at physical index p occupy indices 4p-8 ..
  // 4p-5 — a 4-aligned group of 16-byte entries, i.e. exactly one cache
  // line per level of a sift. Indices 0..2 are unused padding.
  static constexpr std::size_t kHeapPad = 3;

  // The full ordering key as one 128-bit integer: a single branch-free
  // compare instead of the two-field (when, seq) cascade, which matters in
  // the sift loops where child-selection branches are data-dependent.
  using HeapKey = unsigned __int128;
  static HeapKey KeyOf(const HeapEntry& e) {
    return (static_cast<HeapKey>(e.when) << 64) | e.seq_lane;
  }
  static std::uint32_t LaneOf(const HeapEntry& e) {
    return static_cast<std::uint32_t>(e.seq_lane & kLaneMask);
  }

  Record& RecordAt(std::uint32_t slot) {
    return chunks_[slot / kRecordsPerChunk][slot % kRecordsPerChunk];
  }

  // Allocates a slab slot, appends it to the lane of its delay keyed
  // (when, next_seq_++), and returns the record for the caller to fill in.
  // Only an event that lands in an empty lane pushes a heap entry. Sets
  // last_alloc_slot_. Defined in-class so the per-event schedule path
  // inlines into callers; the rare growth and exhaustion cases stay out of
  // line in simulator.cc.
  Record& AllocRecord(SimTime when) {
    std::uint32_t slot;
    if (free_head_ != kNoFreeSlot) {
      slot = free_head_;
      free_head_ = RecordAt(slot).flags_or_next_free;
    } else {
      slot = AllocFreshSlot();
    }
    if (next_seq_ == kSeqLimit) {
      DieSeqExhausted();
    }
    last_alloc_slot_ = slot;
    const std::uint32_t lane_index = LaneFor(when - now_);
    Lane& lane = lanes_[lane_index];
    const std::uint32_t tail = lane.tail;
    const HeapEntry key{when, (next_seq_++ << kLaneBits) | lane_index};
    links_[slot] = Link{key, tail, kNil};
    lane.tail = slot;
    ++pending_;
    if (tail != kNil) {
      links_[tail].next = slot;
    } else {
      lane.head = slot;
      --empty_lanes_;
      if (heap_size_ >= heap_cap_) {
        GrowHeap();
      }
      const std::size_t pos = heap_size_++;
      heap_[pos] = key;
      HeapSiftUp(pos);
    }
    return RecordAt(slot);
  }
  // The lane of `delay`, mapping a new one on first use. Linear probing
  // from a Fibonacci hash; the table is at most half full.
  std::uint32_t LaneFor(SimDuration delay) {
    const std::size_t mask = lane_table_.size() - 1;
    for (std::size_t i = LaneHome(delay);; i = (i + 1) & mask) {
      const std::uint32_t lane = lane_table_[i];
      if (lane == kNil) {
        return AddLane(delay);
      }
      if (lanes_[lane].delay == delay) {
        return lane;
      }
    }
  }
  std::size_t LaneHome(SimDuration delay) const {
    return static_cast<std::size_t>((delay * 0x9E3779B97F4A7C15ull) >>
                                    lane_shift_);
  }
  // Cold paths for AllocRecord: first use of a slot beyond the allocated
  // chunks (grows the slab, aborts past the slot cap), a delay with no
  // lane yet, and heap storage growth.
  std::uint32_t AllocFreshSlot();
  std::uint32_t AddLane(SimDuration delay);
  // Maps `lane` at the first unused position of its delay's probe sequence.
  void InsertLane(std::uint32_t lane);
  // Re-inserts every mapped lane into a table large enough for one more,
  // first unmapping the empty ones when `drop_empty`.
  void RebuildLaneTable(bool drop_empty);
  void GrowHeap();
  [[noreturn]] static void DieSeqExhausted();
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1}
                                             << (64 - kLaneBits);
  // Takes a pending slot out of its lane, keeping the lane's heap entry
  // keyed on its (possibly new) head, and marks the slot detached.
  void Unlink(std::uint32_t slot);
  void FreeRecord(std::uint32_t slot);
  // Destroys the callback and returns any out-of-line block to its pool.
  void ReleaseCallback(Record& r);
  void* AllocOutline(std::size_t bytes, std::size_t align, std::uint8_t& cls);
  void FreeOutline(void* block, std::uint8_t cls);

  // All positions below are physical indices into heap_ (>= kHeapPad).
  struct MinChild {
    std::size_t idx;
    HeapKey key;
  };
  // Smallest entry in heap_[first, end) — branch-free, pairwise tournament
  // for full child groups.
  MinChild FindMinChild(std::size_t first, std::size_t end) const;
  // In-class for the same reason as AllocRecord: a lane that refills lands
  // on a leaf and almost always stays within a level of it, so the whole
  // loop is a few instructions on the schedule path.
  void HeapSiftUp(std::size_t pos) {
    const HeapEntry entry = heap_[pos];
    const HeapKey key = KeyOf(entry);
    std::uint64_t moves = 0;
    while (pos > kHeapPad) {
      const std::size_t parent = (pos + 8) >> 2;
      if (key >= KeyOf(heap_[parent])) {
        break;
      }
      heap_[pos] = heap_[parent];
      lane_pos_[LaneOf(heap_[pos])] = static_cast<std::uint32_t>(pos);
      pos = parent;
      ++moves;
    }
    heap_[pos] = entry;
    lane_pos_[LaneOf(entry)] = static_cast<std::uint32_t>(pos);
    heap_moves_ += moves;
  }
  void HeapSiftDown(std::size_t pos);
  void HeapRemoveAt(std::size_t pos);
  // Root removal for Step(): sifts the hole to a leaf choosing min children
  // (no compares against a sinking key), then sifts the displaced tail entry
  // up from there. Fewer comparisons than HeapRemoveAt on the hot path.
  void HeapPopTop();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t heap_moves_ = 0;
  std::size_t pending_ = 0;
  std::uint32_t last_alloc_slot_ = 0;

  // Indexed 4-ary min-heap of the non-empty lanes, in manually managed
  // 64-byte-aligned storage (std::vector cannot guarantee the alignment the
  // child-group layout needs). heap_size_ includes the kHeapPad unused
  // slots.
  HeapEntry* heap_ = nullptr;
  std::size_t heap_size_ = kHeapPad;
  std::size_t heap_cap_ = 0;
  // One link row per slab slot ever used, grown with the slots themselves.
  std::vector<Link> links_;
  std::vector<Lane> lanes_;
  // Heap position per lane, meaningful while the lane is non-empty. A dense
  // side array rather than a Lane field: sifts rewrite the position of
  // every entry they move, and 4-byte strides stay in cache.
  std::vector<std::uint32_t> lane_pos_;
  // Lanes unmapped by a sweep, reused before lanes_ grows.
  std::vector<std::uint32_t> free_lanes_;
  std::uint32_t empty_lanes_ = 0;  // mapped lanes with no pending event
  // Delay -> lane index (kNil: unused), open-addressed on Lane::delay; the
  // size is a power of two and lane_shift_ is 64 - log2(size).
  std::vector<std::uint32_t> lane_table_ =
      std::vector<std::uint32_t>(kInitialLaneTable, kNil);
  unsigned lane_shift_ = 64 - std::countr_zero(kInitialLaneTable);
  // Raw chunk storage, huge-page backed when the platform allows (see
  // AllocBig in simulator.cc); chunk_method_ remembers how each chunk was
  // allocated so ~Simulator releases it the matching way, as heap_method_
  // does for the heap array.
  std::vector<Record*> chunks_;
  std::vector<std::uint8_t> chunk_method_;
  std::uint8_t heap_method_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint32_t next_unused_slot_ = 0;
  // Free lists of out-of-line callback blocks, one per size class (see
  // kOutlineClassBytes in simulator.cc). Blocks link through their first
  // word while pooled.
  void* outline_free_[4] = {nullptr, nullptr, nullptr, nullptr};
};

// A restartable repeating timer built on the Simulator. Used for microreboot
// restart policies and workload pacing.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator* sim, SimDuration period, Simulator::Callback on_fire)
      : sim_(sim), period_(period), on_fire_(std::move(on_fire)) {}
  ~PeriodicTimer() { Stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }
  SimDuration period() const { return period_; }
  void set_period(SimDuration period) { period_ = period; }

 private:
  void Arm();

  Simulator* sim_;
  SimDuration period_;
  Simulator::Callback on_fire_;
  bool running_ = false;
  EventId pending_ = EventId::Invalid();
};

}  // namespace xoar

#endif  // XOAR_SRC_SIM_SIMULATOR_H_
