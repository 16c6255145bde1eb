// Deterministic record/replay event journal (DEBUGGING.md, DESIGN.md §5h).
//
// A Journal is the recorded execution of one run: every event the src/obs
// tracer observed, reduced to a fixed-size 32-byte record
// `(when, seq, shard, kind, phase, payload-hash)` and FNV-1a-chained exactly
// like the secure audit log (the fold is the shared `ChainNext` in
// src/base/hash_chain.h). Because the whole platform is a deterministic
// discrete-event simulation, re-executing the same seed + FaultPlan must
// reproduce the identical record stream — the replay verifier
// (src/replay/verify.h) checks that event by event, and the structural
// differ (src/replay/diff.h) explains how two journals disagree.
//
// What is journaled: the trace stream — hypercalls, event-channel traffic,
// grant ops, XenStore ops, boot phases, microreboot windows, driver
// negotiation, and every watchdog *decision* (detection, escalation grade,
// quarantine). What is not: event names and arguments are stored only as a
// 64-bit payload hash, which keeps records fixed-size and the append path
// allocation-free; the journal pinpoints *where* two runs diverge, and the
// live run being verified supplies the human-readable context at that point
// (see ReplayVerifier).
//
// Storage: records append into 2 MB chunks (64 Ki records each) that are
// huge-page-aligned and madvise'd as huge-page candidates, mirroring the
// simulator slab (DESIGN.md §5f) — a multi-million-event campaign journal
// stays sequential and TLB-cheap. The on-disk format is little-endian,
// versioned, and closed by the chain head, so truncation or any flipped
// byte is rejected at load time.
#ifndef XOAR_SRC_REPLAY_JOURNAL_H_
#define XOAR_SRC_REPLAY_JOURNAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/obs/trace.h"

namespace xoar {

// One journaled event. POD, exactly 32 bytes, serialized field-by-field in
// little-endian order (never memcpy'd as a struct), so the on-disk format
// does not depend on host padding.
struct JournalRecord {
  SimTime when = 0;               // simulated timestamp (TraceEvent::ts)
  std::uint64_t seq = 0;          // global trace order (TraceEvent::seq)
  std::uint32_t shard = 0;        // track, by convention a DomainId value
  std::uint8_t kind = 0;          // TraceCategory
  std::uint8_t phase = 0;         // TraceEvent::Phase
  std::uint16_t reserved = 0;     // zero; keeps the record at 32 bytes
  std::uint64_t payload_hash = 0; // FNV-1a over (dur, name)

  // The 32-byte canonical serialization fed to the hash chain and the file.
  static constexpr std::size_t kWireBytes = 32;
  void SerializeTo(char out[kWireBytes]) const;
  static JournalRecord Deserialize(const char in[kWireBytes]);

  friend bool operator==(const JournalRecord& a, const JournalRecord& b) {
    return a.when == b.when && a.seq == b.seq && a.shard == b.shard &&
           a.kind == b.kind && a.phase == b.phase &&
           a.payload_hash == b.payload_hash;
  }
  friend bool operator!=(const JournalRecord& a, const JournalRecord& b) {
    return !(a == b);
  }
};

// Reduces a trace event to its journal record. The payload hash covers the
// span duration and the event name — everything `(when, seq, shard, kind,
// phase)` does not already pin.
JournalRecord RecordFromTraceEvent(const TraceEvent& event);

class Journal {
 public:
  // 64 Ki 32-byte records = one 2 MB huge page per chunk.
  static constexpr std::size_t kRecordsPerChunk = 65536;

  Journal() = default;
  Journal(Journal&&) noexcept = default;
  Journal& operator=(Journal&&) noexcept = default;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void Append(const JournalRecord& record);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const JournalRecord& operator[](std::size_t i) const {
    return chunks_[i / kRecordsPerChunk].get()[i % kRecordsPerChunk];
  }

  // Running chain head over every appended record (ChainNext fold; 0 when
  // empty). Two byte-identical runs have equal heads — the cheap
  // whole-journal equality check before a structural diff.
  std::uint64_t chain_head() const { return chain_head_; }

  // Free-form metadata recorded alongside the events — the campaign
  // parameters (seed, fault counts, duration) a replay needs to re-execute
  // the run. Keys iterate sorted, so serialization is byte-stable.
  void SetMeta(const std::string& key, const std::string& value) {
    meta_[key] = value;
  }
  // Empty string when absent.
  std::string Meta(const std::string& key) const;
  const std::map<std::string, std::string>& meta() const { return meta_; }

  // On-disk round trip. WriteFile is byte-stable for identical journals;
  // ReadFile re-verifies the hash chain over every record and rejects a
  // truncated or corrupted file with FAILED_PRECONDITION.
  Status WriteFile(const std::string& path) const;
  static StatusOr<Journal> ReadFile(const std::string& path);

  // Test hook: overwrite one record's payload hash and recompute the chain
  // suffix so the journal stays self-consistent — the in-memory analogue of
  // "this run made a different decision at index i", used to prove the
  // verifier halts at exactly that event.
  void TamperForTest(std::size_t index, std::uint64_t new_payload_hash);

 private:
  struct ChunkFree {
    void operator()(JournalRecord* p) const;
  };
  using Chunk = std::unique_ptr<JournalRecord[], ChunkFree>;
  static Chunk AllocChunk();

  std::vector<Chunk> chunks_;
  std::size_t size_ = 0;
  std::uint64_t chain_head_ = 0;
  std::map<std::string, std::string> meta_;
};

}  // namespace xoar

#endif  // XOAR_SRC_REPLAY_JOURNAL_H_
