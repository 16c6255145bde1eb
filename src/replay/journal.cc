#include "src/replay/journal.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "src/base/hash_chain.h"
#include "src/base/json.h"
#include "src/base/strings.h"

namespace xoar {
namespace {

constexpr char kMagic[8] = {'X', 'O', 'A', 'R', 'J', 'N', 'L', '1'};
constexpr std::size_t kChunkBytes =
    Journal::kRecordsPerChunk * sizeof(JournalRecord);

void PutU16(char*& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    *out++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}
void PutU32(char*& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    *out++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}
void PutU64(char*& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *out++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}
std::uint16_t GetU16(const char*& in) {
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<std::uint16_t>(static_cast<unsigned char>(*in++)) << (8 * i);
  }
  return v;
}
std::uint32_t GetU32(const char*& in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(*in++)) << (8 * i);
  }
  return v;
}
std::uint64_t GetU64(const char*& in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(*in++)) << (8 * i);
  }
  return v;
}

void AppendU32(std::string* out, std::uint32_t v) {
  char buf[4];
  char* p = buf;
  PutU32(p, v);
  out->append(buf, sizeof(buf));
}
void AppendU64(std::string* out, std::uint64_t v) {
  char buf[8];
  char* p = buf;
  PutU64(p, v);
  out->append(buf, sizeof(buf));
}

}  // namespace

void JournalRecord::SerializeTo(char out[kWireBytes]) const {
  char* p = out;
  PutU64(p, when);
  PutU64(p, seq);
  PutU32(p, shard);
  *p++ = static_cast<char>(kind);
  *p++ = static_cast<char>(phase);
  PutU16(p, 0);  // reserved
  PutU64(p, payload_hash);
}

JournalRecord JournalRecord::Deserialize(const char in[kWireBytes]) {
  const char* p = in;
  JournalRecord r;
  r.when = GetU64(p);
  r.seq = GetU64(p);
  r.shard = GetU32(p);
  r.kind = static_cast<std::uint8_t>(*p++);
  r.phase = static_cast<std::uint8_t>(*p++);
  r.reserved = GetU16(p);
  r.payload_hash = GetU64(p);
  return r;
}

JournalRecord RecordFromTraceEvent(const TraceEvent& event) {
  JournalRecord r;
  r.when = event.ts;
  r.seq = event.seq;
  r.shard = event.track;
  r.kind = static_cast<std::uint8_t>(event.cat);
  r.phase = static_cast<std::uint8_t>(event.phase);
  // Everything (when, seq, shard, kind, phase) does not pin: the span
  // duration and the event name.
  std::string payload;
  payload.reserve(sizeof(std::uint64_t) + event.name.size());
  AppendU64(&payload, event.dur);
  payload.append(event.name);
  r.payload_hash = HashBytes(payload);
  return r;
}

void Journal::ChunkFree::operator()(JournalRecord* p) const {
  std::free(p);
}

Journal::Chunk Journal::AllocChunk() {
  // One chunk spans exactly one 2 MB huge page; ask the kernel to back it
  // with one when transparent huge pages are available. Appends only ever
  // touch the tail chunk, so first-touch stays sequential either way.
  void* p = nullptr;
  if (posix_memalign(&p, kChunkBytes, kChunkBytes) != 0) {
    p = std::malloc(kChunkBytes);  // alignment is an optimization, not a need
  }
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (p != nullptr) {
    madvise(p, kChunkBytes, MADV_HUGEPAGE);
  }
#endif
  return Chunk(static_cast<JournalRecord*>(p));
}

void Journal::Append(const JournalRecord& record) {
  if (size_ % kRecordsPerChunk == 0) {
    chunks_.push_back(AllocChunk());
  }
  JournalRecord& slot =
      chunks_.back().get()[size_ % kRecordsPerChunk];
  slot = record;
  slot.reserved = 0;
  ++size_;
  char wire[JournalRecord::kWireBytes];
  slot.SerializeTo(wire);
  chain_head_ = ChainNext(chain_head_, std::string_view(wire, sizeof(wire)));
}

std::string MetaValue(const JournalMeta& meta, const std::string& key) {
  auto it = meta.find(key);
  return it == meta.end() ? std::string() : it->second;
}

Status Journal::WriteFile(const std::string& path) const {
  std::string out;
  out.reserve(64 + size_ * JournalRecord::kWireBytes);
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, static_cast<std::uint32_t>(meta_.size()));
  for (const auto& [key, value] : meta_) {  // sorted => byte-stable
    AppendU32(&out, static_cast<std::uint32_t>(key.size()));
    out.append(key);
    AppendU32(&out, static_cast<std::uint32_t>(value.size()));
    out.append(value);
  }
  AppendU64(&out, size_);
  AppendU64(&out, chain_head_);
  char wire[JournalRecord::kWireBytes];
  for (std::size_t i = 0; i < size_; ++i) {
    (*this)[i].SerializeTo(wire);
    out.append(wire, sizeof(wire));
  }
  return WriteStringToFile(path, out);
}

StatusOr<Journal> Journal::ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError(StrFormat("cannot open %s", path.c_str()));
  }
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);

  std::size_t off = 0;
  auto remaining = [&] { return data.size() - off; };
  auto truncated = [&](const char* what) {
    return FailedPreconditionError(
        StrFormat("%s: journal truncated in %s", path.c_str(), what));
  };
  if (remaining() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return FailedPreconditionError(
        StrFormat("%s: not a XOARJNL1 journal", path.c_str()));
  }
  off += sizeof(kMagic);

  Journal journal;
  if (remaining() < 4) {
    return truncated("metadata count");
  }
  const char* p = data.data() + off;
  const std::uint32_t meta_count = GetU32(p);
  off += 4;
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    if (remaining() < 4) {
      return truncated("metadata key length");
    }
    p = data.data() + off;
    const std::uint32_t key_len = GetU32(p);
    off += 4;
    if (remaining() < key_len + 4) {
      return truncated("metadata key");
    }
    std::string key = data.substr(off, key_len);
    off += key_len;
    p = data.data() + off;
    const std::uint32_t value_len = GetU32(p);
    off += 4;
    if (remaining() < value_len) {
      return truncated("metadata value");
    }
    journal.meta_[std::move(key)] = data.substr(off, value_len);
    off += value_len;
  }
  if (remaining() < 16) {
    return truncated("record header");
  }
  p = data.data() + off;
  const std::uint64_t record_count = GetU64(p);
  const std::uint64_t stored_head = GetU64(p);
  off += 16;
  if (record_count > remaining() / JournalRecord::kWireBytes ||
      remaining() != record_count * JournalRecord::kWireBytes) {
    return FailedPreconditionError(StrFormat(
        "%s: journal truncated or padded: header promises %llu records "
        "(%llu bytes) but %zu bytes follow",
        path.c_str(), static_cast<unsigned long long>(record_count),
        static_cast<unsigned long long>(record_count *
                                        JournalRecord::kWireBytes),
        remaining()));
  }
  for (std::uint64_t i = 0; i < record_count; ++i) {
    journal.Append(JournalRecord::Deserialize(data.data() + off));
    off += JournalRecord::kWireBytes;
  }
  // The chain re-folded over every record must land on the stored head; a
  // single flipped byte anywhere in the record stream fails here.
  if (journal.chain_head_ != stored_head) {
    return FailedPreconditionError(StrFormat(
        "%s: hash chain mismatch (stored head %016llx, recomputed %016llx) "
        "— journal corrupt",
        path.c_str(), static_cast<unsigned long long>(stored_head),
        static_cast<unsigned long long>(journal.chain_head_)));
  }
  return journal;
}

void Journal::TamperForTest(std::size_t index,
                            std::uint64_t new_payload_hash) {
  if (index >= size_) {
    return;
  }
  chunks_[index / kRecordsPerChunk].get()[index % kRecordsPerChunk]
      .payload_hash = new_payload_hash;
  // Recompute the whole chain so the tampered journal is self-consistent
  // (models a run that made a different decision, not a corrupt file).
  chain_head_ = 0;
  char wire[JournalRecord::kWireBytes];
  for (std::size_t i = 0; i < size_; ++i) {
    (*this)[i].SerializeTo(wire);
    chain_head_ =
        ChainNext(chain_head_, std::string_view(wire, sizeof(wire)));
  }
}

}  // namespace xoar
