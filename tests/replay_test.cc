// Tests for the deterministic record/replay journal (src/replay,
// DEBUGGING.md): record->replay identity, exact-index divergence capture,
// hash-chain rejection of corrupt and truncated files, and the structural
// first-divergence differ.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/hash_chain.h"
#include "src/core/xoar_platform.h"
#include "src/fault/campaign.h"
#include "src/obs/trace.h"
#include "src/replay/diff.h"
#include "src/replay/journal.h"
#include "src/replay/verify.h"

namespace xoar {
namespace {

TraceEvent MakeEvent(std::uint64_t seq, SimTime ts = 0,
                     std::uint32_t track = 0,
                     TraceCategory cat = TraceCategory::kEvtchn,
                     std::string name = "notify", SimDuration dur = 0) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.cat = cat;
  event.name = std::move(name);
  event.ts = ts;
  event.dur = dur;
  event.track = track;
  event.seq = seq;
  return event;
}

// A journal of `n` synthetic but distinct events.
Journal MakeJournal(std::size_t n) {
  Journal journal;
  for (std::size_t i = 0; i < n; ++i) {
    journal.Append(RecordFromTraceEvent(
        MakeEvent(i, i * kMillisecond, static_cast<std::uint32_t>(i % 4))));
  }
  return journal;
}

// The plain and ASan builds of this test run in parallel under ctest, so
// each process gets its own file names.
std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + std::to_string(getpid()) + "_" + name;
}

// ---------------------------------------------------------------------------
// Chaining and record mapping
// ---------------------------------------------------------------------------

TEST(ChainTest, ChainNextMatchesHashChainAppend) {
  // The journal's streaming fold and the audit log's HashChain must agree
  // record for record — they share ChainNext by construction.
  HashChain chain;
  std::uint64_t head = 0;
  for (int i = 0; i < 32; ++i) {
    char wire[JournalRecord::kWireBytes];
    RecordFromTraceEvent(MakeEvent(i, i * kMicrosecond)).SerializeTo(wire);
    const std::string_view record(wire, sizeof(wire));
    chain.Append(record);
    head = ChainNext(head, record);
    EXPECT_EQ(chain.head(), head);
  }
}

TEST(ChainTest, JournalChainHeadMatchesManualFold) {
  Journal journal;
  std::uint64_t head = 0;
  for (int i = 0; i < 100; ++i) {
    const JournalRecord record =
        RecordFromTraceEvent(MakeEvent(i, i * kMillisecond));
    journal.Append(record);
    char wire[JournalRecord::kWireBytes];
    record.SerializeTo(wire);
    head = ChainNext(head, std::string_view(wire, sizeof(wire)));
  }
  EXPECT_EQ(journal.chain_head(), head);
}

TEST(RecordTest, MapsTraceEventFields) {
  const TraceEvent event = MakeEvent(7, 3 * kMillisecond, 5,
                                     TraceCategory::kWatchdog,
                                     "escalate:netback grade=fast", 42);
  const JournalRecord record = RecordFromTraceEvent(event);
  EXPECT_EQ(record.when, 3 * kMillisecond);
  EXPECT_EQ(record.seq, 7u);
  EXPECT_EQ(record.shard, 5u);
  EXPECT_EQ(record.kind,
            static_cast<std::uint8_t>(TraceCategory::kWatchdog));
  EXPECT_EQ(record.phase,
            static_cast<std::uint8_t>(TraceEvent::Phase::kComplete));
}

TEST(RecordTest, PayloadHashCoversNameAndDuration) {
  const TraceEvent base = MakeEvent(0);
  TraceEvent renamed = base;
  renamed.name = "other";
  TraceEvent stretched = base;
  stretched.dur = 1;
  EXPECT_NE(RecordFromTraceEvent(base).payload_hash,
            RecordFromTraceEvent(renamed).payload_hash);
  EXPECT_NE(RecordFromTraceEvent(base).payload_hash,
            RecordFromTraceEvent(stretched).payload_hash);
  EXPECT_EQ(RecordFromTraceEvent(base).payload_hash,
            RecordFromTraceEvent(MakeEvent(9, 1, 2)).payload_hash)
      << "fields outside (dur, name) must not feed the payload hash";
}

TEST(JournalTest, AppendSpansChunkBoundary) {
  // Cross the 64 Ki-record chunk boundary and make sure indexing and the
  // chain stay consistent.
  const std::size_t n = Journal::kRecordsPerChunk + 17;
  Journal journal;
  for (std::size_t i = 0; i < n; ++i) {
    journal.Append(RecordFromTraceEvent(MakeEvent(i, i)));
  }
  ASSERT_EQ(journal.size(), n);
  EXPECT_EQ(journal[0].seq, 0u);
  EXPECT_EQ(journal[Journal::kRecordsPerChunk].seq,
            Journal::kRecordsPerChunk);
  EXPECT_EQ(journal[n - 1].seq, n - 1);
  EXPECT_NE(journal.chain_head(), 0u);
}

// ---------------------------------------------------------------------------
// File round trip and tamper evidence
// ---------------------------------------------------------------------------

TEST(JournalFileTest, RoundTripPreservesEverything) {
  Journal journal = MakeJournal(500);
  journal.SetMeta("seed", "42");
  journal.SetMeta("seconds", "4.000000");
  const std::string path = TempPath("roundtrip.journal");
  ASSERT_TRUE(journal.WriteFile(path).ok());
  StatusOr<Journal> loaded = Journal::ReadFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), journal.size());
  for (std::size_t i = 0; i < journal.size(); ++i) {
    EXPECT_EQ((*loaded)[i], journal[i]);
  }
  EXPECT_EQ(loaded->chain_head(), journal.chain_head());
  EXPECT_EQ(loaded->Meta("seed"), "42");
  EXPECT_EQ(loaded->Meta("seconds"), "4.000000");
  EXPECT_EQ(loaded->Meta("absent"), "");
}

TEST(JournalFileTest, WriteIsByteStable) {
  Journal journal = MakeJournal(200);
  journal.SetMeta("seed", "7");
  const std::string a = TempPath("stable_a.journal");
  const std::string b = TempPath("stable_b.journal");
  ASSERT_TRUE(journal.WriteFile(a).ok());
  ASSERT_TRUE(journal.WriteFile(b).ok());
  auto slurp = [](const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string bytes;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    std::fclose(f);
    return bytes;
  };
  EXPECT_EQ(slurp(a), slurp(b));
}

TEST(JournalFileTest, FlippedRecordByteIsRejectedByChain) {
  Journal journal = MakeJournal(64);
  const std::string path = TempPath("corrupt.journal");
  ASSERT_TRUE(journal.WriteFile(path).ok());
  // Flip one byte near the end of the file — inside the record area, after
  // the stored chain head would already have been written.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, -5, SEEK_END);
  int c = std::fgetc(f);
  std::fseek(f, -5, SEEK_END);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);
  StatusOr<Journal> loaded = Journal::ReadFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(JournalFileTest, TruncatedFileIsRejected) {
  Journal journal = MakeJournal(64);
  const std::string path = TempPath("truncated.journal");
  ASSERT_TRUE(journal.WriteFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<char> bytes(full - 40);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  EXPECT_FALSE(Journal::ReadFile(path).ok());
}

TEST(JournalFileTest, BadMagicIsRejected) {
  const std::string path = TempPath("badmagic.journal");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTAJRNL and then some trailing bytes", f);
  std::fclose(f);
  EXPECT_FALSE(Journal::ReadFile(path).ok());
}

// ---------------------------------------------------------------------------
// Replay verification
// ---------------------------------------------------------------------------

TEST(VerifierTest, IdenticalStreamVerifiesCompletely) {
  Journal journal = MakeJournal(300);
  ReplayVerifier verifier(&journal);
  for (std::size_t i = 0; i < 300; ++i) {
    verifier.OnTraceEvent(
        MakeEvent(i, i * kMillisecond, static_cast<std::uint32_t>(i % 4)));
  }
  verifier.Finish();
  EXPECT_TRUE(verifier.complete());
  EXPECT_FALSE(verifier.diverged());
  EXPECT_EQ(verifier.verified(), 300u);
}

TEST(VerifierTest, PerturbationCaughtAtExactWhenSeq) {
  Journal journal = MakeJournal(300);
  const std::size_t planted = 123;
  journal.TamperForTest(planted, 0xdecafbadULL);
  ReplayVerifier verifier(&journal);
  for (std::size_t i = 0; i < 300; ++i) {
    verifier.OnTraceEvent(
        MakeEvent(i, i * kMillisecond, static_cast<std::uint32_t>(i % 4)));
  }
  verifier.Finish();
  EXPECT_FALSE(verifier.complete());
  ASSERT_TRUE(verifier.diverged());
  const DivergenceReport& report = verifier.report();
  EXPECT_EQ(report.index, planted);
  ASSERT_TRUE(report.has_a);
  ASSERT_TRUE(report.has_b);
  // The halt is pinned to the exact (when, seq) of the planted record.
  EXPECT_EQ(report.a.when, planted * kMillisecond);
  EXPECT_EQ(report.a.seq, planted);
  EXPECT_EQ(report.b.when, planted * kMillisecond);
  EXPECT_EQ(report.b.seq, planted);
  EXPECT_EQ(report.a.payload_hash, 0xdecafbadULL);
  // Context: the preceding window from both sides, with live-side names.
  EXPECT_EQ(report.a_context.size(), 8u);
  EXPECT_EQ(report.b_context.size(), 8u);
  EXPECT_EQ(report.b_context_names.size(), 8u);
  EXPECT_EQ(report.b_name, "notify");
  // Verification halted: only `planted` events matched.
  EXPECT_EQ(verifier.verified(), planted);
  const std::string rendered = report.ToString("journal", "replay");
  EXPECT_NE(rendered.find("first divergence at record 123"),
            std::string::npos);
  EXPECT_NE(rendered.find("seq=123"), std::string::npos);
}

TEST(VerifierTest, ExtraLiveEventDiverges) {
  Journal journal = MakeJournal(10);
  ReplayVerifier verifier(&journal);
  for (std::size_t i = 0; i < 11; ++i) {  // one event past the journal
    verifier.OnTraceEvent(MakeEvent(i, i * kMillisecond,
                                    static_cast<std::uint32_t>(i % 4)));
  }
  verifier.Finish();
  ASSERT_TRUE(verifier.diverged());
  EXPECT_EQ(verifier.report().index, 10u);
  EXPECT_FALSE(verifier.report().has_a);
  EXPECT_TRUE(verifier.report().has_b);
}

TEST(VerifierTest, MissingLiveEventsFlaggedByFinish) {
  Journal journal = MakeJournal(10);
  ReplayVerifier verifier(&journal);
  for (std::size_t i = 0; i < 6; ++i) {
    verifier.OnTraceEvent(MakeEvent(i, i * kMillisecond,
                                    static_cast<std::uint32_t>(i % 4)));
  }
  EXPECT_FALSE(verifier.diverged());  // not diverged until Finish
  verifier.Finish();
  ASSERT_TRUE(verifier.diverged());
  EXPECT_EQ(verifier.report().index, 6u);
  EXPECT_TRUE(verifier.report().has_a);
  EXPECT_FALSE(verifier.report().has_b);
}

// ---------------------------------------------------------------------------
// Structural diff
// ---------------------------------------------------------------------------

TEST(DiffTest, IdenticalJournalsDoNotDiverge) {
  Journal a = MakeJournal(100);
  Journal b = MakeJournal(100);
  const DivergenceReport report = DiffJournals(a, b);
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.ToString(), "no divergence\n");
}

TEST(DiffTest, ReportsEarliestDisagreementWithContext) {
  Journal a = MakeJournal(100);
  Journal b = MakeJournal(100);
  b.TamperForTest(40, 1);
  b.TamperForTest(70, 2);  // later difference must not mask the first
  const DivergenceReport report = DiffJournals(a, b);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.index, 40u);
  EXPECT_EQ(report.a.when, 40 * kMillisecond);
  EXPECT_EQ(report.a.seq, 40u);
  EXPECT_EQ(report.a_context.size(), 8u);
  EXPECT_EQ(report.b_context.size(), 8u);
  EXPECT_EQ(report.a_context.front().seq, 32u);
}

TEST(DiffTest, PrefixJournalDivergesAtItsEnd) {
  Journal a = MakeJournal(100);
  Journal b = MakeJournal(60);  // strict prefix of a
  const DivergenceReport report = DiffJournals(a, b, /*context=*/4);
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.index, 60u);
  EXPECT_TRUE(report.has_a);
  EXPECT_FALSE(report.has_b);
  EXPECT_EQ(report.a_context.size(), 4u);
  const std::string rendered = report.ToString();
  EXPECT_NE(rendered.find("<stream ended>"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end: real platform, real campaign
// ---------------------------------------------------------------------------

TEST(EndToEndTest, PlatformBootRecordsIdenticalJournals) {
  // Two boots of the same platform configuration must journal identically
  // — the determinism guarantee record/replay is built on.
  auto boot_journal = [] {
    Journal journal;
    JournalRecorder recorder(&journal);
    XoarPlatform platform;
    platform.obs().tracer().set_enabled(true);
    platform.obs().tracer().set_sink(&recorder);
    EXPECT_TRUE(platform.Boot().ok());
    platform.Settle();
    platform.obs().tracer().set_sink(nullptr);
    return journal;
  };
  Journal first = boot_journal();
  Journal second = boot_journal();
  ASSERT_GT(first.size(), 0u);
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(first.chain_head(), second.chain_head());
  EXPECT_FALSE(DiffJournals(first, second).diverged);
}

TEST(EndToEndTest, CampaignRecordThenReplayVerifies) {
  // Record a small fault campaign, then re-execute it against the journal:
  // every event must match (this is the bench.fault_campaign.replay loop
  // in miniature, including watchdog escalation and box-reject decisions).
  CampaignRunOptions record_run;
  record_run.seed = 11;
  record_run.faults = 4;
  record_run.seconds = 1.0;
  record_run.crashes = 1;
  record_run.hangs = 1;
  record_run.box_corrupts = 1;
  Journal journal;
  JournalRecorder recorder(&journal);
  record_run.sink = &recorder;
  StatusOr<CampaignSummary> recorded = RunProbeCampaign(record_run);
  ASSERT_TRUE(recorded.ok()) << recorded.status();
  ASSERT_GT(journal.size(), 0u);

  CampaignRunOptions replay_run = record_run;
  ReplayVerifier verifier(&journal);
  replay_run.sink = &verifier;
  StatusOr<CampaignSummary> replayed = RunProbeCampaign(replay_run);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  verifier.Finish();
  EXPECT_TRUE(verifier.complete())
      << verifier.report().ToString("journal", "replay");
  EXPECT_EQ(verifier.verified(), journal.size());
  EXPECT_EQ(recorded->violations, replayed->violations);
}

}  // namespace
}  // namespace xoar
