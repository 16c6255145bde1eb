// Journal CLI (DEBUGGING.md).
//
//   xoar_replay diff     <A> <B>
//   xoar_replay selftest [--seed N] [--out BENCH_replay.json]
//                        [--journal-dir DIR]
//
// Journals are recorded and replayed by the campaign binaries themselves
// (`--record`/`--replay` on fault_campaign, fleet_campaign and
// ablation_density, all through src/replay/harness.h). `diff` structurally
// compares two journals from any of them and reports their earliest
// disagreement. `selftest` exercises the whole loop on the probe campaign
// (src/fault/campaign.h) — record, round-trip through a file,
// replay-verify, two-seed diff, and an injected single-event perturbation
// that must be caught at exactly the planted index — and exports the
// replay.* gauges as BENCH-shape JSON for validate_obs --replay.
//
// Everything is driven by the simulator clock and the journaled seed, so
// the JSON report is byte-stable across runs and hosts.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/base/log.h"
#include "src/fault/campaign.h"
#include "src/obs/metrics.h"
#include "src/replay/diff.h"
#include "src/replay/journal.h"
#include "src/replay/verify.h"

namespace xoar {
namespace {

// Size on disk of an already-written file; 0 on error (the selftest's
// journal_bytes gauge then fails its >= 1 schema bound).
std::uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return 0;
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

int RunDiff(const std::string& path_a, const std::string& path_b) {
  StatusOr<Journal> a = Journal::ReadFile(path_a);
  if (!a.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path_a.c_str(),
                 a.status().ToString().c_str());
    return 2;
  }
  StatusOr<Journal> b = Journal::ReadFile(path_b);
  if (!b.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path_b.c_str(),
                 b.status().ToString().c_str());
    return 2;
  }
  std::printf("%s: %zu events, chain %016llx\n", path_a.c_str(), a->size(),
              static_cast<unsigned long long>(a->chain_head()));
  std::printf("%s: %zu events, chain %016llx\n", path_b.c_str(), b->size(),
              static_cast<unsigned long long>(b->chain_head()));
  DivergenceReport report = DiffJournals(*a, *b);
  std::printf("%s", report.ToString(path_a, path_b).c_str());
  return report.diverged ? 1 : 0;
}

// Records the probe campaign `run` into a journal stamped with its
// parameters and writes the journal to `path`.
StatusOr<Journal> RecordProbe(CampaignRunOptions run, const std::string& path,
                              std::uint64_t* violations) {
  Journal journal;
  JournalRecorder recorder(&journal);
  run.sink = &recorder;
  XOAR_ASSIGN_OR_RETURN(CampaignSummary summary, RunProbeCampaign(run));
  *violations = summary.violations;
  journal.set_meta(run.ToMeta());
  XOAR_RETURN_IF_ERROR(journal.WriteFile(path));
  return journal;
}

// Re-runs the probe campaign from `journal`'s own metadata under `verifier`.
Status VerifyProbe(const Journal& journal, ReplayVerifier* verifier) {
  CampaignRunOptions run = CampaignRunOptions::FromMeta(journal.meta());
  run.sink = verifier;
  XOAR_RETURN_IF_ERROR(RunProbeCampaign(run).status());
  verifier->Finish();
  return Status::Ok();
}

// An error is environmental (exit 2); a failed check is `false` (exit 1).
StatusOr<bool> RunSelftest(const CampaignRunOptions& options,
                           const std::string& out,
                           const std::string& journal_dir) {
  const std::string path_a = journal_dir + "/selftest_a.journal";
  const std::string path_b = journal_dir + "/selftest_b.journal";
  MetricRegistry metrics;

  // 1. Record seed A and round-trip it through a file. ReadFile re-verifies
  //    the hash chain over every record, so a successful load IS the
  //    chain-verified check.
  std::uint64_t violations = 0;
  XOAR_ASSIGN_OR_RETURN(Journal recorded,
                        RecordProbe(options, path_a, &violations));
  XOAR_ASSIGN_OR_RETURN(Journal loaded, Journal::ReadFile(path_a));
  const bool chain_verified = loaded.chain_head() == recorded.chain_head() &&
                              loaded.size() == recorded.size();
  std::printf("record: seed %llu, %zu events, chain %016llx (%s)\n",
              static_cast<unsigned long long>(options.seed), recorded.size(),
              static_cast<unsigned long long>(recorded.chain_head()),
              chain_verified ? "round trip verified" : "ROUND TRIP FAILED");

  // 2. Replay-verify: re-execute the journaled parameters and compare
  //    every event.
  ReplayVerifier verifier(&loaded);
  XOAR_RETURN_IF_ERROR(VerifyProbe(loaded, &verifier));
  std::printf("replay: %zu/%zu events verified, %s\n", verifier.verified(),
              loaded.size(),
              verifier.diverged() ? "DIVERGED" : "zero divergences");

  // 3. Structural diff against a different seed: must find a first
  //    divergence inside the journals.
  CampaignRunOptions options_b = options;
  options_b.seed = options.seed + 1;
  std::uint64_t violations_b = 0;
  XOAR_ASSIGN_OR_RETURN(Journal recorded_b,
                        RecordProbe(options_b, path_b, &violations_b));
  DivergenceReport diff = DiffJournals(recorded, recorded_b);
  std::printf("diff: seeds %llu vs %llu %s at record %zu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(options_b.seed),
              diff.diverged ? "diverge" : "DID NOT DIVERGE", diff.index);

  // 4. Perturbation: flip one journaled decision mid-stream (the chain is
  //    recomputed, so the journal stays self-consistent — this models a run
  //    that decided differently, not a corrupted file) and prove the
  //    verifier halts at exactly that event.
  const std::size_t perturb_index = loaded.size() / 2;
  loaded.TamperForTest(perturb_index, 0xdecafbadULL);
  ReplayVerifier perturb_verifier(&loaded);
  XOAR_RETURN_IF_ERROR(VerifyProbe(loaded, &perturb_verifier));
  const bool perturb_caught =
      perturb_verifier.diverged() &&
      perturb_verifier.report().index == perturb_index;
  std::printf("perturb: planted at %zu, %s at %zu\n", perturb_index,
              perturb_verifier.diverged() ? "caught" : "NOT CAUGHT",
              perturb_verifier.report().index);

  metrics.GetGauge("replay.seed")->Set(static_cast<double>(options.seed));
  metrics.GetGauge("replay.records")
      ->Set(static_cast<double>(recorded.size()));
  metrics.GetGauge("replay.journal_bytes")
      ->Set(static_cast<double>(FileBytes(path_a)));
  metrics.GetGauge("replay.chain_verified")->Set(chain_verified ? 1.0 : 0.0);
  metrics.GetGauge("replay.replay_divergences")
      ->Set(verifier.diverged() ? 1.0 : 0.0);
  metrics.GetGauge("replay.replay_verified")
      ->Set(static_cast<double>(verifier.verified()));
  metrics.GetGauge("replay.diff_seed_b")
      ->Set(static_cast<double>(options_b.seed));
  metrics.GetGauge("replay.diff_diverged")->Set(diff.diverged ? 1.0 : 0.0);
  metrics.GetGauge("replay.diff_index")
      ->Set(static_cast<double>(diff.index));
  metrics.GetGauge("replay.perturb_index")
      ->Set(static_cast<double>(perturb_index));
  metrics.GetGauge("replay.perturb_caught")->Set(perturb_caught ? 1.0 : 0.0);
  metrics.GetGauge("replay.perturb_caught_index")
      ->Set(static_cast<double>(perturb_verifier.report().index));

  XOAR_RETURN_IF_ERROR(metrics.WriteJsonFile(out, "xoar_replay"));
  std::printf("selftest report -> %s\n", out.c_str());
  return chain_verified && verifier.complete() && diff.diverged &&
         perturb_caught && violations == 0;
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s diff     <A> <B>\n"
               "       %s selftest [--seed N] [--out BENCH_replay.json]\n"
               "                   [--journal-dir DIR]\n",
               argv0, argv0);
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  xoar::Logger::Get().set_level(xoar::LogLevel::kError);
  const std::string command = argc < 2 ? "" : argv[1];
  if (command == "diff" && argc == 4) {
    return xoar::RunDiff(argv[2], argv[3]);
  }
  if (command != "selftest") {
    xoar::Usage(argv[0]);
    return 2;
  }
  xoar::CampaignRunOptions options;
  options.faults = 10;
  options.seconds = 4.0;
  std::string out = "BENCH_replay.json";
  std::string journal_dir = ".";
  for (int i = 2; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      options.seed = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out = next();
    } else if (std::strcmp(argv[i], "--journal-dir") == 0) {
      journal_dir = next();
    } else {
      xoar::Usage(argv[0]);
      return 2;
    }
  }
  xoar::StatusOr<bool> passed = xoar::RunSelftest(options, out, journal_dir);
  if (!passed.ok()) {
    std::fprintf(stderr, "%s\n", passed.status().ToString().c_str());
    return 2;
  }
  if (!*passed) {
    std::fprintf(stderr, "SELFTEST FAILED\n");
    return 1;
  }
  return 0;
}
