#include "src/replay/harness.h"

#include <cstdio>

#include "src/replay/verify.h"

namespace xoar {

int RecordRun(const std::string& path, const JournalMeta& meta,
              const std::function<int(TraceSink*)>& run) {
  Journal journal;
  JournalRecorder recorder(&journal);
  const int result = run(&recorder);
  if (result == 2) {
    return result;
  }
  journal.set_meta(meta);
  const Status written = journal.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 written.ToString().c_str());
    return 2;
  }
  std::printf("journal (%zu events, chain %016llx) -> %s\n", journal.size(),
              static_cast<unsigned long long>(journal.chain_head()),
              path.c_str());
  return result;
}

int ReplayRun(const std::string& path,
              const std::function<int(const JournalMeta&, TraceSink*)>& run) {
  StatusOr<Journal> journal = Journal::ReadFile(path);
  if (!journal.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(),
                 journal.status().ToString().c_str());
    return 2;
  }
  ReplayVerifier verifier(&*journal);
  const int result = run(journal->meta(), &verifier);
  if (result == 2) {
    return result;
  }
  verifier.Finish();
  if (verifier.diverged()) {
    std::printf("replay of %s DIVERGED after %zu verified events\n%s",
                path.c_str(), verifier.verified(),
                verifier.report().ToString("journal", "replay").c_str());
    return 1;
  }
  std::printf("replay of %s verified: %zu events, zero divergences "
              "(chain %016llx)\n",
              path.c_str(), verifier.verified(),
              static_cast<unsigned long long>(journal->chain_head()));
  return result;
}

}  // namespace xoar
