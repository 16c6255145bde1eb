// The record/replay protocol every campaign binary shares (DEBUGGING.md,
// DESIGN.md §5h).
//
// A binary hands the harness its scenario: a function that runs once with
// the given TraceSink attached before its platform boots and returns the
// binary's exit code (0 pass, 1 a failed check, 2 an I/O or setup error).
// The binary keeps its scenario, its flags and the mapping between its
// parameters and journal metadata; attaching the recorder or verifier, the
// file round trip and the verdict live here once, so every binary records
// and replays the same way.
#ifndef XOAR_SRC_REPLAY_HARNESS_H_
#define XOAR_SRC_REPLAY_HARNESS_H_

#include <functional>
#include <string>

#include "src/obs/trace.h"
#include "src/replay/journal.h"

namespace xoar {

// Runs `run` with a JournalRecorder attached, stamps `meta` and writes the
// journal to `path`, then prints one "journal (N events, chain H) -> path"
// line. Writes nothing if the run returned 2. Returns the run's exit code,
// or 2 if the journal cannot be written.
int RecordRun(const std::string& path, const JournalMeta& meta,
              const std::function<int(TraceSink*)>& run);

// Reads the journal at `path` and runs `run` from the journal's own
// metadata, not the command line, with a ReplayVerifier attached: a replay
// only means something against the recording's own parameters. Prints the
// verdict: the first divergence with the context from both sides, or how
// many events verified. Returns 2 if the journal cannot be read or the run
// returned 2, 1 on a divergence, and otherwise the run's own exit code.
// The scenario should write no report when replayed.
int ReplayRun(const std::string& path,
              const std::function<int(const JournalMeta&, TraceSink*)>& run);

}  // namespace xoar

#endif  // XOAR_SRC_REPLAY_HARNESS_H_
