// The probe-campaign driver shared by bench/fault_campaign and
// tools/xoar_replay's selftest (RESILIENCE.md "Running a campaign",
// DEBUGGING.md).
//
// RunProbeCampaign boots a XoarPlatform, arms a FaultPlan::Randomized
// schedule, and drives the three-service probe loop (XenStore read, block
// write, network transmit every 11 ms) to completion, returning every
// number the campaign report prints. Hoisting it out of the bench binary
// is what makes record/replay possible: the recorder and the verifier must
// execute the *same* code path as the original run, or "divergence" would
// just mean "different driver".
//
// Attach a TraceSink via CampaignRunOptions::sink to observe the full
// trace-event stream of the run — a JournalRecorder to record it, a
// ReplayVerifier to check it against a prior recording. The driver enables
// the platform tracer only when a sink is attached; since the tracer is a
// pure observer (src/obs/trace.h), recorded and unrecorded runs of the
// same seed execute identically.
#ifndef XOAR_SRC_FAULT_CAMPAIGN_H_
#define XOAR_SRC_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/base/units.h"
#include "src/fault/fault.h"
#include "src/obs/trace.h"
#include "src/replay/journal.h"

namespace xoar {

struct CampaignRunOptions {
  std::uint64_t seed = 42;
  int faults = 12;
  double seconds = 6.0;
  int crashes = 2;
  int hangs = 2;
  int box_corrupts = 1;
  // Full-stream trace observer for the run; nullptr leaves tracing off.
  TraceSink* sink = nullptr;
  // Where to write the campaign.* metric report (BENCH-shape JSON, binary
  // name "fault_campaign"); empty skips the write.
  std::string metrics_out;

  // The parameters above as journal metadata, and back. FromMeta leaves
  // `sink` and `metrics_out` empty: a replay writes no report.
  JournalMeta ToMeta() const;
  static CampaignRunOptions FromMeta(const JournalMeta& meta);
};

// Everything the campaign measured, plus the armed plan for reporting.
struct CampaignSummary {
  FaultPlan plan;
  SimTime start = 0;

  std::uint64_t probes_issued = 0;
  double availability = 0;
  double mean_recovery_ms = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t absorbed_by_retry = 0;
  std::uint64_t microreboots = 0;
  std::uint64_t crashes_skipped = 0;

  std::uint64_t hangs_injected = 0;
  std::uint64_t hangs_detected = 0;
  std::uint64_t hangs_absorbed = 0;
  std::uint64_t deaths_detected = 0;
  std::uint64_t auto_restarts = 0;
  std::uint64_t quarantines = 0;
  SimDuration heartbeat_timeout = 0;
  SimDuration hang_detection_max = 0;

  std::uint64_t box_corrupts_injected = 0;
  std::uint64_t boxes_rejected = 0;

  // Invariant-violation breakdown; `violations` is their sum and must be
  // zero for a passing campaign.
  std::uint64_t host_failures = 0;
  std::uint64_t lost_probes = 0;
  std::uint64_t final_failures = 0;
  std::uint64_t supervision_failures = 0;
  std::uint64_t violations = 0;
};

// Runs the campaign to completion. Errors (boot/guest-creation/report-write
// failure) are environmental; invariant violations are NOT errors — they
// come back counted in the summary for the caller to judge.
StatusOr<CampaignSummary> RunProbeCampaign(const CampaignRunOptions& options);

}  // namespace xoar

#endif  // XOAR_SRC_FAULT_CAMPAIGN_H_
