// Ablation: hosting-density trajectory (§1's "densely-multiplexed public
// cloud" and the §2 claim that disaggregation must not limit density).
//
//   ablation_density [--sweep 100,1000,10000,100000] [--max-guests N]
//                    [--shards N] [--out BENCH_density.json]
//                    [--record JOURNAL | --replay JOURNAL]
//
// Sweeps guest count across decades on the Xoar platform and reports, per
// sweep point: how many guests were created, wall-clock create throughput,
// per-domain control-plane bytes, and the XenStore-State shard count
// (SCALING.md). Two properties are enforced, not just measured:
//
//   - The create/destroy path performs *zero* O(n) walks of the domain
//     table: the hypervisor counts AllDomains() materializations
//     (domain_table_scans) and this bench exits non-zero if the counter
//     moves during the create sweep.
//   - Per-domain control-plane memory stays flat as density grows 10x:
//     control-plane shards are a bounded constant plus O(1) per XenStore
//     node, so bytes/domain must not grow more than 10% per decade
//     (validate_obs --density re-checks this from the exported report).
//
// Wall-clock timing (std::chrono::steady_clock) is confined to this bench
// binary; the simulation itself stays deterministic. --max-guests replaces
// the old hard 48-guest cutoff: 0 means "run each sweep point to its
// target", any other value caps every point (smoke tests run tiny sweeps).
//
// Record/replay (DEBUGGING.md, src/replay/harness.h): --record journals the
// full trace stream of every sweep point's platform (one platform per
// point, streamed back to back) plus the sweep parameters; --replay re-runs
// the journaled parameters and verifies every event against the recording,
// exiting 1 at the first divergence. Wall-clock never feeds back into the
// simulation, so the trace stream is byte-deterministic across runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/report.h"
#include "src/base/json.h"
#include "src/base/log.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/core/xoar_platform.h"
#include "src/obs/metrics.h"
#include "src/replay/harness.h"

namespace xoar {
namespace {

std::string SweepToString(const std::vector<int>& sweep) {
  std::string out;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    out += StrFormat(i == 0 ? "%d" : ",%d", sweep[i]);
  }
  return out;
}

std::vector<int> ParseSweep(const char* arg) {
  std::vector<int> sweep;
  std::string token;
  for (const char* c = arg;; ++c) {
    if (*c == ',' || *c == '\0') {
      if (!token.empty()) {
        sweep.push_back(std::atoi(token.c_str()));
        token.clear();
      }
      if (*c == '\0') {
        break;
      }
    } else {
      token += *c;
    }
  }
  return sweep;
}

struct Options {
  std::vector<int> sweep = {100, 1000, 10000, 100000};
  int max_guests = 0;  // 0 = no cap beyond the sweep target
  int shards = 0;      // 0 = auto-scale with the sweep target
  std::string out = "BENCH_density.json";

  JournalMeta ToMeta() const {
    return {{"sweep", SweepToString(sweep)},
            {"max_guests", StrFormat("%d", max_guests)},
            {"shards", StrFormat("%d", shards)}};
  }
  // A replay writes no report.
  static Options FromMeta(const JournalMeta& meta) {
    Options options;
    options.sweep = ParseSweep(MetaValue(meta, "sweep").c_str());
    options.max_guests = std::atoi(MetaValue(meta, "max_guests").c_str());
    options.shards = std::atoi(MetaValue(meta, "shards").c_str());
    options.out.clear();
    return options;
  }
};

struct SweepPoint {
  int domains_target = 0;
  int created = 0;
  int shard_count = 1;
  double create_ops_per_sec = 0;
  double per_domain_control_bytes = 0;
  std::uint64_t create_path_scans = 0;
  std::size_t xenstore_nodes = 0;
  std::uint64_t control_mb = 0;
};

// Rough per-node heap cost of a XenStore entry (path segment + value +
// COW-tree bookkeeping); the control-plane byte accounting charges the
// store's growth to the guests that caused it.
constexpr double kXsNodeBytes = 256.0;

int AutoShards(int domains) {
  // One State partition per ~640 tenants, capped at 16 — enough that a
  // shard microreboot stalls at most 1/16 of a 10^4-domain host.
  if (domains <= 100) {
    return 1;
  }
  if (domains <= 1000) {
    return 4;
  }
  return 16;
}

SweepPoint RunPoint(int target, int shards, int max_guests,
                    TraceSink* sink) {
  SweepPoint point;
  point.domains_target = target;
  point.shard_count = shards;

  XoarPlatform::Config config;
  // Small VDI-style guests (the paper's density best practice); size the
  // machine so neither memory nor disk is the binding constraint at this
  // sweep point. The default 320 GB disk holds ~76k 4 MiB images, so only
  // the 10^5 point grows it; smaller points keep the default geometry.
  constexpr std::uint64_t kGuestMb = 16;
  constexpr std::uint64_t kGuestDiskMb = 4;
  config.machine_memory_gb = 8 + (static_cast<std::uint64_t>(target) *
                                  kGuestMb * 2) / 1024;
  config.disk.capacity_bytes =
      std::max(config.disk.capacity_bytes,
               static_cast<std::uint64_t>(target) * kGuestDiskMb * 2 * kMiB);
  config.xenstore_state_shards = shards;
  // Density runs pack control-plane ops, not console traffic.
  config.console_manager_enabled = false;
  XoarPlatform platform(config);
  if (sink != nullptr) {
    // Record/replay observer: must be attached before Boot so the journal
    // covers the platform's whole life, not just the create sweep.
    platform.obs().tracer().set_enabled(true);
    platform.obs().tracer().set_sink(sink);
  }
  if (!platform.Boot().ok()) {
    std::fprintf(stderr, "boot failed at %d domains\n", target);
    return point;
  }

  const std::uint64_t scans_before = platform.hv().domain_table_scans();
  const auto wall_start = std::chrono::steady_clock::now();
  const int cap = max_guests > 0 ? std::min(max_guests, target) : target;
  for (int i = 0; i < cap; ++i) {
    auto guest = platform.CreateGuest(
        GuestSpec{.name = StrFormat("vdi-%d", i),
                  .memory_mb = kGuestMb,
                  .vcpus = 1,
                  .tenant = StrFormat("tenant-%d", i % 64),
                  .disk_image_mb = kGuestDiskMb});
    if (!guest.ok()) {
      std::fprintf(stderr, "create %d/%d failed: %s\n", i, cap,
                   guest.status().ToString().c_str());
      break;
    }
    ++point.created;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  point.create_path_scans =
      platform.hv().domain_table_scans() - scans_before;

  point.control_mb = platform.ControlPlaneMemoryMb();
  point.xenstore_nodes = platform.xenstore().store().NodeCount();
  if (point.created > 0) {
    point.create_ops_per_sec =
        wall_seconds > 0 ? point.created / wall_seconds : 0;
    point.per_domain_control_bytes =
        (static_cast<double>(point.control_mb) * kMiB +
         static_cast<double>(point.xenstore_nodes) * kXsNodeBytes) /
        point.created;
  }
  return point;
}

Status WriteReport(const std::string& path,
                   const std::vector<SweepPoint>& sweep, bool scan_free) {
  // The BENCH context + benchmarks skeleton plus one extra top-level array
  // ("sweep") for the trajectory itself.
  int max_domains = 0;
  int total_created = 0;
  for (const SweepPoint& p : sweep) {
    max_domains = std::max(max_domains, p.created);
    total_created += p.created;
  }
  JsonReport report("ablation_density", {"sweep"});
  report.AddMetric("density.sweep_points", "gauge", sweep.size());
  report.AddMetric("density.max_domains", "gauge", max_domains);
  report.AddMetric("density.total_created", "counter", total_created);
  report.AddMetric("density.scan_free_create_path", "gauge",
                   scan_free ? 1 : 0);
  report.AddMetric("xs.shard.count", "gauge",
                   sweep.empty() ? 1 : sweep.back().shard_count);
  for (const SweepPoint& p : sweep) {
    report.AddRow("sweep",
                  JsonObject()
                      .Num("domains", p.domains_target)
                      .Num("created", p.created)
                      .Num("shard_count", p.shard_count)
                      .Num("create_ops_per_sec", p.create_ops_per_sec, 3)
                      .Num("per_domain_control_bytes",
                           p.per_domain_control_bytes, 1)
                      .Num("create_path_scans", p.create_path_scans)
                      .Num("xenstore_nodes", p.xenstore_nodes)
                      .Num("control_plane_mb", p.control_mb));
  }
  return WriteStringToFile(path, report.ToString());
}

// The scenario: the whole sweep with `sink` observing every point's
// platform. Writes the report only when `options.out` is set.
int Run(const Options& options, TraceSink* sink) {
  if (options.sweep.empty()) {
    std::fprintf(stderr, "empty sweep\n");
    return 2;
  }
  PrintHeading("Ablation: density trajectory (sharded XenStore-State)");

  std::vector<SweepPoint> sweep;
  bool scan_free = true;
  for (int target : options.sweep) {
    const int shards =
        options.shards > 0 ? options.shards : AutoShards(target);
    SweepPoint point = RunPoint(target, shards, options.max_guests, sink);
    if (point.create_path_scans != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu O(n) domain-table scans on the create path "
                   "at %d domains\n",
                   static_cast<unsigned long long>(point.create_path_scans),
                   target);
      scan_free = false;
    }
    sweep.push_back(point);
  }

  Table table({"domains", "created", "shards", "creates/sec", "bytes/domain",
               "XS nodes", "table scans"});
  for (const SweepPoint& p : sweep) {
    table.AddRow({StrFormat("%d", p.domains_target),
                  StrFormat("%d", p.created),
                  StrFormat("%d", p.shard_count),
                  StrFormat("%.1f", p.create_ops_per_sec),
                  StrFormat("%.0f", p.per_domain_control_bytes),
                  StrFormat("%zu", p.xenstore_nodes),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(
                                p.create_path_scans))});
  }
  table.Print();

  // The flatness claim (§2.3.1 via SCALING.md): bytes/domain must not grow
  // more than 10% from one sweep decade to the next.
  bool flat = true;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].created == 0 || sweep[i - 1].created == 0) {
      continue;
    }
    if (sweep[i].per_domain_control_bytes >
        sweep[i - 1].per_domain_control_bytes * 1.10) {
      std::fprintf(stderr,
                   "FAIL: per-domain control bytes grew %.1f -> %.1f "
                   "(%d -> %d domains)\n",
                   sweep[i - 1].per_domain_control_bytes,
                   sweep[i].per_domain_control_bytes,
                   sweep[i - 1].created, sweep[i].created);
      flat = false;
    }
  }

  if (!options.out.empty()) {
    const Status written = WriteReport(options.out, sweep, scan_free);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 2;
    }
    std::printf("\ndensity report -> %s\n", options.out.c_str());
  }

  std::printf(
      "\nControl-plane cost per domain stays flat across decades: "
      "disaggregation\ncosts a bounded constant plus O(1) per guest, not a "
      "per-guest tax — the\npaper's requirement that security must not "
      "'limit the density of VM hosting'\n(§1, §2.3.1), extended to cloud "
      "density by State sharding (SCALING.md).\n");
  return (scan_free && flat) ? 0 : 1;
}

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  xoar::Logger::Get().set_level(xoar::LogLevel::kError);
  xoar::Options options;
  std::string record;
  std::string replay;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (std::strcmp(argv[i], "--sweep") == 0) {
      options.sweep = xoar::ParseSweep(next());
    } else if (std::strcmp(argv[i], "--max-guests") == 0) {
      options.max_guests = std::atoi(next());
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      options.shards = std::atoi(next());
    } else if (std::strcmp(argv[i], "--out") == 0) {
      options.out = next();
    } else if (std::strcmp(argv[i], "--record") == 0) {
      record = next();
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay = next();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--sweep N,N,...] [--max-guests N] "
                   "[--shards N] [--out FILE]\n"
                   "       [--record JOURNAL | --replay JOURNAL]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!replay.empty()) {
    return xoar::ReplayRun(
        replay, [](const xoar::JournalMeta& meta, xoar::TraceSink* sink) {
          return xoar::Run(xoar::Options::FromMeta(meta), sink);
        });
  }
  if (!record.empty()) {
    return xoar::RecordRun(record, options.ToMeta(),
                           [&](xoar::TraceSink* sink) {
                             return xoar::Run(options, sink);
                           });
  }
  return xoar::Run(options, nullptr);
}
