// Scaling microbenchmarks for the XenStore hot paths (google-benchmark),
// sweeping store size (10^2..10^5 nodes) and watch count. §5.1 argues
// disaggregation is only viable if these primitive costs stay small; the
// paths measured here are the ones every domain build, split-driver
// negotiation, and microreboot recovery funnels through:
//
//  - TransactionStart: O(1) copy-on-write tree share (was a full deep copy)
//  - quota-enabled node creation: O(depth) with incremental per-owner
//    counters (was an O(N) full-tree flatten per created node)
//  - watch dispatch: path-segment trie, cost follows matching watches
//    (was a linear scan over every registered watch per mutation)
//  - disjoint-path transaction commit: per-path read/write-set validation
//    (was a whole-store generation check that aborted on any activity)
//  - many owners: a committing transaction and a snapshot checkpoint each
//    used to copy the whole per-owner count map, O(owners); both are swept
//    over 1..10^4 owners and must stay flat
//  - wide directories: a transactional write and its commit copy the
//    shared children map of every directory on the path; with the
//    persistent AVL children map that is O(log fan-out) entries (was a
//    whole std::map per directory, O(fan-out)), swept over 10..10^4
//    siblings with the copy count reported beside the time
//
// Results are written to BENCH_xenstore.json (override with
// --benchmark_out=...) so future PRs can track the trajectory.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/obs/obs.h"
#include "src/xs/store.h"

namespace xoar {
namespace {

constexpr DomainId kManager{0};
constexpr DomainId kGuest{5};

// Populates `store` with `nodes` nodes shaped like a real toolstack store:
// 64-way fan-out directories with leaf entries below them.
void Populate(XsStore& store, int nodes, DomainId owner) {
  for (int i = 0; i < nodes; ++i) {
    const std::string path =
        StrFormat("/local/domain/%d/n%d", i % 64, i);
    (void)store.Write(owner, path, "v");
  }
}

// Store size for the owner sweeps: large enough that every one of 10^4
// owners holds a node.
constexpr int kOwnerSweepNodes = 10000;

// Populates `store` like Populate, then spreads the nodes evenly over
// `owners` domains (ids 1..owners) by manager chown -- the Toolstack's
// pattern for handing a guest its own directory.
void PopulateOwners(XsStore& store, int nodes, int owners) {
  Populate(store, nodes, kManager);
  XsNodePerms perms;
  for (int i = 0; i < nodes; ++i) {
    perms.owner = DomainId(static_cast<std::uint32_t>(1 + i % owners));
    (void)store.SetPerms(
        kManager, StrFormat("/local/domain/%d/n%d", i % 64, i), perms);
  }
}

void BM_TransactionStartAbort(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  Populate(store, static_cast<int>(state.range(0)), kManager);
  for (auto _ : state) {
    auto tx = store.TransactionStart(kManager);
    benchmark::DoNotOptimize(tx);
    (void)store.TransactionEnd(kManager, *tx, /*commit=*/false);
  }
  state.counters["store_nodes"] = static_cast<double>(store.NodeCount());
}
BENCHMARK(BM_TransactionStartAbort)
    ->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// A transaction whose commit creates a node (a direct remove then puts the
// store back), over a fixed-size store owned by 1..10^4 domains. The
// commit's replay accumulates owner changes in a delta instead of copying
// the owner-count map as its undo record, so the cost is flat in owners.
void BM_TransactionWriteCommit(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  PopulateOwners(store, kOwnerSweepNodes, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto tx = store.TransactionStart(kManager);
    (void)store.Write(kManager, "/local/domain/0/txkey", "v", *tx);
    (void)store.TransactionEnd(kManager, *tx, /*commit=*/true);
    (void)store.Remove(kManager, "/local/domain/0/txkey");
  }
  state.counters["store_nodes"] = static_cast<double>(store.NodeCount());
}
BENCHMARK(BM_TransactionWriteCommit)
    ->ArgName("owners")->Arg(1)->Arg(1000)->Arg(10000);

// A transaction writing one new node below a directory of `siblings`
// children, committed, then removed again by a direct write. Both the
// transaction's view and the commit replay share the directory with
// another version, so each copies a path through its children map.
void BM_TransactionWriteCommitFanOut(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  const int siblings = static_cast<int>(state.range(0));
  for (int i = 0; i < siblings; ++i) {
    (void)store.Mkdir(kManager, StrFormat("/local/domain/%d", i));
  }
  const std::string key = StrFormat("/local/domain/%d/txkey", siblings / 2);
  const std::uint64_t copies_before = store.cow_copies();
  for (auto _ : state) {
    auto tx = store.TransactionStart(kManager);
    (void)store.Write(kManager, key, "v", *tx);
    benchmark::DoNotOptimize(store.TransactionEnd(kManager, *tx, true));
    (void)store.Remove(kManager, key);
  }
  state.counters["cow_copies"] = benchmark::Counter(
      static_cast<double>(store.cow_copies() - copies_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TransactionWriteCommitFanOut)
    ->ArgName("siblings")->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// Two transactions writing disjoint paths, both committing — the case the
// whole-store generation check used to turn into spurious EAGAIN retries.
void BM_DisjointTransactionsCommit(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  Populate(store, static_cast<int>(state.range(0)), kManager);
  std::uint64_t aborted = 0;
  for (auto _ : state) {
    auto a = store.TransactionStart(kManager);
    auto b = store.TransactionStart(kManager);
    (void)store.Write(kManager, "/local/domain/1/a", "1", *a);
    (void)store.Write(kManager, "/local/domain/2/b", "2", *b);
    if (!store.TransactionEnd(kManager, *a, true).ok()) ++aborted;
    if (!store.TransactionEnd(kManager, *b, true).ok()) ++aborted;
  }
  state.counters["aborted"] = static_cast<double>(aborted);
}
BENCHMARK(BM_DisjointTransactionsCommit)->Arg(1000)->Arg(10000);

// Node creation with a quota configured: the quota check used to flatten
// the whole tree (copying every path and value) on *every* creation.
void BM_QuotaNodeCreate(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  (void)store.Mkdir(kManager, "/g");
  XsNodePerms perms;
  perms.owner = kGuest;
  (void)store.SetPerms(kManager, "/g", perms);
  const int nodes = static_cast<int>(state.range(0));
  // Headroom covers /g, the 64 fan-out directories, and the bench node, so
  // the loop below measures guarded creation rather than quota rejection.
  store.set_node_quota(static_cast<std::size_t>(nodes) + 128);
  for (int i = 0; i < nodes; ++i) {
    (void)store.Write(kGuest, StrFormat("/g/d%d/n%d", i % 64, i), "v");
  }
  for (auto _ : state) {
    (void)store.Write(kGuest, "/g/bench-node", "v");
    (void)store.Remove(kGuest, "/g/bench-node");
  }
  state.counters["guest_nodes"] =
      static_cast<double>(store.NodesOwnedBy(kGuest));
}
BENCHMARK(BM_QuotaNodeCreate)->Arg(100)->Arg(1000)->Arg(10000)->Arg(100000);

// Dispatching one mutation with W registered watches on disjoint paths:
// with the path-segment trie only the matching watch is visited.
void BM_WatchDispatch(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  const int watches = static_cast<int>(state.range(0));
  std::uint64_t fires = 0;
  for (int i = 0; i < watches; ++i) {
    (void)store.Watch(kManager, StrFormat("/w/%d", i), "tok",
                      [&](const XsWatchEvent&) { ++fires; });
  }
  std::uint64_t counter = 0;
  for (auto _ : state) {
    (void)store.Write(kManager, "/w/0/key", std::to_string(counter++));
  }
  state.counters["fires"] = static_cast<double>(fires);
}
BENCHMARK(BM_WatchDispatch)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// The XenStore-Logic restart checkpoint (§5.6): take a snapshot, then
// re-attach to it. Requests are gated while Logic is down, so the contents
// are unchanged and the restore is a no-op; the snapshot holds only the
// copy-on-write root, so the pair is flat in the number of owners.
void BM_SnapshotTakeRestore(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  PopulateOwners(store, kOwnerSweepNodes, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    XsStore::Snapshot snapshot = store.TakeSnapshot();
    benchmark::DoNotOptimize(snapshot);
    store.RestoreSnapshot(snapshot);
  }
}
BENCHMARK(BM_SnapshotTakeRestore)
    ->ArgName("owners")->Arg(1)->Arg(1000)->Arg(10000);

// Rolling back over changed contents: the restore recounts the owner
// counters from the tree, O(nodes). Only a restart completing over a
// store that changed underneath it pays this; no guest request can.
void BM_SnapshotRollback(benchmark::State& state) {
  Obs obs;
  XsStore store(&obs);
  store.AddManagerDomain(kManager);
  Populate(store, static_cast<int>(state.range(0)), kManager);
  for (auto _ : state) {
    XsStore::Snapshot snapshot = store.TakeSnapshot();
    (void)store.Write(kManager, "/local/domain/0/scratch", "x");
    store.RestoreSnapshot(snapshot);
  }
}
BENCHMARK(BM_SnapshotRollback)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace xoar

int main(int argc, char** argv) {
  // Default to emitting the JSON trajectory next to the working directory
  // unless the caller picked an explicit output.
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_xenstore.json";
  std::string format_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) {
      has_out = true;
    }
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
