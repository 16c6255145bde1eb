// xs_mixed: one host's XenStore — XenStore-Logic plus 16 XenStore-State
// shards, restarted after every request as in Fig 5.1 — with a few
// thousand connected owner domains, populated in setup. One caller sends
// a seeded mix, each call waiting for its reply: reads of existing nodes,
// read-your-own-write spot checks, writes (some to watched paths), List,
// transactions, and deliberately conflicting transaction pairs whose
// second commit must abort. The load isolates the XenStore layer
// (snapshot-per-request, watch trie, commit validation); no split driver
// or control-plane code runs, and the sim kernel only delivers watches.
#include <memory>
#include <type_traits>

#include "perfbench/src/workload.h"
#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/base/units.h"
#include "src/hv/hypervisor.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/xs/service.h"

namespace perfbench {
namespace {

using xoar::DomainId;
using xoar::Status;
using xoar::StatusCode;
using xoar::StatusOr;

constexpr int kOwners = 3000;
constexpr int kShards = 16;
constexpr int kDataKeys = 4;
constexpr int kWatchEvery = 4;      // every 4th owner watches its control dir
constexpr std::size_t kDirEntries = 5;  // name state memory control data
constexpr int kDeliverEvery = 16;   // rounds between watch deliveries
constexpr int kProbeRepeats = 31;

class XsMixed : public Workload {
 public:
  explicit XsMixed(Tracer* tracer) : Workload(tracer) {}

  Status Setup(std::uint64_t seed, Probes* probes) override {
    rng_.Seed(seed);
    sim_ = std::make_unique<xoar::Simulator>();
    obs_ = std::make_unique<xoar::Obs>();
    obs_->tracer().set_sim(sim_.get());
    xoar::Hypervisor::Options options;
    options.enforce_shard_sharing_policy = true;
    options.total_memory_bytes = 64 * xoar::kGiB;
    hv_ = std::make_unique<xoar::Hypervisor>(sim_.get(), options, obs_.get());
    xs_ = std::make_unique<xoar::XenStoreService>(hv_.get(), sim_.get(),
                                                  obs_.get());
    xoar::DomainConfig boot;
    boot.name = "bootstrapper";
    boot.memory_mb = 32;
    boot.is_shard = true;
    XOAR_ASSIGN_OR_RETURN(boot_, hv_->CreateInitialDomain(boot, false));
    hv_->domain(boot_)->hypercall_policy().PermitAll();
    XOAR_ASSIGN_OR_RETURN(logic_, NewDomain("XenStore-Logic", true));
    std::vector<DomainId> states;
    for (int i = 0; i < kShards; ++i) {
      XOAR_ASSIGN_OR_RETURN(
          DomainId state, NewDomain(xoar::StrFormat("XenStore-State-%d", i),
                                    true));
      states.push_back(state);
    }
    xs_->SetShardCount(kShards);
    xs_->DeploySplit(logic_, states);
    xs_->set_restart_policy(xoar::XenStoreService::RestartPolicy::kPerRequest);
    XOAR_RETURN_IF_ERROR(hv_->AllowDelegation(boot_, logic_, boot_));

    for (int i = 1; i <= kOwners; ++i) {
      XOAR_RETURN_IF_ERROR(AddOwner(i - 1));
      if (probes != nullptr && i == kOwners / 2) {
        probes->read_half_us = ReadProbe();
      }
    }
    if (probes != nullptr) {
      probes->read_full_us = ReadProbe();
    }
    sim_->RunFor(xoar::kMillisecond);  // registration fires
    return Status::Ok();
  }

  void Round(std::uint64_t round) override {
    const int o = static_cast<int>(rng_.NextBelow(owners_.size()));
    const DomainId owner = owners_[o];
    const std::string key = xoar::StrFormat(
        "%s/data/k%d", Dir(owner).c_str(),
        static_cast<int>(rng_.NextBelow(kDataKeys)));
    const int pick = static_cast<int>(rng_.NextBelow(100));
    if (pick < 50) {
      Note(Call("xs.Read", round,
                [&] { return xs_->Read(owner, key); }).status());
    } else if (pick < 60) {
      ReadYourWrite(owner, key, round);
    } else if (pick < 72) {
      const std::string path = Dir(owner) + "/control/shutdown";
      Note(Call("xs.Write", round, [&] {
        return xs_->Write(owner, path, xoar::StrFormat("r%llu", ToUll(round)));
      }));
      if (o % kWatchEvery == 0) {
        ++watched_writes_;
      }
    } else if (pick < 82) {
      const StatusOr<std::vector<std::string>> children =
          Call("xs.List", round, [&] { return xs_->List(owner, Dir(owner)); });
      Note(!children.ok() || children->size() == kDirEntries
               ? children.status()
               : xoar::InternalError("List returned the wrong children"));
    } else if (pick < 95) {
      Transaction(owner, key, round);
    } else {
      ConflictingPair(owner, key, round);
    }
    if (round % kDeliverEvery == kDeliverEvery - 1) {
      Span span(tracer_, "sim.RunFor", Layer::kSim, round);
      sim_->RunFor(xoar::kMillisecond);
    }
  }

  std::uint64_t checkpoint_rounds() const override { return 4000; }

  WorkCounters Counters() override {
    WorkCounters counters;
    AddHostCounters(*sim_, *hv_, *xs_, *obs_, &counters);
    return counters;
  }

  std::size_t PendingEvents() override { return sim_->PendingEvents(); }

  std::uint64_t StateDigest() override {
    Fnv64 digest;
    digest.Add(sim_->Now());
    digest.Add(owner_ids_.value());
    digest.Add(xs_->store().NodeCount());
    digest.Add(watch_fires_);
    return digest.value();
  }

  void Finish(std::vector<std::string>* failures) override {
    sim_->RunFor(10 * xoar::kMillisecond);  // deliver outstanding watches
    const std::uint64_t registrations =
        (owners_.size() + kWatchEvery - 1) / kWatchEvery;
    if (watch_fires_ != registrations + watched_writes_) {
      failures->push_back(xoar::StrFormat(
          "%llu watch fires, want %llu registrations + %llu watched writes",
          ToUll(watch_fires_), ToUll(registrations), ToUll(watched_writes_)));
    }
    if (tally_.failed != 0) {
      failures->push_back(xoar::StrFormat(
          "%llu XenStore calls failed or returned wrong data",
          ToUll(tally_.failed)));
    }
  }

  std::vector<Metric> Figures(double loop_s) override {
    return {
        {"xs_ops_per_s", static_cast<double>(tally_.ops) / loop_s, "1/s"},
        {"xs_op_p50_us", tally_.op_ns.PercentileNs(0.50) / 1e3, "us"},
        {"xs_op_p99_us", tally_.op_ns.PercentileNs(0.99) / 1e3, "us"},
        {"xs_expected_aborts", static_cast<double>(expected_aborts_),
         "count"},
    };
  }

 private:
  static unsigned long long ToUll(std::uint64_t v) { return v; }

  static std::string Dir(DomainId owner) {
    return xoar::StrFormat("/local/domain/%u", owner.value());
  }

  StatusOr<DomainId> NewDomain(const std::string& name, bool shard) {
    xoar::DomainConfig config;
    config.name = name;
    config.memory_mb = shard ? 32 : 4;
    config.is_shard = shard;
    XOAR_ASSIGN_OR_RETURN(DomainId id, hv_->CreateDomain(boot_, config));
    XOAR_RETURN_IF_ERROR(hv_->FinishBuild(boot_, id));
    XOAR_RETURN_IF_ERROR(hv_->UnpauseDomain(boot_, id));
    return id;
  }

  // A connected owner domain with its /local/domain/<id> directory, written
  // straight into XenStore-State (setup is not measured).
  Status AddOwner(int index) {
    XOAR_ASSIGN_OR_RETURN(DomainId owner,
                          NewDomain(xoar::StrFormat("owner-%d", index), false));
    XOAR_RETURN_IF_ERROR(hv_->AuthorizeShardUse(boot_, owner, logic_));
    XOAR_RETURN_IF_ERROR(xs_->Connect(owner));
    xoar::XsShardedStore& store = xs_->store();
    const std::string dir = Dir(owner);
    XOAR_RETURN_IF_ERROR(store.Mkdir(logic_, dir));
    xoar::XsNodePerms perms;
    perms.owner = owner;
    XOAR_RETURN_IF_ERROR(store.SetPerms(logic_, dir, perms));
    XOAR_RETURN_IF_ERROR(store.Write(owner, dir + "/name", "owner"));
    XOAR_RETURN_IF_ERROR(store.Write(owner, dir + "/state", "4"));
    XOAR_RETURN_IF_ERROR(store.Write(owner, dir + "/memory", "4096"));
    XOAR_RETURN_IF_ERROR(store.Write(owner, dir + "/control/shutdown", ""));
    for (int k = 0; k < kDataKeys; ++k) {
      XOAR_RETURN_IF_ERROR(
          store.Write(owner, xoar::StrFormat("%s/data/k%d", dir.c_str(), k),
                      "0"));
    }
    if (index % kWatchEvery == 0) {
      XOAR_RETURN_IF_ERROR(xs_->Watch(owner, dir + "/control", "perfbench",
                                      [this](const xoar::XsWatchEvent&) {
                                        ++watch_fires_;
                                      }));
    }
    owners_.push_back(owner);
    owner_ids_.Add(owner.value());
    return Status::Ok();
  }

  // Median host time of one XenStore read by the newest owner.
  double ReadProbe() {
    const DomainId owner = owners_.back();
    const std::string path = Dir(owner) + "/name";
    std::vector<double> samples;
    for (int i = 0; i < kProbeRepeats; ++i) {
      const Nanos start = NowNs();
      (void)xs_->Read(owner, path);
      samples.push_back(ToMicros(NowNs() - start));
    }
    return Percentile(samples, 0.5);
  }

  // One timed, traced XenStore call.
  template <typename F>
  std::invoke_result_t<F> Call(const char* name, std::uint64_t op, F&& fn) {
    Span span(tracer_, name, Layer::kXs, op);
    const Nanos start = NowNs();
    auto result = fn();
    tally_.op_ns.Add(NowNs() - start);
    ++tally_.ops;
    return result;
  }

  void ReadYourWrite(DomainId owner, const std::string& key,
                     std::uint64_t round) {
    const std::string value = xoar::StrFormat("w%llu", ToUll(round));
    Note(Call("xs.Write", round, [&] { return xs_->Write(owner, key, value); }));
    const StatusOr<std::string> read =
        Call("xs.Read", round, [&] { return xs_->Read(owner, key); });
    Note(!read.ok() || *read == value
             ? read.status()
             : xoar::InternalError("read-your-own-write mismatch"));
  }

  void Transaction(DomainId owner, const std::string& key,
                   std::uint64_t round) {
    const StatusOr<xoar::XsStore::TxId> tx = Call(
        "xs.TransactionStart", round, [&] { return xs_->TransactionStart(owner); });
    Note(tx.status());
    if (!tx.ok()) {
      return;
    }
    Note(Call("xs.ReadTx", round,
              [&] { return xs_->ReadTx(owner, key, *tx); }).status());
    Note(Call("xs.WriteTx", round, [&] {
      return xs_->WriteTx(owner, key, xoar::StrFormat("t%llu", ToUll(round)),
                          *tx);
    }));
    Note(Call("xs.TransactionEnd", round,
              [&] { return xs_->TransactionEnd(owner, *tx, true); }));
  }

  // Two transactions read and write the same key; the first commit wins
  // and the second must abort.
  void ConflictingPair(DomainId owner, const std::string& key,
                       std::uint64_t round) {
    xoar::XsStore::TxId txs[2] = {};
    for (xoar::XsStore::TxId& tx : txs) {
      const StatusOr<xoar::XsStore::TxId> started =
          Call("xs.TransactionStart", round,
               [&] { return xs_->TransactionStart(owner); });
      Note(started.status());
      if (!started.ok()) {
        return;
      }
      tx = *started;
    }
    for (const xoar::XsStore::TxId tx : txs) {
      Note(Call("xs.ReadTx", round,
                [&] { return xs_->ReadTx(owner, key, tx); }).status());
      Note(Call("xs.WriteTx", round, [&] {
        return xs_->WriteTx(owner, key,
                            xoar::StrFormat("c%llu-%u", ToUll(round), tx), tx);
      }));
    }
    Note(Call("xs.TransactionEnd", round,
              [&] { return xs_->TransactionEnd(owner, txs[0], true); }));
    const Status second = Call("xs.TransactionEnd", round, [&] {
      return xs_->TransactionEnd(owner, txs[1], true);
    });
    ++expected_aborts_;
    Note(second.code() == StatusCode::kAborted
             ? Status::Ok()
             : xoar::InternalError("conflicting commit was not aborted"));
  }

  xoar::Rng rng_{0};
  std::vector<DomainId> owners_;
  Fnv64 owner_ids_;
  std::uint64_t watch_fires_ = 0;
  std::uint64_t watched_writes_ = 0;
  std::uint64_t expected_aborts_ = 0;
  DomainId boot_;
  DomainId logic_;
  // Destroyed in reverse: the service before the hypervisor before the
  // simulator they all schedule on.
  std::unique_ptr<xoar::Simulator> sim_;
  std::unique_ptr<xoar::Obs> obs_;
  std::unique_ptr<xoar::Hypervisor> hv_;
  std::unique_ptr<xoar::XenStoreService> xs_;
};

}  // namespace

std::unique_ptr<Workload> MakeXsMixed(Tracer* tracer) {
  return std::make_unique<XsMixed>(tracer);
}

}  // namespace perfbench
