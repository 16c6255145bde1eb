#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "src/base/hash_chain.h"
#include "src/core/xoar_platform.h"
#include "src/ctl/monolithic_platform.h"
#include "src/drv/xenbus.h"
#include "src/fault/fault.h"

namespace xoar {
namespace {

class StockDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
  }

  MonolithicPlatform platform_;
  DomainId guest_;
};

class XoarDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto guest = platform_.CreateGuest(GuestSpec{});
    ASSERT_TRUE(guest.ok());
    guest_ = *guest;
  }

  XoarPlatform platform_;
  DomainId guest_;
};

// --- Block path ---

TEST_F(StockDriverTest, BlkHandshakeCompletes) {
  BlkFront* blk = platform_.blkfront(guest_);
  ASSERT_NE(blk, nullptr);
  EXPECT_TRUE(blk->connected());
  EXPECT_TRUE(platform_.blkback_of(guest_)->IsVbdConnected(guest_));
}

TEST_F(StockDriverTest, BlkIoRoundTrip) {
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  Status last = InternalError("never");
  blk->WriteBytes(0, 64 * kKiB, [&](Status s) {
    ++completions;
    last = s;
  });
  platform_.Settle();
  EXPECT_EQ(completions, 1);
  EXPECT_TRUE(last.ok());
  EXPECT_GT(platform_.blkback_of(guest_)->requests_served(), 0u);
  EXPECT_GT(platform_.disk().bytes_written(), 0u);
}

TEST_F(StockDriverTest, BlkReadAfterWrite) {
  BlkFront* blk = platform_.blkfront(guest_);
  bool read_done = false;
  blk->WriteBytes(4096, 16 * kKiB, [&](Status s) {
    ASSERT_TRUE(s.ok());
    blk->ReadBytes(4096, 16 * kKiB, [&](Status s2) {
      ASSERT_TRUE(s2.ok());
      read_done = true;
    });
  });
  platform_.Settle();
  EXPECT_TRUE(read_done);
  EXPECT_GT(platform_.disk().bytes_read(), 0u);
}

TEST_F(StockDriverTest, BlkOutOfRangeIoFails) {
  BlkFront* blk = platform_.blkfront(guest_);
  Status result = Status::Ok();
  // The guest's VBD is 15 GiB; address far beyond it.
  blk->WriteBytes(40ull * kGiB, 4096, [&](Status s) { result = s; });
  platform_.Settle();
  EXPECT_FALSE(result.ok());
  // The backend caught it before touching the disk for that request.
}

TEST_F(StockDriverTest, BlkQueueDeeperThanRingDrains) {
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  // 128 small IOs: 4x the ring capacity.
  for (int i = 0; i < 128; ++i) {
    blk->WriteBytes(static_cast<std::uint64_t>(i) * 8192, 4096,
                    [&](Status s) {
                      ASSERT_TRUE(s.ok());
                      ++completions;
                    });
  }
  platform_.Settle(2 * kSecond);
  EXPECT_EQ(completions, 128);
  EXPECT_EQ(blk->outstanding_ios(), 0u);
}

TEST_F(StockDriverTest, TwoGuestsIsolatedVbds) {
  auto guest2 = platform_.CreateGuest(GuestSpec{.name = "guest2"});
  ASSERT_TRUE(guest2.ok());
  BlkFront* blk1 = platform_.blkfront(guest_);
  BlkFront* blk2 = platform_.blkfront(*guest2);
  ASSERT_NE(blk2, nullptr);
  EXPECT_TRUE(blk2->connected());
  int done = 0;
  blk1->WriteBytes(0, 4096, [&](Status) { ++done; });
  blk2->WriteBytes(0, 4096, [&](Status) { ++done; });
  platform_.Settle();
  EXPECT_EQ(done, 2);
}

// --- Network path ---

TEST_F(StockDriverTest, NetHandshakeCompletes) {
  NetFront* net = platform_.netfront(guest_);
  ASSERT_NE(net, nullptr);
  EXPECT_TRUE(net->connected());
  EXPECT_TRUE(platform_.netback_of(guest_)->IsVifConnected(guest_));
}

TEST_F(StockDriverTest, NetTxReachesTheWire) {
  NetFront* net = platform_.netfront(guest_);
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    net->SendFrame(1500, [&](Status s) {
      ASSERT_TRUE(s.ok());
      ++sent;
    });
  }
  platform_.Settle();
  EXPECT_EQ(sent, 10);
  EXPECT_EQ(platform_.nic().tx_frames(), 10u);
  EXPECT_EQ(platform_.nic().tx_bytes(), 15'000u);
}

TEST_F(StockDriverTest, NetRxDeliveredToGuest) {
  NetFront* net = platform_.netfront(guest_);
  std::uint64_t received_bytes = 0;
  net->set_rx_handler([&](std::uint32_t bytes) { received_bytes += bytes; });
  EXPECT_TRUE(platform_.netback_of(guest_)->InjectRx(guest_, 1500));
  EXPECT_TRUE(platform_.netback_of(guest_)->InjectRx(guest_, 900));
  platform_.Settle();
  EXPECT_EQ(received_bytes, 2400u);
  EXPECT_EQ(net->rx_frames(), 2u);
}

TEST_F(StockDriverTest, RxToUnknownGuestDropped) {
  EXPECT_FALSE(platform_.netback_of(guest_)->InjectRx(DomainId(999), 1500));
  EXPECT_GT(platform_.netback_of(guest_)->frames_dropped(), 0u);
}

// --- Xoar: driver domains, suspension, renegotiation ---

TEST_F(XoarDriverTest, DriverDomainsAreSeparateShards) {
  EXPECT_NE(platform_.netback().self(), platform_.blkback().self());
  EXPECT_TRUE(platform_.hv().domain(platform_.netback().self())->is_shard());
  EXPECT_TRUE(platform_.hv().domain(platform_.blkback().self())->is_shard());
}

TEST_F(XoarDriverTest, SuspendBreaksPathResumeReconnects) {
  NetBack& netback = platform_.netback();
  ASSERT_TRUE(netback.IsVifConnected(guest_));
  netback.Suspend();
  EXPECT_FALSE(netback.IsVifConnected(guest_));
  EXPECT_FALSE(netback.InjectRx(guest_, 1500));  // frames dropped
  netback.Resume();
  platform_.Settle();
  // Frontend renegotiated via XenStore.
  EXPECT_TRUE(netback.IsVifConnected(guest_));
  EXPECT_TRUE(platform_.netfront(guest_)->connected());
}

TEST_F(XoarDriverTest, FramesQueuedDuringOutageAreRetransmitted) {
  NetBack& netback = platform_.netback();
  NetFront* net = platform_.netfront(guest_);
  netback.Suspend();
  platform_.Settle(50 * kMillisecond);
  int sent = 0;
  for (int i = 0; i < 5; ++i) {
    net->SendFrame(1500, [&](Status s) {
      if (s.ok()) {
        ++sent;
      }
    });
  }
  platform_.Settle(50 * kMillisecond);
  EXPECT_EQ(sent, 0);  // path down
  netback.Resume();
  platform_.Settle();
  EXPECT_EQ(sent, 5);  // flushed after reconnect
}

TEST_F(XoarDriverTest, OutstandingBlkIoRetransmittedAcrossRestart) {
  BlkBack& blkback = platform_.blkback();
  BlkFront* blk = platform_.blkfront(guest_);
  int completions = 0;
  for (int i = 0; i < 16; ++i) {
    blk->WriteBytes(static_cast<std::uint64_t>(i) * kMiB, 256 * kKiB,
                    [&](Status s) {
                      if (s.ok()) {
                        ++completions;
                      }
                    });
  }
  // Interrupt the backend while requests are in flight.
  blkback.Suspend();
  platform_.Settle(100 * kMillisecond);
  blkback.Resume();
  platform_.Settle(2 * kSecond);
  EXPECT_EQ(completions, 16);
  EXPECT_GT(blk->retransmitted_ios(), 0u);
}

TEST_F(XoarDriverTest, RepeatedRestartCyclesStayHealthy) {
  NetBack& netback = platform_.netback();
  for (int cycle = 0; cycle < 5; ++cycle) {
    netback.Suspend();
    platform_.Settle(20 * kMillisecond);
    netback.Resume();
    platform_.Settle();
    ASSERT_TRUE(netback.IsVifConnected(guest_)) << "cycle " << cycle;
  }
  // Data still flows after five reconnect generations.
  std::uint64_t received = 0;
  platform_.netfront(guest_)->set_rx_handler(
      [&](std::uint32_t bytes) { received += bytes; });
  EXPECT_TRUE(netback.InjectRx(guest_, 1000));
  platform_.Settle();
  EXPECT_EQ(received, 1000u);
}

GuestSpec NamedGuest(const std::string& name, bool devices = true) {
  GuestSpec spec;
  spec.name = name;
  spec.with_net = devices;
  spec.with_disk = devices;
  return spec;
}

// --- Protocol pin ---
//
// Folds every trace event (category, name, ts, dur, track) into FNV-1a.
// The trace carries each XenStore op, hypercall, grant and event-channel
// operation and driver step with its simulated time, so the digest pins
// the order of the whole split-driver protocol, not just its totals.
class TraceDigest : public TraceSink {
 public:
  void OnTraceEvent(const TraceEvent& event) override {
    std::string record(1, static_cast<char>(event.cat));
    record += event.name;
    for (std::uint64_t v : {static_cast<std::uint64_t>(event.ts),
                            static_cast<std::uint64_t>(event.dur),
                            static_cast<std::uint64_t>(event.track)}) {
      char bytes[sizeof(v)];
      std::memcpy(bytes, &v, sizeof(v));
      record.append(bytes, sizeof(v));
    }
    digest = HashBytes(record, digest);
  }

  std::uint64_t digest = 0xcbf29ce484222325ULL;
};

// Two guests doing block and network I/O through a NetBack and a BlkBack
// microreboot, a guest-side XenStore timeout window over the BlkBack
// reconnect, and one guest destroy. Any change to what the drivers send to
// XenStore, the hypervisor or the simulator, or in what order, moves the
// digest.
TEST(DriverProtocolTest, FixedScenarioTraceIsPinned) {
  XoarPlatform platform;
  TraceDigest sink;
  platform.obs().tracer().set_enabled(true);
  platform.obs().tracer().set_sink(&sink);
  ASSERT_TRUE(platform.Boot().ok());
  auto a = platform.CreateGuest(NamedGuest("a"));
  auto b = platform.CreateGuest(NamedGuest("b"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  int ok = 0;
  int issued = 0;
  auto count = [&](Status s) { ok += s.ok() ? 1 : 0; };
  auto io = [&](DomainId guest, std::uint64_t offset) {
    platform.blkfront(guest)->WriteBytes(offset, 64 * kKiB, count);
    platform.blkfront(guest)->ReadBytes(offset, 16 * kKiB, count);
    platform.netfront(guest)->SendFrame(1500, count);
    (void)platform.netback_of(guest)->InjectRx(guest, 900);
    issued += 3;
  };
  io(*a, 0);
  io(*b, kMiB);
  platform.Settle();

  ASSERT_TRUE(platform.restarts().RestartNow("NetBack", /*fast=*/true).ok());
  io(*a, 2 * kMiB);
  platform.Settle(kSecond);

  FaultInjector injector(&platform);
  FaultSpec window;
  window.type = FaultType::kXsTimeout;
  window.at = platform.sim().Now() + 100 * kMillisecond;
  window.duration = 100 * kMillisecond;
  FaultPlan plan;
  plan.Add(window);
  injector.Arm(plan);
  ASSERT_TRUE(platform.restarts().RestartNow("BlkBack", /*fast=*/true).ok());
  io(*b, 3 * kMiB);
  platform.Settle(kSecond);
  EXPECT_GE(injector.injected_count(FaultType::kXsTimeout), 1u);

  ASSERT_TRUE(platform.DestroyGuest(*b).ok());
  io(*a, 4 * kMiB);
  platform.Settle(kSecond);

  EXPECT_EQ(ok, issued);
  EXPECT_EQ(sink.digest, 9734915621086660614u);
  EXPECT_EQ(platform.sim().EventsExecuted(), 2818u);
  platform.obs().tracer().set_sink(nullptr);
}

// --- Hostile frontends and failed connects ---

TEST(XenbusParseTest, AcceptsOnlyWhole32BitDecimals) {
  EXPECT_EQ(ParseXenbusU32("0"), 0u);
  EXPECT_EQ(ParseXenbusU32("8"), 8u);
  EXPECT_EQ(ParseXenbusU32("4294967295"), 4294967295u);
  for (const char* bad : {"", "junk", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                          "4294967296", "4294967297", "99999999999999999999"}) {
    EXPECT_FALSE(ParseXenbusU32(bad).has_value()) << '"' << bad << '"';
  }
}

// A guest that writes its own XenBus nodes and ring entries is §6.2's
// attacker. `bad` has no devices of its own, only a 4 MiB image bound on
// the BlkBack that also serves the ordinary guest `good`; the tests write
// its frontend nodes and ring slots directly.
class HostileFrontendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(platform_.Boot().ok());
    auto good = platform_.CreateGuest(NamedGuest("good"));
    auto bad = platform_.CreateGuest(NamedGuest("bad", /*devices=*/false));
    ASSERT_TRUE(good.ok());
    ASSERT_TRUE(bad.ok());
    good_ = *good;
    bad_ = *bad;
    blkback_ = platform_.blkback_of(good_);
    const DomainId toolstack = platform_.shard_domain(ShardClass::kToolstack);
    ASSERT_TRUE(
        hv().AuthorizeShardUse(toolstack, bad_, blkback_->self()).ok());
    ASSERT_TRUE(blkback_->CreateImage("bad-disk", 4 * kMiB).ok());
    ASSERT_TRUE(blkback_->BindImage(bad_, "bad-disk").ok());
  }

  Hypervisor& hv() { return platform_.hv(); }

  // Writes one node of the bad guest's VBD frontend, readable by BlkBack.
  void Publish(const std::string& key, const std::string& value) {
    const std::string path = FrontendDir(bad_, kVbdType) + "/" + key;
    ASSERT_TRUE(platform_.xenstore().Write(bad_, path, value).ok());
    XsNodePerms perms;
    perms.owner = bad_;
    perms.acl[blkback_->self()] = XsPerm::kRead;
    ASSERT_TRUE(platform_.xenstore().SetPerms(bad_, path, perms).ok());
  }

  XoarPlatform platform_;
  DomainId good_;
  DomainId bad_;
  BlkBack* blkback_ = nullptr;
};

// The backend must refuse ring-ref values that are not whole decimal
// 32-bit numbers, leave that channel down, and keep serving the other
// guests.
TEST_F(HostileFrontendTest, MalformedRingRefIsRefused) {
  Publish("ring-ref", "junk");
  Publish("event-channel", "1");
  Publish("state", "3");
  platform_.Settle();
  EXPECT_FALSE(blkback_->IsVbdConnected(bad_));

  // A real grant and port, but a ring-ref 2^32 past the grant: truncated
  // to 32 bits it would name the grant and connect.
  StatusOr<Pfn> pfn = hv().memory().AllocatePages(bad_, 1);
  ASSERT_TRUE(pfn.ok());
  StatusOr<GrantRef> gref =
      hv().GrantAccess(bad_, blkback_->self(), *pfn, /*writable=*/true);
  ASSERT_TRUE(gref.ok());
  StatusOr<EvtchnPort> port = hv().EvtchnAllocUnbound(bad_, blkback_->self());
  ASSERT_TRUE(port.ok());
  Publish("ring-ref", std::to_string((1ull << 32) + gref->value()));
  Publish("event-channel", std::to_string(port->value()));
  Publish("state", "3");
  platform_.Settle();
  EXPECT_FALSE(blkback_->IsVbdConnected(bad_));
  EXPECT_EQ(hv().domain(bad_)->grant_table().Lookup(*gref)->map_count, 0);

  // The real grant, but a port number the hypervisor never allocated (the
  // last one is EvtchnPort's invalid value): the bind is NOT_FOUND without
  // the port table growing to the guest's number, and the map is released.
  for (const char* bad_port : {"4294967294", "4294967295"}) {
    Publish("ring-ref", std::to_string(gref->value()));
    Publish("event-channel", bad_port);
    Publish("state", "3");
    platform_.Settle();
    EXPECT_FALSE(blkback_->IsVbdConnected(bad_)) << bad_port;
    EXPECT_EQ(hv().domain(bad_)->grant_table().Lookup(*gref)->map_count, 0)
        << bad_port;
  }

  Status result = InternalError("never completed");
  platform_.blkfront(good_)->WriteBytes(0, 4096,
                                        [&](Status s) { result = s; });
  platform_.Settle();
  EXPECT_TRUE(result.ok()) << result;
}

// Every field of a ring request is guest-written. Sector 2^55 - 1 times
// 512 bytes is 512 bytes short of 2^64, so a two-sector request there
// wraps back into the image unless the range check cannot overflow; and a
// count beyond the frontend's own 64-sector chunk is refused outright.
// Neither may reach the disk.
TEST_F(HostileFrontendTest, BlkRequestFieldsAreRangeChecked) {
  StatusOr<Pfn> pfn = hv().memory().AllocatePages(bad_, 1);
  ASSERT_TRUE(pfn.ok());
  BlkRing ring = BlkRing::Create(hv().memory().PageData(*pfn));
  StatusOr<GrantRef> gref =
      hv().GrantAccess(bad_, blkback_->self(), *pfn, /*writable=*/true);
  ASSERT_TRUE(gref.ok());
  StatusOr<EvtchnPort> port = hv().EvtchnAllocUnbound(bad_, blkback_->self());
  ASSERT_TRUE(port.ok());
  Publish("ring-ref", std::to_string(gref->value()));
  Publish("event-channel", std::to_string(port->value()));
  Publish("state", "3");
  platform_.Settle();
  ASSERT_TRUE(blkback_->IsVbdConnected(bad_));

  std::uint64_t next_id = 1;
  auto status_of = [&](std::uint64_t sector, std::uint32_t count) {
    const std::uint64_t id = next_id++;
    EXPECT_TRUE(ring.PushRequest(BlkRingRequest{id, sector, count, 0}));
    EXPECT_TRUE(hv().EvtchnSend(bad_, *port).ok());
    platform_.Settle();
    std::optional<BlkRingResponse> rsp = ring.PopResponse();
    EXPECT_TRUE(rsp.has_value() && rsp->id == id) << "sector " << sector;
    return rsp.has_value() ? static_cast<int>(rsp->status) : 1;
  };
  EXPECT_EQ(status_of(0, 8), 0);
  EXPECT_EQ(status_of((1ull << 55) - 1, 2), kBlkStatusFailed);
  EXPECT_EQ(status_of(0, 65), kBlkStatusFailed);
  EXPECT_EQ(status_of(0, 0xFFFFFFFFu), kBlkStatusFailed);
  EXPECT_EQ(status_of(4 * kMiB / kSectorSize - 64, 64), 0);  // the last 32 KiB
  EXPECT_EQ(status_of(4 * kMiB / kSectorSize - 63, 64), kBlkStatusFailed);
  EXPECT_EQ(blkback_->bytes_moved(), (8 + 64) * kSectorSize);
}

// A tx request's size is guest-written too. A 2^32 - 1 byte "frame" would
// hold the shared NIC for about 34 s at GbE; NetBack answers anything
// larger than one Ethernet frame with an error instead, so a neighbour's
// frame sent right behind it completes as fast as with nobody attacking.
TEST_F(HostileFrontendTest, OversizedFrameIsRefusedNeighbourUnaffected) {
  auto attacker = platform_.CreateGuest(NamedGuest("attacker"));
  ASSERT_TRUE(attacker.ok());
  ASSERT_EQ(platform_.netback_of(*attacker), platform_.netback_of(good_));
  struct Sent {
    std::optional<Status> status;  // set when the frame completes
    SimDuration latency = 0;
  };
  Simulator& sim = platform_.sim();
  auto send = [&](DomainId guest, std::uint32_t bytes, Sent* sent) {
    const SimTime start = sim.Now();
    platform_.netfront(guest)->SendFrame(bytes, [&sim, start, sent](Status s) {
      sent->status = s;
      sent->latency = sim.Now() - start;
    });
  };

  Sent quiet;
  send(good_, 1500, &quiet);
  platform_.Settle();
  ASSERT_TRUE(quiet.status.has_value());
  ASSERT_TRUE(quiet.status->ok()) << *quiet.status;

  Sent attack;
  Sent neighbour;
  send(*attacker, 0xFFFFFFFFu, &attack);
  send(good_, 1500, &neighbour);
  platform_.Settle();
  ASSERT_TRUE(attack.status.has_value());
  EXPECT_FALSE(attack.status->ok());
  ASSERT_TRUE(neighbour.status.has_value());
  EXPECT_TRUE(neighbour.status->ok()) << *neighbour.status;
  EXPECT_LE(neighbour.latency, quiet.latency);
  EXPECT_EQ(platform_.nic().tx_bytes(), 3000u);  // only the two real frames
}

// The backend may call a channel connected only once its Connected state
// write has landed: a State shard restart that swallows that write must not
// leave the backend claiming a connection the frontend never saw.
TEST(BackendConnectTest, LostConnectedWriteLeavesTheChannelDown) {
  XoarPlatform::Config config;
  config.xenstore_state_shards = 2;
  XoarPlatform platform(config);
  ASSERT_TRUE(platform.Boot().ok());
  BlkBack& blkback = platform.blkback();
  XsShardedStore& store = platform.xenstore().store();
  const int back_shard = store.ShardIndexForDomain(blkback.self());
  DomainId guest;
  for (int i = 0; i < 4 && !guest.valid(); ++i) {
    auto created = platform.CreateGuest(NamedGuest(StrFormat("g%d", i)));
    ASSERT_TRUE(created.ok());
    if (store.ShardIndexForDomain(*created) != back_shard) {
      guest = *created;
    }
  }
  ASSERT_TRUE(guest.valid());
  BlkFront* blk = platform.blkfront(guest);
  ASSERT_TRUE(blk->connected());

  blkback.Suspend();
  platform.Settle(50 * kMillisecond);
  blkback.Resume();
  platform.sim().RunFor(45 * kMicrosecond);
  ASSERT_TRUE(platform.xenstore().BeginStateShardRestart(back_shard).ok());
  platform.Settle(10 * kSecond);

  EXPECT_FALSE(blk->connected());
  EXPECT_FALSE(blkback.IsVbdConnected(guest));
}

// A connect attempt that maps the tx ring and then fails to map the rx ring
// must release the tx mapping; a leaked mapping keeps the guest's grant
// entry alive after the frontend retires it.
TEST(BackendConnectTest, FailedRxMapReleasesTheTxMap) {
  XoarPlatform platform;
  ASSERT_TRUE(platform.Boot().ok());
  auto guest = platform.CreateGuest(GuestSpec{});
  ASSERT_TRUE(guest.ok());
  NetBack& netback = *platform.netback_of(*guest);
  const GrantTable& grants = platform.hv().domain(*guest)->grant_table();
  const std::size_t baseline = grants.ActiveEntries();
  int maps = 0;
  platform.hv().set_grant_map_fault_hook([&](DomainId caller, DomainId owner) {
    // The second map of the first reconnect is its rx ring.
    return caller == netback.self() && owner == *guest && ++maps == 2;
  });
  for (int restart = 0; restart < 4; ++restart) {
    ASSERT_TRUE(platform.restarts().RestartNow("NetBack", /*fast=*/true).ok());
    platform.Settle(2 * kSecond);
    ASSERT_TRUE(netback.IsVifConnected(*guest)) << "restart " << restart;
  }
  EXPECT_GT(maps, 2);
  EXPECT_EQ(grants.ActiveEntries(), baseline);
  platform.hv().set_grant_map_fault_hook(nullptr);
}

}  // namespace
}  // namespace xoar
