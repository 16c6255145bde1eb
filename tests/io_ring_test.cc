#include <gtest/gtest.h>

#include <array>
#include <cstddef>

#include "src/base/units.h"
#include "src/hv/io_ring.h"

namespace xoar {
namespace {

struct TestReq {
  std::uint64_t id;
  std::uint32_t payload;
};
struct TestRsp {
  std::uint64_t id;
  std::int32_t status;
};

using TestRing = IoRing<TestReq, TestRsp, 8>;

class IoRingTest : public ::testing::Test {
 protected:
  std::array<std::byte, kPageSize> page_{};
};

TEST_F(IoRingTest, CreateInitializesEmpty) {
  TestRing ring = TestRing::Create(page_.data());
  EXPECT_EQ(ring.PendingRequests(), 0u);
  EXPECT_EQ(ring.PendingResponses(), 0u);
  EXPECT_FALSE(ring.PopRequest().has_value());
  EXPECT_FALSE(ring.PopResponse().has_value());
}

TEST_F(IoRingTest, RequestRoundTrip) {
  TestRing ring = TestRing::Create(page_.data());
  EXPECT_TRUE(ring.PushRequest({1, 100}));
  EXPECT_EQ(ring.PendingRequests(), 1u);
  auto req = ring.PopRequest();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->id, 1u);
  EXPECT_EQ(req->payload, 100u);
  EXPECT_EQ(ring.PendingRequests(), 0u);
}

TEST_F(IoRingTest, ResponseRoundTrip) {
  TestRing ring = TestRing::Create(page_.data());
  EXPECT_TRUE(ring.PushResponse({7, -2}));
  auto rsp = ring.PopResponse();
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->id, 7u);
  EXPECT_EQ(rsp->status, -2);
}

TEST_F(IoRingTest, FullRingRejectsPush) {
  TestRing ring = TestRing::Create(page_.data());
  for (std::uint64_t i = 0; i < TestRing::kEntries; ++i) {
    EXPECT_TRUE(ring.PushRequest({i, 0}));
  }
  EXPECT_TRUE(ring.FullRequests());
  EXPECT_FALSE(ring.PushRequest({99, 0}));
  EXPECT_EQ(ring.FreeRequestSlots(), 0u);
}

TEST_F(IoRingTest, WrapAroundPreservesFifoOrder) {
  TestRing ring = TestRing::Create(page_.data());
  std::uint64_t produced = 0, consumed = 0;
  // Push/pop far more entries than capacity, in bursts, checking order.
  for (int burst = 0; burst < 50; ++burst) {
    while (!ring.FullRequests()) {
      ring.PushRequest({produced++, 0});
    }
    while (auto req = ring.PopRequest()) {
      EXPECT_EQ(req->id, consumed++);
    }
  }
  EXPECT_EQ(produced, consumed);
  EXPECT_GT(produced, 8u * 40);
}

TEST_F(IoRingTest, TwoViewsShareIndices) {
  // Frontend and backend each attach their own view over the same page —
  // updates must be mutually visible, as with a granted shared page.
  TestRing frontend = TestRing::Create(page_.data());
  TestRing backend = TestRing::Attach(page_.data());
  frontend.PushRequest({42, 7});
  auto req = backend.PopRequest();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->id, 42u);
  backend.PushResponse({42, 0});
  auto rsp = frontend.PopResponse();
  ASSERT_TRUE(rsp.has_value());
  EXPECT_EQ(rsp->id, 42u);
}

TEST_F(IoRingTest, AttachPreservesExistingState) {
  TestRing ring = TestRing::Create(page_.data());
  ring.PushRequest({5, 0});
  TestRing reattached = TestRing::Attach(page_.data());
  EXPECT_EQ(reattached.PendingRequests(), 1u);
  EXPECT_EQ(reattached.PopRequest()->id, 5u);
}

TEST_F(IoRingTest, CreateResetsStaleState) {
  TestRing ring = TestRing::Create(page_.data());
  ring.PushRequest({5, 0});
  ring.PushResponse({6, 0});
  TestRing fresh = TestRing::Create(page_.data());  // reconnect generation
  EXPECT_EQ(fresh.PendingRequests(), 0u);
  EXPECT_EQ(fresh.PendingResponses(), 0u);
}

TEST_F(IoRingTest, IndependentRequestAndResponseStreams) {
  TestRing ring = TestRing::Create(page_.data());
  for (std::uint64_t i = 0; i < 4; ++i) {
    ring.PushRequest({i, 0});
    ring.PushResponse({100 + i, 0});
  }
  EXPECT_EQ(ring.PendingRequests(), 4u);
  EXPECT_EQ(ring.PendingResponses(), 4u);
  EXPECT_EQ(ring.PopRequest()->id, 0u);
  EXPECT_EQ(ring.PopResponse()->id, 100u);
}

// The backend's overflow check reads a guest-written producer index, so it
// must hold modulo 2^32: a full ring whose indices wrapped is fine; one more
// request, a producer 2^31 ahead, or one "behind" the consumer is not.
TEST_F(IoRingTest, ProducerOverflowIsDetectedAcrossIndexWrap) {
  TestRing ring = TestRing::Create(page_.data());
  auto* header = reinterpret_cast<ring_detail::RingHeader*>(page_.data());
  header->req_prod = header->req_cons = 0xFFFFFFFCu;
  EXPECT_FALSE(ring.RequestsOverflowed());
  for (std::uint64_t i = 0; i < TestRing::kEntries; ++i) {
    ASSERT_TRUE(ring.PushRequest({i, 0}));
  }
  EXPECT_EQ(header->req_prod, 4u);  // wrapped
  EXPECT_TRUE(ring.FullRequests());
  EXPECT_FALSE(ring.RequestsOverflowed());
  for (const std::uint32_t ahead : {9u, 1u << 31, 0xFFFFFFFFu}) {
    header->req_prod = header->req_cons + ahead;
    EXPECT_TRUE(ring.RequestsOverflowed()) << ahead;
  }
  header->req_prod = header->req_cons + TestRing::kEntries;
  for (std::uint64_t i = 0; i < TestRing::kEntries; ++i) {
    ASSERT_EQ(ring.PopRequest()->id, i);
  }
  EXPECT_EQ(header->req_cons, 4u);
  EXPECT_FALSE(ring.RequestsOverflowed());
}

// Property sweep: for arbitrary interleavings driven by a parameterized
// pattern, producer/consumer counters never diverge and no entry is lost.
class IoRingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(IoRingPropertyTest, ConservationUnderInterleaving) {
  std::array<std::byte, kPageSize> page{};
  TestRing ring = TestRing::Create(page.data());
  const int pattern = GetParam();
  std::uint64_t produced = 0, consumed = 0;
  std::uint64_t state = static_cast<std::uint64_t>(pattern) * 2654435761u + 1;
  for (int step = 0; step < 2000; ++step) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    if ((state >> 33) % 3 != 0) {
      if (ring.PushRequest({produced, 0})) {
        ++produced;
      }
    } else {
      if (auto req = ring.PopRequest()) {
        EXPECT_EQ(req->id, consumed);
        ++consumed;
      }
    }
    EXPECT_LE(ring.PendingRequests(), TestRing::kEntries);
    EXPECT_EQ(produced - consumed, ring.PendingRequests());
  }
  while (auto req = ring.PopRequest()) {
    EXPECT_EQ(req->id, consumed++);
  }
  EXPECT_EQ(produced, consumed);
}

INSTANTIATE_TEST_SUITE_P(Patterns, IoRingPropertyTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace xoar
