#include <gtest/gtest.h>

#include "src/base/hash_chain.h"
#include "src/base/ids.h"
#include "src/base/json.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/strings.h"
#include "src/base/units.h"

namespace xoar {
namespace {

// --- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorFactoriesSetCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(PermissionDeniedError("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(UnavailableError("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(AbortedError("x").code(), StatusCode::kAborted);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("msg").message(), "msg");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(PermissionDeniedError("nope").ToString(),
            "PERMISSION_DENIED: nope");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result = NotFoundError("missing");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Doubler(StatusOr<int> input) {
  XOAR_ASSIGN_OR_RETURN(int value, std::move(input));
  return value * 2;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(InternalError("boom")).status().code(),
            StatusCode::kInternal);
}

Status FailFast() {
  XOAR_RETURN_IF_ERROR(InvalidArgumentError("bad"));
  return InternalError("unreachable");
}

TEST(StatusTest, ReturnIfErrorShortCircuits) {
  EXPECT_EQ(FailFast().code(), StatusCode::kInvalidArgument);
}

// --- TypedId ---

TEST(IdsTest, InvalidByDefault) {
  DomainId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(DomainId(7).valid());
}

TEST(IdsTest, DistinctTypesCompareWithinType) {
  EXPECT_EQ(DomainId(3), DomainId(3));
  EXPECT_NE(DomainId(3), DomainId(4));
  EXPECT_LT(DomainId(3), DomainId(4));
}

TEST(IdsTest, HashWorksInContainers) {
  std::unordered_map<DomainId, int> map;
  map[DomainId(1)] = 10;
  map[DomainId(2)] = 20;
  EXPECT_EQ(map[DomainId(1)], 10);
}

TEST(IdsTest, Dom0ConstantIsZero) { EXPECT_EQ(kDom0.value(), 0u); }

// --- Strings ---

TEST(StringsTest, SplitPathDropsEmptySegments) {
  EXPECT_EQ(SplitPath("/a//b/"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_TRUE(SplitPath("///").empty());
}

TEST(StringsTest, JoinPathRoundTrips) {
  EXPECT_EQ(JoinPath({"a", "b", "c"}), "/a/b/c");
  EXPECT_EQ(JoinPath({}), "/");
  EXPECT_EQ(JoinPath(SplitPath("/local/domain/3")), "/local/domain/3");
}

TEST(StringsTest, PathHasPrefixRespectsBoundaries) {
  EXPECT_TRUE(PathHasPrefix("/a/b", "/a"));
  EXPECT_TRUE(PathHasPrefix("/a/b", "/a/b"));
  EXPECT_FALSE(PathHasPrefix("/ab", "/a"));
  EXPECT_TRUE(PathHasPrefix("/a/b/c", "/a/b/"));
  EXPECT_TRUE(PathHasPrefix("/anything", ""));
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("dom%u:%s", 5u, "x"), "dom5:x");
  EXPECT_EQ(StrFormat("%d", 0), "0");
}

// --- Units ---

TEST(UnitsTest, TimeConversions) {
  EXPECT_EQ(FromSeconds(1.5), 1'500'000'000ull);
  EXPECT_DOUBLE_EQ(ToSeconds(2 * kSecond), 2.0);
  EXPECT_DOUBLE_EQ(ToMilliseconds(kSecond), 1000.0);
}

TEST(UnitsTest, TransferTimeAtGigabit) {
  // 1 Gb/s = 125 MB/s: 125 MB should take 1 second.
  EXPECT_NEAR(static_cast<double>(TransferTime(125'000'000, 1e9)),
              static_cast<double>(kSecond), 1e3);
}

TEST(UnitsTest, PageConstants) {
  EXPECT_EQ(kPageSize, 4096u);
  EXPECT_EQ(kMiB / kKiB, 1024u);
}

// --- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, RangesRespectBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.NextInRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoolRoughlyFair) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 10'000; ++i) {
    heads += rng.NextBool(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(heads, 5000, 300);
}

// --- HashChain ---

TEST(HashChainTest, AppendChangesHead) {
  HashChain chain;
  const std::uint64_t h1 = chain.Append("a");
  const std::uint64_t h2 = chain.Append("b");
  EXPECT_NE(h1, h2);
  EXPECT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.head(), h2);
}

TEST(HashChainTest, VerifiesIntactRecords) {
  HashChain chain;
  std::vector<std::string> records = {"alpha", "beta", "gamma"};
  for (const auto& record : records) {
    chain.Append(record);
  }
  EXPECT_EQ(chain.VerifyAgainst(records), -1);
}

TEST(HashChainTest, DetectsTamperedRecord) {
  HashChain chain;
  std::vector<std::string> records = {"alpha", "beta", "gamma"};
  for (const auto& record : records) {
    chain.Append(record);
  }
  records[1] = "BETA";
  EXPECT_EQ(chain.VerifyAgainst(records), 1);
}

TEST(HashChainTest, DetectsLengthMismatch) {
  HashChain chain;
  chain.Append("a");
  EXPECT_EQ(chain.VerifyAgainst({}), 0);
}

TEST(HashChainTest, OrderMatters) {
  HashChain ab, ba;
  ab.Append("a");
  ab.Append("b");
  ba.Append("b");
  ba.Append("a");
  EXPECT_NE(ab.head(), ba.head());
}

// --- JSON writer ---

TEST(JsonWriterTest, ReportLayoutIsByteStable) {
  JsonReport report("tool", {"rows", "empty"}, 42);
  report.AddMetric("a.count", "counter", 7);
  report.AddMetric("a.ratio", "gauge", 0.1);
  report.AddRow("rows", JsonObject()
                            .Str("s", "q\"\\\n\x01")
                            .Num("fixed", 2.5, 3)
                            .Bool("b", true)
                            .Raw("raw", "[1]"));
  EXPECT_EQ(report.ToString(),
            "{\n"
            "  \"context\": {\n"
            "    \"executable\": \"tool\",\n"
            "    \"sim_time_ns\": 42\n"
            "  },\n"
            "  \"benchmarks\": [\n"
            "    {\"name\": \"a.count\", \"run_type\": \"counter\", "
            "\"value\": 7},\n"
            "    {\"name\": \"a.ratio\", \"run_type\": \"gauge\", "
            "\"value\": 0.10000000000000001}\n"
            "  ],\n"
            "  \"rows\": [\n"
            "    {\"s\": \"q\\\"\\\\\\n\\u0001\", \"fixed\": 2.500, "
            "\"b\": true, \"raw\": [1]}\n"
            "  ],\n"
            "  \"empty\": [\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriterTest, WriteFailsWhenBytesDoNotReachTheFile) {
  // A small write sits in the stdio buffer until fclose, which is where a
  // full device reports ENOSPC.
  EXPECT_FALSE(WriteStringToFile("/dev/full", "{}\n").ok());
  EXPECT_FALSE(WriteStringToFile("/nonexistent-dir/report.json", "{}").ok());
}

}  // namespace
}  // namespace xoar
