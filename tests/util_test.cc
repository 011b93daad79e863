#include <gtest/gtest.h>

#include "cluster/memory_space.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/table_printer.h"
#include "util/units.h"

namespace rdmajoin {
namespace {

// ---------- Status ----------

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorFactoriesCarryCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
  EXPECT_EQ(Status::ResourceExhausted("x").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}
Status UsesReturnIfError(int x) {
  RDMAJOIN_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::OK();
}

TEST(Status, ReturnIfErrorMacro) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

// ---------- StatusOr ----------

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x;
}

TEST(StatusOr, HoldsValueOrError) {
  auto good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);
  auto bad = ParsePositive(-5);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST(StatusOr, MoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> s(std::make_unique<int>(7));
  ASSERT_TRUE(s.ok());
  std::unique_ptr<int> v = std::move(s).value();
  EXPECT_EQ(*v, 7);
}

// ---------- Units ----------

TEST(Units, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(64 * 1024), "64 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3 MiB");
  EXPECT_EQ(FormatBytes(2 * kGiB), "2 GiB");
}

TEST(Units, FormatSecondsAndRate) {
  EXPECT_EQ(FormatSeconds(5.7539), "5.754 s");
  EXPECT_EQ(FormatRateMBps(3.4e9), "3400.0 MB/s");
}

// ---------- Flags ----------

TEST(ParseValueHelpers, FullTokenValidation) {
  double d = 0;
  EXPECT_TRUE(ParseDoubleValue("42.5", &d));
  EXPECT_DOUBLE_EQ(d, 42.5);
  EXPECT_FALSE(ParseDoubleValue("", &d));
  EXPECT_FALSE(ParseDoubleValue("4x", &d));
  EXPECT_FALSE(ParseDoubleValue("nan", &d));
  EXPECT_FALSE(ParseDoubleValue("inf", &d));
  uint64_t u = 0;
  EXPECT_TRUE(ParseU64Value("123", &u));
  EXPECT_EQ(u, 123u);
  EXPECT_FALSE(ParseU64Value("", &u));
  EXPECT_FALSE(ParseU64Value("-1", &u));
  EXPECT_FALSE(ParseU64Value("1.5", &u));
  EXPECT_TRUE(ParseU64Value("18446744073709551615", &u));
  EXPECT_FALSE(ParseU64Value("18446744073709551616", &u));
  uint32_t n = 0;
  EXPECT_TRUE(ParseCountValue("4294967295", &n));
  EXPECT_EQ(n, 4294967295u);
  EXPECT_FALSE(ParseCountValue("4294967296", &n));
  EXPECT_FALSE(ParseCountValue("0", &n));
  EXPECT_FALSE(ParseNonNegativeValue("-0.5", &d));
  EXPECT_TRUE(ParseNonNegativeValue("0", &d));
  EXPECT_FALSE(ParsePositiveValue("0", &d));
  EXPECT_FALSE(ParsePositiveValue("-1e-9", &d));
  EXPECT_TRUE(ParsePositiveValue("1e-9", &d));
  EXPECT_EQ(d, 1e-9);
}

// ---------- Random ----------

TEST(Random, DeterministicAndSeedSensitive) {
  Random a(1), b(1), c(2);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Random, UniformInRangeAndDoubleInUnit) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, ZeroSeedDoesNotDegenerate) {
  Random rng(0);
  EXPECT_NE(rng.Next(), 0u);
  EXPECT_NE(rng.Next(), rng.Next());
}

// ---------- TablePrinter ----------

TEST(TablePrinter, FormatsNumbersAndCountsRows) {
  TablePrinter t("test");
  t.SetHeader({"a", "b"});
  t.AddRow({TablePrinter::Int(42), TablePrinter::Num(3.14159, 2)});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.rows()[0][0], "42");
  EXPECT_EQ(t.rows()[0][1], "3.14");
}

// ---------- MemorySpace ----------

TEST(MemorySpace, ReserveReleaseAccounting) {
  MemorySpace mem(1000);
  EXPECT_TRUE(mem.Reserve(600).ok());
  EXPECT_EQ(mem.used(), 600u);
  EXPECT_EQ(mem.available(), 400u);
  EXPECT_EQ(mem.Reserve(500).code(), StatusCode::kResourceExhausted);
  mem.Release(200);
  EXPECT_TRUE(mem.Reserve(500).ok());
  EXPECT_EQ(mem.peak_used(), 900u);
}

TEST(MemorySpace, PinRequiresReservationAndHonorsLimit) {
  MemorySpace mem(1000, /*pin_limit=*/300);
  EXPECT_EQ(mem.Pin(100).code(), StatusCode::kFailedPrecondition);  // not reserved
  ASSERT_TRUE(mem.Reserve(500).ok());
  EXPECT_TRUE(mem.Pin(300).ok());
  EXPECT_EQ(mem.Pin(1).code(), StatusCode::kResourceExhausted);  // pin limit
  mem.Unpin(300);
  EXPECT_EQ(mem.pinned(), 0u);
  EXPECT_EQ(mem.peak_pinned(), 300u);
}

}  // namespace
}  // namespace rdmajoin
