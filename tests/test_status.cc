#include "util/status.h"

#include <gtest/gtest.h>

namespace foresight {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_FALSE(Status::Internal("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  Status status = Status::InvalidArgument("k must be positive");
  EXPECT_EQ(status.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> result(Status::NotFound("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> result(std::string("hello"));
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "hello");
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status CheckEven(int x) {
  FORESIGHT_ASSIGN_OR_RETURN(int half, Half(x));
  (void)half;
  return Status::OK();
}

Status Chain(int x) {
  FORESIGHT_RETURN_IF_ERROR(CheckEven(x));
  return Status::OK();
}

TEST(StatusMacrosTest, AssignOrReturnPropagatesError) {
  EXPECT_TRUE(CheckEven(4).ok());
  EXPECT_EQ(CheckEven(3).code(), StatusCode::kInvalidArgument);
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(8).ok());
  EXPECT_FALSE(Chain(9).ok());
}

}  // namespace
}  // namespace foresight
