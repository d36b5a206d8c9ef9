#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>

#include "amt/future.hpp"

namespace octo::amt {
namespace {

struct FutureTest : testing::Test {
  runtime rt{2};
};

TEST_F(FutureTest, PromiseThenFutureValue) {
  promise<int> p;
  auto f = p.get_future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.is_ready());
  p.set_value(42);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(rt), 42);
}

TEST_F(FutureTest, VoidFuture) {
  promise<void> p;
  auto f = p.get_future();
  p.set_value();
  EXPECT_NO_THROW(f.get(rt));
}

TEST_F(FutureTest, MoveOnlyValue) {
  promise<std::unique_ptr<int>> p;
  auto f = p.get_future();
  p.set_value(std::make_unique<int>(5));
  auto v = f.get(rt);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 5);
}

TEST_F(FutureTest, AsyncReturnsResult) {
  auto f = async([] { return 6 * 7; }, rt);
  EXPECT_EQ(f.get(rt), 42);
}

TEST_F(FutureTest, AsyncVoid) {
  std::atomic<bool> hit{false};
  auto f = async([&] { hit.store(true); }, rt);
  f.get(rt);
  EXPECT_TRUE(hit.load());
}

TEST_F(FutureTest, ExceptionPropagates) {
  auto f = async([]() -> int { throw std::runtime_error("boom"); }, rt);
  EXPECT_THROW(f.get(rt), std::runtime_error);
}

TEST_F(FutureTest, DoubleSetValueThrows) {
  promise<int> p;
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), octo::error);
}

}  // namespace
}  // namespace octo::amt
