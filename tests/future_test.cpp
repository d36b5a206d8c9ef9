#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "amt/future.hpp"
#include "apex/apex.hpp"

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

TEST_F(FutureTest, MakeReadyFuture) {
  auto f = make_ready_future(std::string("hello"));
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(rt), "hello");
  auto fv = make_ready_future();
  EXPECT_TRUE(fv.is_ready());
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

TEST_F(FutureTest, ThenChainsValues) {
  auto f = async([] { return 10; }, rt)
               .then([](int v) { return v + 1; }, rt)
               .then([](int v) { return v * 2; }, rt);
  EXPECT_EQ(f.get(rt), 22);
}

TEST_F(FutureTest, ThenVoidToValue) {
  auto f = async([] {}, rt).then([] { return 3; }, rt);
  EXPECT_EQ(f.get(rt), 3);
}

TEST_F(FutureTest, ThenValueToVoid) {
  std::atomic<int> sink{0};
  auto f = async([] { return 9; }, rt).then([&](int v) { sink.store(v); },
                                            rt);
  f.get(rt);
  EXPECT_EQ(sink.load(), 9);
}

TEST_F(FutureTest, ThenOnReadyFutureRunsImmediately) {
  auto f = make_ready_future(5).then_inline([](int v) { return v * v; }, rt);
  EXPECT_EQ(f.get(rt), 25);
}

TEST_F(FutureTest, ThenExceptionPropagatesThroughChain) {
  auto f = async([]() -> int { throw std::logic_error("x"); }, rt)
               .then([](int v) { return v + 1; }, rt);
  EXPECT_THROW(f.get(rt), std::logic_error);
}

TEST_F(FutureTest, WhenAllVoid) {
  std::vector<future<int>> futs;
  std::atomic<int> sum{0};
  for (int i = 1; i <= 10; ++i)
    futs.push_back(async([i, &sum] {
      sum.fetch_add(i);
      return i;
    }, rt));
  when_all(std::move(futs), rt).get(rt);
  EXPECT_EQ(sum.load(), 55);
}

TEST_F(FutureTest, WhenAllEmpty) {
  std::vector<future<int>> futs;
  auto f = when_all(std::move(futs), rt);
  EXPECT_TRUE(f.is_ready());
}

TEST_F(FutureTest, WhenAllPropagatesException) {
  std::vector<future<int>> futs;
  futs.push_back(async([]() -> int { return 1; }, rt));
  futs.push_back(async([]() -> int { throw std::runtime_error("bad"); }, rt));
  EXPECT_THROW(when_all(std::move(futs), rt).get(rt), std::runtime_error);
}

TEST_F(FutureTest, WaitAllHelper) {
  std::vector<future<void>> futs;
  std::atomic<int> n{0};
  for (int i = 0; i < 20; ++i)
    futs.push_back(async([&] { n.fetch_add(1); }, rt));
  get_all(futs, rt);
  EXPECT_EQ(n.load(), 20);
}

TEST_F(FutureTest, DoubleSetValueThrows) {
  promise<int> p;
  p.set_value(1);
  EXPECT_THROW(p.set_value(2), octo::error);
}

TEST_F(FutureTest, ContinuationDeepChainNoStackOverflow) {
  // 10k chained inline continuations must not recurse on the stack:
  // each fires only when its predecessor's value is set.
  auto f = make_ready_future(0);
  for (int i = 0; i < 10000; ++i)
    f = f.then_inline([](int v) { return v + 1; }, rt);
  EXPECT_EQ(f.get(rt), 10000);
}

std::uint64_t counter_value(const std::string& name) {
  for (const auto& c : apex::registry::instance().counters())
    if (c.name == name) return c.value;
  return 0;
}

TEST_F(FutureTest, SharedFutureManyReadersPeekDoesNotConsume) {
  promise<int> p;
  shared_future<int> a = p.get_future();
  shared_future<int> b = a;  // copyable edge handle
  p.set_value(7);
  EXPECT_EQ(a.get(rt), 7);
  EXPECT_EQ(a.get(rt), 7);  // peek-based: a second read still sees the value
  EXPECT_EQ(b.get(rt), 7);
}

TEST_F(FutureTest, SharedFutureVoidExceptionRethrowsForEveryReader) {
  promise<void> p;
  shared_future<void> a = p.get_future();
  shared_future<void> b = a;
  p.set_exception(std::make_exception_ptr(std::runtime_error("boom")));
  EXPECT_TRUE(a.has_exception());
  EXPECT_THROW(a.get(rt), std::runtime_error);
  EXPECT_THROW(b.get(rt), std::runtime_error);  // not consumed by a's read
}

TEST_F(FutureTest, DataflowFiresOnlyAfterEveryDependency) {
  promise<void> p1, p2;
  shared_future<void> d1 = p1.get_future();
  shared_future<void> d2 = p2.get_future();
  std::atomic<bool> ran{false};
  auto f = dataflow([&] { ran.store(true); }, {d1, d2}, rt);
  EXPECT_FALSE(f.is_ready());
  p1.set_value();
  EXPECT_FALSE(f.is_ready());  // one input still pending
  p2.set_value();
  f.get(rt);
  EXPECT_TRUE(ran.load());
}

TEST_F(FutureTest, DataflowIgnoresInvalidDepsAndRunsEmptyImmediately) {
  std::vector<shared_future<void>> deps(4);  // all default-constructed
  std::atomic<bool> ran{false};
  auto f = dataflow([&] { ran.store(true); }, std::move(deps), rt);
  f.get(rt);
  EXPECT_TRUE(ran.load());
}

TEST_F(FutureTest, DataflowReturnsValue) {
  shared_future<void> d = async([] {}, rt);
  auto f = dataflow([] { return 123; }, {d}, rt);
  EXPECT_EQ(f.get(rt), 123);
}

TEST_F(FutureTest, DataflowDepErrorSkipsTaskDeterministically) {
  promise<void> p1, p2;
  shared_future<void> d1 = p1.get_future();
  shared_future<void> d2 = p2.get_future();
  std::atomic<bool> ran{false};
  auto f = dataflow([&] { ran.store(true); }, {d1, d2}, rt);
  // The *second* dep fails first in wall-clock time; the surfaced error
  // must still be the first failing dep in deps order (d1's logic_error).
  p2.set_exception(std::make_exception_ptr(std::runtime_error("late")));
  p1.set_exception(std::make_exception_ptr(std::logic_error("first")));
  EXPECT_THROW(f.get(rt), std::logic_error);
  EXPECT_FALSE(ran.load());  // fn never ran on a poisoned input set
}

TEST_F(FutureTest, DataflowMidGraphThrowPropagatesDownChain) {
  shared_future<void> a = dataflow([] {}, std::vector<shared_future<void>>{},
                                   rt);
  shared_future<void> b =
      dataflow([]() { throw std::runtime_error("mid"); }, {a}, rt);
  std::atomic<bool> tail_ran{false};
  auto c = dataflow([&] { tail_ran.store(true); }, {b}, rt);
  EXPECT_THROW(c.get(rt), std::runtime_error);
  EXPECT_FALSE(tail_ran.load());
}

TEST_F(FutureTest, WhenAllSharedJoinsAndPropagatesFirstErrorInOrder) {
  promise<void> p1, p2, p3;
  shared_future<void> d1 = p1.get_future();
  shared_future<void> d2 = p2.get_future();
  shared_future<void> d3 = p3.get_future();
  auto ok = when_all(std::vector<shared_future<void>>{d1, d3}, rt);
  auto bad = when_all(std::vector<shared_future<void>>{d1, d2, d3}, rt);
  p3.set_exception(std::make_exception_ptr(std::runtime_error("later dep")));
  p2.set_exception(std::make_exception_ptr(std::logic_error("earlier dep")));
  p1.set_value();
  EXPECT_THROW(ok.get(rt), std::runtime_error);
  EXPECT_THROW(bad.get(rt), std::logic_error);  // deps-order, not time-order
}

TEST_F(FutureTest, GetAllSharedDrainsThenRethrowsFirstInVectorOrder) {
  promise<void> p1, p2, p3;
  std::vector<shared_future<void>> futs = {
      p1.get_future(), p2.get_future(), p3.get_future()};
  futs.insert(futs.begin(), shared_future<void>{});  // invalid: skipped
  p1.set_value();
  p2.set_exception(std::make_exception_ptr(std::logic_error("second")));
  p3.set_exception(std::make_exception_ptr(std::runtime_error("third")));
  EXPECT_THROW(get_all(futs, rt), std::logic_error);
}

TEST_F(FutureTest, CombinatorCountersTick) {
  const auto deferred0 = counter_value("amt.tasks_deferred");
  const auto inline0 = counter_value("amt.continuations_inline");
  promise<void> p;
  shared_future<void> d = p.get_future();
  auto f = dataflow([] {}, {d}, rt);  // one unresolved input: deferred
  promise<int> pi;
  auto g = pi.get_future().then_inline([](int v) { return v + 1; }, rt);
  p.set_value();
  pi.set_value(1);
  f.get(rt);
  EXPECT_EQ(g.get(rt), 2);
  EXPECT_GE(counter_value("amt.tasks_deferred"), deferred0 + 1);
  EXPECT_GE(counter_value("amt.continuations_inline"), inline0 + 1);
}

TEST_F(FutureTest, DataflowLatticeStress) {
  // Wide dependency lattice exercised from many workers at once — the
  // TSan target (`ctest -L san` under -DOCTO_SANITIZE=thread): every task
  // depends on its predecessor layer's neighborhood, so join counters,
  // inline continuations, and cross-thread fire() races all get traffic.
  runtime stress_rt{4};
  constexpr int kWidth = 16;
  constexpr int kLayers = 64;
  std::atomic<int> executed{0};
  std::vector<shared_future<void>> prev;
  for (int i = 0; i < kWidth; ++i)
    prev.push_back(async([&] { executed.fetch_add(1); }, stress_rt));
  for (int layer = 1; layer < kLayers; ++layer) {
    std::vector<shared_future<void>> cur;
    for (int i = 0; i < kWidth; ++i) {
      std::vector<shared_future<void>> deps = {
          prev[static_cast<std::size_t>(i)],
          prev[static_cast<std::size_t>((i + 1) % kWidth)],
          prev[static_cast<std::size_t>((i + kWidth - 1) % kWidth)]};
      cur.push_back(dataflow([&] { executed.fetch_add(1); }, std::move(deps),
                             stress_rt));
    }
    prev = std::move(cur);
  }
  get_all(prev, stress_rt);
  EXPECT_EQ(executed.load(), kWidth * kLayers);
}

}  // namespace
}  // namespace octo::amt
