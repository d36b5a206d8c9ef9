#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "amt/channel.hpp"

namespace octo::amt {
namespace {

struct ChannelTest : testing::Test {
  runtime rt{2};
};

TEST_F(ChannelTest, SendThenReceive) {
  channel<int> ch;
  ch.send(5);
  EXPECT_EQ(ch.buffered(), 1u);
  EXPECT_EQ(ch.receive().get(rt), 5);
  EXPECT_EQ(ch.buffered(), 0u);
}

TEST_F(ChannelTest, ReceiveThenSend) {
  channel<int> ch;
  auto f = ch.receive();
  EXPECT_FALSE(f.is_ready());
  EXPECT_EQ(ch.waiting(), 1u);
  ch.send(9);
  EXPECT_EQ(f.get(rt), 9);
}

TEST_F(ChannelTest, FifoOrder) {
  channel<int> ch;
  for (int i = 0; i < 10; ++i) ch.send(i);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ch.receive().get(rt), i);
}

TEST_F(ChannelTest, FifoReceiversMatchFifoValues) {
  channel<int> ch;
  auto f1 = ch.receive();
  auto f2 = ch.receive();
  ch.send(100);
  ch.send(200);
  EXPECT_EQ(f1.get(rt), 100);
  EXPECT_EQ(f2.get(rt), 200);
}

TEST_F(ChannelTest, MoveOnlyPayload) {
  channel<std::unique_ptr<int>> ch;
  ch.send(std::make_unique<int>(11));
  auto v = ch.receive().get(rt);
  ASSERT_TRUE(v);
  EXPECT_EQ(*v, 11);
}

TEST_F(ChannelTest, ContinuationOnReceive) {
  channel<int> ch;
  auto f = ch.receive().then([](int v) { return v * 3; }, rt);
  ch.send(7);
  EXPECT_EQ(f.get(rt), 21);
}

TEST_F(ChannelTest, ClosedChannelFailsPendingReceives) {
  channel<int> ch;
  auto f1 = ch.receive();
  auto f2 = ch.receive();
  ch.close();
  EXPECT_THROW(f1.get(rt), broken_channel);
  EXPECT_THROW(f2.get(rt), broken_channel);
}

TEST_F(ChannelTest, ClosedChannelFailsFutureReceives) {
  channel<int> ch;
  ch.close();
  auto f = ch.receive();
  EXPECT_TRUE(f.is_ready());
  EXPECT_THROW(f.get(rt), broken_channel);
}

TEST_F(ChannelTest, CloseDropsSendsAndBufferedValues) {
  channel<int> ch;
  ch.send(1);
  ch.close();
  EXPECT_EQ(ch.buffered(), 0u);
  ch.send(2);  // dropped, not buffered, no throw
  EXPECT_EQ(ch.buffered(), 0u);
  EXPECT_TRUE(ch.is_closed());
}

TEST_F(ChannelTest, CloseIsIdempotent) {
  channel<int> ch;
  auto f = ch.receive();
  ch.close();
  ch.close();
  EXPECT_THROW(f.get(rt), broken_channel);
}

TEST_F(ChannelTest, CloseRacesConcurrentReceivers) {
  channel<int> ch;
  std::vector<future<int>> futs;
  for (int i = 0; i < 64; ++i) futs.push_back(ch.receive());
  rt.post([&ch] { ch.close(); });
  int broken = 0;
  for (auto& f : futs) {
    try {
      f.get(rt);
    } catch (const broken_channel&) {
      ++broken;
    }
  }
  EXPECT_EQ(broken, 64);
}

TEST_F(ChannelTest, ProducerConsumerStress) {
  channel<int> ch;
  constexpr int N = 2000;
  std::atomic<long long> sum{0};
  std::vector<future<void>> consumers;
  for (int i = 0; i < N; ++i) {
    consumers.push_back(ch.receive().then(
        [&sum](int v) { sum.fetch_add(v); }, rt));
  }
  for (int i = 1; i <= N; ++i) {
    rt.post([&ch, i] { ch.send(i); });
  }
  get_all(consumers, rt);
  EXPECT_EQ(sum.load(), static_cast<long long>(N) * (N + 1) / 2);
}

}  // namespace
}  // namespace octo::amt
