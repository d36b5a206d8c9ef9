#include <gtest/gtest.h>

#include "amt/runtime.hpp"
#include "amt/sync.hpp"

namespace octo::amt {
namespace {

TEST(Latch, CountsDownToReady) {
  latch l(3);
  EXPECT_FALSE(l.ready());
  l.count_down();
  l.count_down(2);
  EXPECT_TRUE(l.ready());
}

TEST(Latch, WaitHelpsRuntime) {
  runtime rt(1);
  latch l(5);
  for (int i = 0; i < 5; ++i) rt.post([&] { l.count_down(); });
  l.wait(rt);  // must not deadlock even from the external thread
  EXPECT_TRUE(l.ready());
}

TEST(Event, SetAndWait) {
  runtime rt(1);
  event e;
  EXPECT_FALSE(e.is_set());
  rt.post([&] { e.set(); });
  e.wait(rt);
  EXPECT_TRUE(e.is_set());
}

}  // namespace
}  // namespace octo::amt
