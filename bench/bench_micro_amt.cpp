/// Overheads of the AMT runtime primitives: task spawn/execute round trips,
/// future continuation chains, fan-in joins and work stealing.  These are the
/// costs the paper's fine-grained kernel strategy (§IV-B) must amortize.

#include <benchmark/benchmark.h>

#include <atomic>

#include "amt/future.hpp"
#include "amt/sync.hpp"

namespace {

using namespace octo;

void task_spawn_execute(benchmark::State& state) {
  amt::runtime rt(2);
  for (auto _ : state) {
    amt::latch l(100);
    for (int i = 0; i < 100; ++i) rt.post([&l] { l.count_down(); });
    l.wait(rt);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}

void async_get_roundtrip(benchmark::State& state) {
  amt::runtime rt(2);
  for (auto _ : state) {
    auto f = amt::async([] { return 1; }, rt);
    benchmark::DoNotOptimize(f.get(rt));
  }
}

void future_then_chain(benchmark::State& state) {
  amt::runtime rt(2);
  for (auto _ : state) {
    auto f = amt::make_ready_future(0);
    for (int i = 0; i < 16; ++i)
      f = f.then_inline([](int v) { return v + 1; }, rt);
    benchmark::DoNotOptimize(f.get(rt));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}

void when_all_fanin(benchmark::State& state) {
  amt::runtime rt(2);
  for (auto _ : state) {
    std::vector<amt::future<int>> futs;
    futs.reserve(64);
    for (int i = 0; i < 64; ++i)
      futs.push_back(amt::async([i] { return i; }, rt));
    amt::when_all(std::move(futs), rt).get(rt);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

void ws_deque_push_pop(benchmark::State& state) {
  amt::ws_deque<int> dq;
  int item = 7;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) dq.push(&item);
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(dq.pop());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}

}  // namespace

BENCHMARK(task_spawn_execute);
BENCHMARK(async_get_roundtrip);
BENCHMARK(future_then_chain);
BENCHMARK(when_all_fanin);
BENCHMARK(ws_deque_push_pop);

BENCHMARK_MAIN();
