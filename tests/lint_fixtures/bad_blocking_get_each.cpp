// Fixture: a blocking .get() inside an amt::run_each task body — those
// lambdas are task bodies too, and the worker running one would block
// instead of helping.  Never compiled.
#include "amt/future.hpp"
#include "amt/task_graph.hpp"

void bad_blocking_get_each(octo::amt::runtime& rt,
                           octo::amt::future<int> input) {
  octo::amt::run_each(rt, "bad", 4, [&input, &rt](std::size_t) {
    (void)input.get(rt);  // blocks a worker mid-task
  });
  input.wait(rt);  // outside the run_each call extent: allowed
}
